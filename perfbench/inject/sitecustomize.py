"""Start-up hook for the CLI processes of traced cli-pipe rounds.

Traced rounds put this directory first on the CLI processes' PYTHONPATH,
name a span directory in PERFBENCH_SPANS and the operation id in
PERFBENCH_OP. Python imports this module at start-up, before
`-m robpcount.cli` runs; it wraps robpcount's public functions in spans and
writes them to PERFBENCH_SPANS/<pid>.json when the process exits. Without
PERFBENCH_SPANS it does nothing.
"""

import os

if os.environ.get("PERFBENCH_SPANS"):
    import atexit
    import json
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    import robpcount  # noqa: F401  (loads every module but cli, which -m runs)
    from spans import Tracer

    _tracer = Tracer()
    _tracer.op = int(os.environ.get("PERFBENCH_OP", "-1"))
    _tracer.install()
    _out = os.path.join(os.environ["PERFBENCH_SPANS"], f"{os.getpid()}.json")

    def _write_spans():
        _tracer.take_counts()
        with open(_out, "w") as fh:
            json.dump(_tracer.spans, fh)

    atexit.register(_write_spans)
