"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is used from ./src, as the
checkout cannot be pip-installed here; the CLI runs as
`python -m robpcount.cli`. The workload runs in a fresh worker process with
the ROBPCOUNT_* budget variables removed and the numpy/BLAS thread counts
capped at the CPU count. With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics, with --trace 1 one with the
per-layer metrics. Lines before it give the same figures for reading.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("wide-audit", "cli-pipe", "frontier")
SETUP_PROBES = 10
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "vertices_per_s": "1/s"}
# printed for reading, not gated: fail_frac is 0 when all is well, the
# latency percentiles of millisecond operations move by a third between runs
# on a shared machine, and so does the measured (unscaled) floor of wall_s
# with the reference call time that scales it
REPORTED = {
    "fail_frac": "1",
    "op_p50_ms": "ms",
    "op_count": "count",
    "ops_per_s": "1/s",
    "measured_wall_s": "s",
    "ref_ms": "ms",
}
# per-layer metrics not named *_s (seconds) or counts
PER_LAYER_UNITS = {"robp.json_mb": "MB", "robp.read_us_per_vertex": "us", "potential.ns_per_cell": "ns"}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def child_env(nproc: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROBPCOUNT_")}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return env


def machine_info(nproc: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401  (decides which paint path runs)

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": has_numba,
    }


def setup_probes(env: dict, deadline: float, count: int) -> list[float]:
    """Wall times of fresh interpreters running warmup.py."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "warmup.py")], env=env, cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would round every probe up to the next step
        watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe exited with code {code}")
    return times


def run_worker(args, env: dict, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    # its own session, so a timeout can stop the CLI processes it started too
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "robpcount" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no robpcount package under {SRC}")

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    info = machine_info(nproc)
    # set-up is probed before and after the workload, so a passing slow
    # spell of the machine moves fewer of the probes
    probes = 0 if args.trace else SETUP_PROBES
    setup = setup_probes(env, deadline, probes // 2)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        doc = run_worker(args, env, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup += setup_probes(env, deadline, probes - probes // 2)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={doc['rounds']}"
        f" traced_rounds={doc['traced_rounds']} "
        + " ".join(f"{k}={v}" for k, v in info.items())
    )
    print("  round wall times (s): " + " ".join(f"{t:.3f}" for t in doc["round_walls"]))
    if args.trace:
        metrics = {name: (value, per_layer_unit(name)) for name, value in doc["per_layer"].items()}
        print(
            f"  wall_s untraced {doc['wall_s']:.4f} s, traced {doc['traced_wall_s']:.4f} s;"
            f" per traced round, {doc['per_layer']['trace.unattributed_s']:.4f} s of the worker's"
            " time lies outside its spans"
        )
    else:
        doc["setup_s"] = statistics.median(setup)
        doc["fail_frac"] = doc["failed"] / doc["attempted"]
        metrics = {name: (doc[name], unit) for name, unit in END_TO_END.items()}
        for name, unit in REPORTED.items():
            print(f"  {name:<28} {doc[name]:.6g} {unit}  (reported, not gated)")
        if doc["op_tail"]:
            q, value = doc["op_tail"]
            print(f"  {f'op_p{q}_ms':<28} {value:.6g} ms  (reported, not gated; highest percentile"
                  " with ten latencies beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
