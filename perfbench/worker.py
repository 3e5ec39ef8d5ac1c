"""Runs one workload in a fresh process and prints its figures as one JSON
line. Started by run.py, which owns the environment and the set-up probes.

Rounds repeat the workload's fixed list of operations for --seconds. Untraced
rounds give the end-to-end figures. With --trace 1, traced rounds alternate
with untraced ones, and the per-layer figures come from the traced rounds only.

Before each operation the worker times a few calls of a fixed reference
kernel that uses nothing of robpcount. Their mean in a round tells how fast
the machine ran in that round; operation times are scaled by it to the
kernel's nominal speed (see normalised_floor).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, layer_figures, self_times

INJECT_DIR = Path(__file__).resolve().parent / "inject"
# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make it one or two unlucky samples, not a tail. The run
# reports the highest of TAIL_PERCENTILES that has them.
MIN_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90, 75)


def percentile(samples, q: float):
    """Nearest-rank q-th percentile of `samples`, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


# Reference calls per round, spread evenly over its operations, and the
# nominal time of one call, to which every round is scaled. A call takes
# 4-9 ms on a 2-vCPU Xeon KVM guest at 2.1 GHz, depending on the load
# other tenants put on the host.
REF_CALLS = 64
REF_S = 0.005


def _partitions(items: list, max_blocks: int):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        if len(part) < max_blocks:
            yield part + [[first]]


def reference() -> float:
    """Wall time of one call of the reference kernel: the interval hulls of
    every partition of eight fixed intervals into at most three blocks.
    Tuples, sets, dicts and generators in pure Python, the kind of work the
    package's own Python code does; the result is always the same."""
    t0 = time.perf_counter()
    hulls: dict = {}
    items = [(i, i + (i * 7) % 5) for i in range(8)]
    for part in _partitions(items, 3):
        hull = tuple(sorted((min(a for a, _ in blk), max(b for _, b in blk)) for blk in part))
        hulls[hull] = hulls.get(hull, 0) + 1
    elapsed = time.perf_counter() - t0
    assert sum(hulls.values()) == 1094, "reference kernel gave a wrong result"
    return elapsed


CLI_SUBCOMMANDS = ("startup", "build", "verify", "audit", "labels", "bounds", "frontier", "mg-query", "fuzz")


def run_round(ops, ctx, tracer=None):
    gc.collect()
    per_op = max(1, REF_CALLS // len(ops))
    refs = []
    restore = tracer.install() if tracer else None
    verdicts, latencies, vertices, failed = [], [], 0, 0
    start = time.perf_counter()
    try:
        for i, (name, op) in enumerate(ops):
            refs.extend(reference() for _ in range(per_op))
            ctx.op = i
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                verdict, carried = op(ctx)
            except Exception:  # one operation's failure must not end the run
                print(f"operation {name} failed:", file=sys.stderr)
                traceback.print_exc()
                verdict, carried = ("failed",), 0
                failed += 1
            latencies.append(time.perf_counter() - t0)
            verdicts.append(verdict)
            vertices += carried
    finally:
        wall = time.perf_counter() - start - sum(refs)
        if restore:
            restore()
    return {
        "wall": wall,
        "ref": statistics.fmean(refs),
        "latencies": latencies,
        "verdicts": verdicts,
        "vertices": vertices,
        "failed": failed,
        "cli_s": dict(ctx.cli_s),
    }


def floor_wall(rounds) -> float:
    """A round's wall time with each operation at its shortest over the
    rounds, as measured."""
    return sum(min(lat) for lat in zip(*(r["latencies"] for r in rounds)))


def normalised_floor(rounds) -> float:
    """floor_wall with every latency first scaled by REF_S over the mean
    reference call of its round. On a shared virtual machine other tenants
    slow this process by up to half for minutes at a time, longer than a
    run; the reference kernel slows with it (correlation 0.9 over a round
    of the frontier workload), so the scaled floor moves several times less
    between runs than the measured one."""
    return sum(
        min(lat)
        for lat in zip(*([t * REF_S / r["ref"] for t in r["latencies"]] for r in rounds))
    )


def traced_round(ops, env, span_dir):
    """One traced round: spans of this process plus those the CLI processes
    wrote to span_dir. Returns the round and its per-layer figures."""
    tracer = Tracer()
    traced_env = dict(env)
    traced_env["PYTHONPATH"] = os.pathsep.join([str(INJECT_DIR), env["PYTHONPATH"]])
    traced_env["PERFBENCH_SPANS"] = str(span_dir)
    result = run_round(ops, workloads.Context(traced_env), tracer)
    tracer.take_counts()
    groups = [tracer.spans]
    for path in sorted(span_dir.glob("*.json")):
        groups.append(json.loads(path.read_text()))
        path.unlink()
    figures = layer_figures(groups)
    figures.update({f"cli.{name}_s": result["cli_s"].get(name, 0.0) for name in CLI_SUBCOMMANDS})
    figures["trace.unattributed_s"] = result["wall"] - sum(self_times(tracer.spans))
    return result, figures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), args.workdir)
    env = dict(os.environ)
    span_dir = args.workdir / "spans"
    span_dir.mkdir()
    plain, traced, per_layer = [], [], []
    start = time.perf_counter()
    # Repeat while the next round (or traced pair) should end within
    # --seconds, at least twice: wall_s needs two samples of every operation.
    while True:
        t0 = time.perf_counter()
        plain.append(run_round(ops, workloads.Context(env)))
        if args.trace:
            result, figures = traced_round(ops, env, span_dir)
            traced.append(result)
            per_layer.append(figures)
        now = time.perf_counter()
        if len(plain) >= 2 and now + (now - t0) - start > args.seconds:
            break

    rounds = plain + traced
    reference = plain[0]["verdicts"]
    failed = 0
    for r in rounds:
        # a verdict that differs from the first round's counts as a failure,
        # so traced and untraced rounds must agree
        failed += r["failed"] + sum(
            v != ref and v != ("failed",) for v, ref in zip(r["verdicts"], reference)
        )
    who = resource.RUSAGE_CHILDREN if args.workload in workloads.RSS_OF_CHILDREN else resource.RUSAGE_SELF
    latencies = [t for r in plain for t in r["latencies"]]
    tail = next(((q, t) for q in TAIL_PERCENTILES if (t := percentile(latencies, q)) is not None), None)
    wall = normalised_floor(plain)
    doc = {
        "attempted": sum(len(r["verdicts"]) for r in rounds),
        "failed": failed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "round_walls": [r["wall"] for r in plain],
        "op_count": len(latencies),
        "wall_s": wall,
        "measured_wall_s": floor_wall(plain),
        "ref_ms": statistics.median(r["ref"] for r in plain) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "vertices_per_s": plain[0]["vertices"] / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail": None if tail is None else [tail[0], tail[1] * 1e3],
        "ops_per_s": len(ops) / wall,
    }
    if traced:
        layers = {name: statistics.median(f[name] for f in per_layer) for name in per_layer[0]}
        layers["trace.overhead_s"] = normalised_floor(traced) - wall
        doc["per_layer"] = layers
        doc["traced_wall_s"] = normalised_floor(traced)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
