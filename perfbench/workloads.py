"""The benchmark's workloads.

Each workload function takes the seeded random generator and a scratch
directory, prepares its inputs and the reference results its checks need
(untimed), and returns its operations: a list of ``(name, op)`` where
``op(ctx)`` runs one operation, checks its own result, and returns
``(verdict, vertices)``. ``verdict`` is compared across rounds (traced and
untraced alike); ``vertices`` is the program vertices the operation carried.
A failed check raises CheckFailed.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import robpcount as rc

# Seconds one CLI pipeline may take before it is killed (and so fails).
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation's result is wrong."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


class Context:
    """Per-round state an operation may use: the environment for CLI
    processes and the wall time they took, keyed by subcommand."""

    def __init__(self, env: dict):
        self.env = env
        self.op = None  # id of the running operation
        self.cli_s: Counter = Counter()


# ---------------------------------------------------------------------------
# wide-audit: one wide, shallow k=4 program through every in-process stage
# ---------------------------------------------------------------------------


def wide_audit(rng, workdir):
    # n=100 is the smallest n rounded_counter accepts at k=4, delta=10; its
    # widest layer holds 110k vertices, 3.2M in all. The construction is
    # deterministic, so the seed does not change the input.
    n, k, delta = 100, 4, 10
    problem = rc.counter_alphabet(k)
    # One program goes through the stages in order; each stage is its own
    # operation, so each is timed at its own shortest and has a reference
    # measurement next to it. The last stage drops the program, so a round
    # never holds two.
    state: dict = {}

    def build(ctx):
        state["p"] = p = rc.rounded_counter(n, k, delta)
        return tuple(p.layer_sizes), sum(p.layer_sizes)

    def validate(ctx):
        report = rc.validate(state["p"])
        check(report.valid, "program is invalid")
        check(report.width <= rc.rounded_counter_width_bound(n, k, delta), "width over its bound")
        return report.width, 0

    def verify(ctx):
        state["cert"] = cert = rc.verify(state["p"], problem, delta)
        check(cert.valid, "does not verify at delta")
        return str(cert.max_halfwidth), 0

    def minimal_error(ctx):
        best, _ = rc.minimal_error(state["p"], problem)
        check(best <= delta, "minimal error above delta")
        return best, 0

    def labels(ctx):
        state["lp"] = rc.compute_labels(state["p"], "potential")
        return "labels", 0

    def profile(ctx):
        state["prof"] = prof = rc.profile_counter(state["lp"])
        return prof.phi_values[-1], 0

    def audits(ctx):
        p, lp, prof, cert = (state.pop(key) for key in ("p", "lp", "prof", "cert"))
        check(rc.audit_growth_counter(lp, p.width, prof).overall_pass, "growth audit failed")
        final = rc.audit_final_counter(lp, delta, prof, verified=cert.valid)
        check(final.overall_pass, "final audit failed")
        return "audits pass", 0

    name = f"rounded_counter({n},{k},{delta})"
    stages = (build, validate, verify, minimal_error, labels, profile, audits)
    return [(f"{name} {stage.__name__}", stage) for stage in stages]


# ---------------------------------------------------------------------------
# cli-pipe: the README pipelines as real processes joined by pipes
# ---------------------------------------------------------------------------


def run_cli(ctx, *argvs, input_path=None):
    """Run `python -m robpcount.cli` once per argv, each reading the previous
    one's stdout. Returns the exit codes and the last process's stdout. The
    wall time of each process is added to ctx.cli_s under its subcommand.
    Processes still running after CLI_TIMEOUT_S are killed."""
    procs, starts, ends = [], [], {}
    watchdog = threading.Timer(CLI_TIMEOUT_S, lambda: [p.kill() for p in procs])
    stdin = open(input_path, "rb") if input_path else subprocess.DEVNULL
    try:
        for argv in argvs:
            starts.append(time.perf_counter())
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "robpcount.cli", *argv],
                    stdin=stdin,
                    stdout=subprocess.PIPE,
                    env=dict(ctx.env, PERFBENCH_OP=str(ctx.op)),
                )
            )
            if stdin is not subprocess.DEVNULL:
                stdin.close()
            stdin = procs[-1].stdout
        watchdog.start()

        # blocking waits: Popen.wait(timeout) polls in steps of up to 50 ms
        def reap(i):
            procs[i].wait()
            ends[i] = time.perf_counter()

        waiters = [threading.Thread(target=reap, args=(i,)) for i in range(len(procs) - 1)]
        for t in waiters:
            t.start()
        out, _ = procs[-1].communicate()
        ends[len(procs) - 1] = time.perf_counter()
        for t in waiters:
            t.join()
    finally:
        watchdog.cancel()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for i, argv in enumerate(argvs):
        ctx.cli_s["startup" if argv[0] == "--help" else argv[0]] += ends[i] - starts[i]
    return [p.returncode for p in procs], out.decode()


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _verify_doc(cert):
    return {
        "valid": cert.valid,
        "delta": str(cert.delta),
        "max_halfwidth": str(cert.max_halfwidth),
        "worst": None if cert.worst is None else [cert.worst[0], cert.worst[1], str(cert.worst[2])],
    }


def cli_pipe(rng, workdir):
    ops = []

    def startup(ctx):
        codes, out = run_cli(ctx, ["--help"])
        check(codes == [0] and out.startswith("usage:"), f"--help exit {codes}")
        return "usage", 0

    ops.append(("--help", startup))

    # build | verify: the JSON transport dominates (4.6 MB for 212k vertices)
    verify_cases = []
    exact_n = 45
    exact = rc.exact_counter(exact_n, 4)
    verify_cases.append(
        (
            ["build", "--kind", "exact", "--n", str(exact_n), "--k", "4"],
            ["verify", "--problem", "counter", "--k", "4", "--delta", "0"],
            rc.verify(exact, rc.counter_alphabet(4), 0),
            sum(exact.layer_sizes),
        )
    )
    tribes_w = rng.randint(4, 12)
    tribes = rc.tribes(1000, tribes_w)
    tribes_delta = Fraction(500) - Fraction(rc.tribes_plan(1000, tribes_w).gap, 2)
    verify_cases.append(
        (
            ["build", "--kind", "tribes", "--n", "1000", "--w", str(tribes_w)],
            ["verify", "--problem", "binary", "--delta", str(tribes_delta)],
            rc.verify(tribes, rc.binary_alphabet(), tribes_delta),
            sum(tribes.layer_sizes),
        )
    )
    for build, verify, cert, vertices in verify_cases:

        def pipe_verify(ctx, build=build, verify=verify, cert=cert, vertices=vertices):
            codes, out = run_cli(ctx, build, verify)
            check(codes == [0, 0 if cert.valid else 1], f"exit codes {codes}")
            check(json.loads(out) == _verify_doc(cert), "verify output differs from in-process")
            return out, vertices

        ops.append((" | ".join(a[0] for a in (build, verify)) + f" {build[2]}", pipe_verify))

    # build rounded | audit --check both
    rounded = rc.rounded_counter(100, 3, 10)
    lp = rc.compute_labels(rounded, "potential")
    prof = rc.profile_counter(lp)
    reports = [
        rc.audit_growth_counter(lp, rounded.width, prof),
        rc.audit_final_counter(lp, 10, prof),
    ]
    audit_rows = [["t", "lhs", "rhs", "slack", "pass"]] + [
        [str(r.t), str(Fraction(r.lhs)), str(Fraction(r.rhs)), str(Fraction(r.slack)), str(r.passed).lower()]
        for rep in reports
        for r in rep.rows
    ]
    audit_ok = all(rep.overall_pass for rep in reports)
    rounded_vertices = sum(rounded.layer_sizes)
    del lp, prof

    def pipe_audit(ctx):
        codes, out = run_cli(
            ctx,
            ["build", "--kind", "rounded", "--n", "100", "--k", "3", "--delta", "10"],
            ["audit", "--check", "both", "--delta", "10"],
        )
        check(codes == [0, 0 if audit_ok else 1], f"exit codes {codes}")
        check(_csv_rows(out) == audit_rows, "audit rows differ from in-process")
        return out, rounded_vertices

    ops.append(("build rounded | audit", pipe_audit))

    # build exact | labels
    small = rc.exact_counter(30, 3)
    lp = rc.compute_labels(small, "full")
    label_rows = [["layer", "vertex", "lo_1", "lo_2", "lo_3", "hi_1", "hi_2", "hi_3"]] + [
        [str(t), str(v)] + [str(int(x)) for x in lp.lo[t][v]] + [str(int(x)) for x in lp.hi[t][v]]
        for t in range(small.n + 1)
        for v in range(small.layer_sizes[t])
    ]
    small_vertices = sum(small.layer_sizes)
    del lp

    def pipe_labels(ctx):
        codes, out = run_cli(ctx, ["build", "--kind", "exact", "--n", "30", "--k", "3"], ["labels", "--mode", "full"])
        check(codes == [0, 0], f"exit codes {codes}")
        check(_csv_rows(out) == label_rows, "labels differ from in-process")
        return out, small_vertices

    ops.append(("build exact | labels", pipe_labels))

    # bounds on a seeded (n, k, w, delta)
    bn, bk, bw = rng.randint(60, 120), rng.randint(2, 3), rng.randint(2, 8)
    bdelta = Fraction(rng.randint(1, bn // (2 * (bk - 1))))
    report = rc.thm_main_feasible(bn, bk, bw, bdelta)
    bounds_doc = {
        "n": bn, "k": bk, "w": bw, "delta": str(bdelta), "m": report.m,
        "lhs": str(report.lhs), "rhs": str(report.rhs), "verdict": report.verdict,
    }

    def bounds(ctx):
        codes, out = run_cli(ctx, ["bounds", "--n", str(bn), "--k", str(bk), "--w", str(bw), "--delta", str(bdelta)])
        check(codes == [1 if report.ruled_out else 0], f"exit codes {codes}")
        check(json.loads(out) == bounds_doc, "bounds output differs from in-process")
        return out, 0

    ops.append(("bounds", bounds))

    # frontier --n-max 8 --w-max 3
    frontier_rows = [["n", "w", "delta_num", "delta_den", "lb_num", "lb_den"]]
    for n in range(1, 9):
        for w in range(1, 4):
            d = rc.frontier(n, w).delta_star
            lb = [str(x) for x in (rc.lb_small_w(n, 2, w).as_integer_ratio())] if w >= 3 else ["", ""]
            frontier_rows.append([str(n), str(w), str(d.numerator), str(d.denominator)] + lb)

    def frontier(ctx):
        codes, out = run_cli(ctx, ["frontier", "--n-max", "8", "--w-max", "3"])
        check(codes == [0], f"exit codes {codes}")
        check(_csv_rows(out) == frontier_rows, "frontier rows differ from in-process")
        return out, 0

    ops.append(("frontier", frontier))

    # mg-query over a seeded stream: a few heavy elements over uniform noise
    universe, k, length = 1000, 8, 100_000
    heavy = rng.sample(range(universe), 5)
    stream = [rng.choice(heavy) if rng.random() < 0.5 else rng.randrange(universe) for _ in range(length)]
    stream_path = workdir / "stream.txt"
    stream_path.write_text("\n".join(map(str, stream)) + "\n")
    query = heavy[0]
    hh = rc.mg_finalize(rc.mg_run(stream, k, universe))
    freq = Counter(stream)
    check(
        all(freq[u] - Fraction(length, k) <= est <= freq[u] for u, est in zip(hh.elements, hh.estimates)),
        "Misra-Gries guarantee broken in-process",
    )
    mg_doc = {
        "n": hh.n, "k": hh.k, "U": hh.U, "elements": list(hh.elements), "estimates": list(hh.estimates),
        "query": query, "estimate": str(rc.to_approx_counts(hh, query)),
    }
    del stream, freq

    def mg_query(ctx):
        codes, out = run_cli(
            ctx, ["mg-query", "--k", str(k), "--U", str(universe), "--query", str(query), "-i", "-"],
            input_path=stream_path,
        )
        check(codes == [0], f"exit codes {codes}")
        check(json.loads(out) == mg_doc, "mg-query output differs from in-process")
        return out, 0

    ops.append(("mg-query", mg_query))

    # fuzz: the verifier against the exhaustive oracle on seeded programs
    fuzz_seed, fuzz_seeds = rng.randrange(10**6), 60
    fuzz_doc = {"alphabet": "counter", "failures": 0, "first_seed": fuzz_seed, "n": 6, "seeds": fuzz_seeds, "w": 3}

    def fuzz(ctx):
        codes, out = run_cli(
            ctx,
            ["fuzz", "--seeds", str(fuzz_seeds), "--seed", str(fuzz_seed), "--n", "6", "--w", "3",
             "--problem", "counter", "--k", "3"],
        )
        check(codes == [0], f"exit codes {codes}")
        check(json.loads(out) == fuzz_doc, "fuzz found a disagreement")
        return out, 0

    ops.append(("fuzz", fuzz))
    return ops


# ---------------------------------------------------------------------------
# frontier: the pure-Python interval-system search and its brute-force check
# ---------------------------------------------------------------------------

# w=4 stops at n=9: frontier(10, 4), (11, 4) and (12, 4) take about 3, 5 and
# 10 s, several times the rest of the sweep (about 3 s), and a run must
# repeat every operation several times to time it steadily on a shared machine.
FRONTIER_POINTS = [(n, w) for w in range(1, 5) for n in range(1, 13 if w < 4 else 10)]
BRUTE_FORCE_POINTS = [(n, w) for w in range(1, 4) for n in range(1, 7)]


def frontier(rng, workdir):
    points = FRONTIER_POINTS[:]
    brute = BRUTE_FORCE_POINTS[:]
    rng.shuffle(points)
    rng.shuffle(brute)
    found: dict = {}  # (n, w) -> delta*, filled by this round's frontier ops
    problem = rc.binary_alphabet()

    def frontier_op(n, w):
        def op(ctx):
            point = rc.frontier(n, w)
            found[(n, w)] = point.delta_star
            p = rc.system_to_robp(point.witness)
            check(rc.verify(p, problem, point.delta_star).valid, "witness does not verify at delta*")
            best, _ = rc.minimal_error(p, problem)
            check(best == point.delta_star, "witness minimal error differs from delta*")
            if w >= 3:
                check(rc.lb_small_w(n, 2, w) <= point.delta_star, "lower bound above delta*")
            return point.delta_star, sum(p.layer_sizes)

        return op

    def brute_op(n, w):
        def op(ctx):
            exact = rc.frontier_brute_force(n, w)
            check(exact == found.get((n, w)), "brute force differs from frontier")
            return exact, 0

        return op

    return [(f"frontier({n},{w})", frontier_op(n, w)) for n, w in points] + [
        (f"frontier_brute_force({n},{w})", brute_op(n, w)) for n, w in brute
    ]


WORKLOADS = {
    "wide-audit": wide_audit,
    "cli-pipe": cli_pipe,
    "frontier": frontier,
}

# cli-pipe's work happens in CLI processes, so its peak RSS is theirs
RSS_OF_CHILDREN = {"cli-pipe"}
