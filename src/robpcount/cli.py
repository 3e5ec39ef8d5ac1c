"""Command-line entry point.

Subcommands: build, validate, verify, labels, audit, bounds, sweep,
frontier, fuzz, mg, mg-query, plot-data. Programs travel between commands
as the JSON serialization on files or stdin/stdout, so subcommands compose
as pipelines. Exit status: 0 for valid/consistent/success, 1 for
invalid/ruled_out/property violation, 2 for usage errors.

Budgets can be overridden with environment variables:
ROBPCOUNT_MAX_WIDTH, ROBPCOUNT_MAX_INPUTS, ROBPCOUNT_MAX_CELLS,
ROBPCOUNT_MAX_PAINT, ROBPCOUNT_FRONTIER_N, ROBPCOUNT_FRONTIER_W.

Each subcommand imports the modules it runs when it runs, so --help, bounds,
sweep, frontier, mg and mg-query start without numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from importlib import import_module
from typing import TYPE_CHECKING

from .exact import format_rational, parse_rational

if TYPE_CHECKING:
    from .robp import Alphabet, Robp

# budget -> (its environment variable, the module and name of its default)
_BUDGETS = {
    "max_width": ("ROBPCOUNT_MAX_WIDTH", "constructions", "DEFAULT_MAX_WIDTH"),
    "max_inputs": ("ROBPCOUNT_MAX_INPUTS", "oracle", "DEFAULT_MAX_INPUTS"),
    "max_cells": ("ROBPCOUNT_MAX_CELLS", "potential", "DEFAULT_MAX_BOX_CELLS"),
    "max_paint": ("ROBPCOUNT_MAX_PAINT", "potential", "DEFAULT_MAX_PAINT"),
    "frontier_n": ("ROBPCOUNT_FRONTIER_N", "oracle", "DEFAULT_FRONTIER_N"),
    "frontier_w": ("ROBPCOUNT_FRONTIER_W", "oracle", "DEFAULT_FRONTIER_W"),
}


def _env_int(name: str) -> int | None:
    value = os.environ.get(name)
    if not value:
        return None
    try:
        number = int(value)
        if number >= 0:
            return number
    except ValueError:
        pass
    raise ValueError(f"{name} must be a nonnegative integer, not {value!r}")


def _budgets(*names: str) -> dict[str, int]:
    """The named budgets, each from its variable or else its default. Every
    variable is checked, so each budgeted command refuses a bad one, but
    only the named budgets' modules are imported for their defaults."""
    given = {name: _env_int(variable) for name, (variable, _, _) in _BUDGETS.items()}
    budgets = {}
    for name in names:
        _, module, default = _BUDGETS[name]
        value = given[name]
        if value is None:
            value = getattr(import_module(f".{module}", __package__), default)
        budgets[name] = value
    return budgets


def _read_program(path: str | None) -> Robp:
    from .robp import read_robp

    # read_robp holds the only reference to the bytes: it scans canonical
    # text in place, and frees any other once decoded, before json.loads peaks
    if path in (None, "-"):
        return read_robp(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return read_robp(fh.read())


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_out(obj) -> int:
    print(json.dumps(obj, sort_keys=True, separators=(",", ": ")))
    return 0


def _cmd_build(args) -> int:
    from . import constructions
    from .robp import write_robp

    budgets = _budgets("max_width")
    if args.kind == "exact":
        p = constructions.exact_counter(args.n, args.k, max_width=budgets["max_width"])
    elif args.kind == "tribes":
        p = constructions.tribes(args.n, args.w, outputs=args.tribes_outputs)
    elif args.kind == "rounded":
        p = constructions.rounded_counter(
            args.n, args.k, args.delta, max_width=budgets["max_width"]
        )
    else:
        values = [parse_rational(v) for v in args.value.split(",")]
        p = constructions.constant_program(args.n, values)
    _write_text(args.output, write_robp(p))
    return 0


def _cmd_validate(args) -> int:
    from .robp import validate

    report = validate(_read_program(args.input))
    _json_out(
        {
            "valid": report.valid,
            "width": report.width,
            "layer_sizes": list(report.layer_sizes),
            "violations": [list(v) for v in report.violations],
        }
    )
    return 0 if report.valid else 1


def _cmd_verify(args) -> int:
    from .labeling import verify
    from .robp import Alphabet

    p = _read_program(args.input)
    cert = verify(p, Alphabet(args.problem, args.k), args.delta)
    _json_out(
        {
            "valid": cert.valid,
            "delta": format_rational(cert.delta),
            "max_halfwidth": format_rational(cert.max_halfwidth),
            "worst": None
            if cert.worst is None
            else [cert.worst[0], cert.worst[1], format_rational(cert.worst[2])],
        }
    )
    return 0 if cert.valid else 1


def _cmd_labels(args) -> int:
    from .labeling import compute_labels

    p = _read_program(args.input)
    lp = compute_labels(p, args.mode)
    writer = csv.writer(sys.stdout)
    d = lp.dims
    writer.writerow(
        ["layer", "vertex"]
        + [f"lo_{j + 1}" for j in range(d)]
        + [f"hi_{j + 1}" for j in range(d)]
    )
    for t in range(p.n + 1):
        lo, hi = lp.layer_rectangles(t)
        for v in range(lo.shape[0]):
            writer.writerow([t, v] + [int(x) for x in lo[v]] + [int(x) for x in hi[v]])
    return 0


def _audit_reports(p: Robp, args, budgets):
    from . import potential
    from .labeling import compute_labels

    limits = {"max_cells": budgets["max_cells"], "max_paint": budgets["max_paint"]}
    counter = args.family == "counter"
    lp = compute_labels(p, "potential" if counter else "full")
    prof = (potential.profile_counter if counter else potential.profile_parallel)(lp, **limits)
    reports = []
    if args.check in ("growth", "both"):
        growth = potential.audit_growth_counter if counter else potential.audit_growth_parallel
        reports.append(growth(lp, p.width, prof))
    if args.check in ("final", "both"):
        if counter:
            reports.append(potential.audit_final_counter(lp, args.delta, prof))
        else:
            reports.append(potential.audit_final_parallel(lp, prof))
    return reports


def _cmd_audit(args) -> int:
    if args.family == "counter" and args.check != "growth" and args.delta is None:
        raise ValueError(f"audit --family counter --check {args.check} needs --delta")
    p = _read_program(args.input)
    reports = _audit_reports(p, args, _budgets("max_cells", "max_paint"))
    writer = csv.writer(sys.stdout)
    writer.writerow(["t", "lhs", "rhs", "slack", "pass"])
    ok = True
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    row.t,
                    format_rational(Fraction(row.lhs)),
                    format_rational(Fraction(row.rhs)),
                    format_rational(Fraction(row.slack)),
                    str(row.passed).lower(),
                ]
            )
        ok = ok and report.overall_pass
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    report = bounds_mod.thm_main_feasible(args.n, args.k, args.w, args.delta)
    _json_out(
        {
            "n": report.n,
            "k": report.k,
            "w": report.w,
            "delta": format_rational(report.delta),
            "m": report.m,
            "lhs": format_rational(report.lhs),
            "rhs": format_rational(report.rhs),
            "verdict": report.verdict,
        }
    )
    return 1 if report.ruled_out else 0


def _cmd_sweep(args) -> int:
    from . import bounds as bounds_mod

    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "k", "w", "delta", "m", "lhs", "rhs", "verdict"])
    for w in range(args.w_min, args.w_max + 1):
        r = bounds_mod.thm_main_feasible(args.n, args.k, w, args.delta)
        writer.writerow(
            [
                r.n,
                r.k,
                r.w,
                format_rational(r.delta),
                r.m,
                format_rational(r.lhs),
                format_rational(r.rhs),
                r.verdict,
            ]
        )
    return 0


def _refuse_over_budget(flag: str, value: int, variable: str, limit: int):
    """Refuse a sweep flag over its frontier budget before any row is written."""
    if value > limit:
        from .oracle import BudgetError

        raise BudgetError(f"{flag} {value} is over {variable}={limit}; raise it")


def _cmd_frontier(args) -> int:
    from . import bounds as bounds_mod
    from . import oracle

    budgets = _budgets("frontier_n", "frontier_w")
    _refuse_over_budget("--n-max", args.n_max, "ROBPCOUNT_FRONTIER_N", budgets["frontier_n"])
    _refuse_over_budget("--w-max", args.w_max, "ROBPCOUNT_FRONTIER_W", budgets["frontier_w"])
    limits = {"max_n": budgets["frontier_n"], "max_w": budgets["frontier_w"]}
    columns = [oracle.frontier_column(args.n_max, w, **limits) for w in range(1, args.w_max + 1)]
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "w", "delta_num", "delta_den", "lb_num", "lb_den"])
    for n in range(1, args.n_max + 1):
        for w, column in enumerate(columns, 1):
            point = column[n]
            row = [n, w, point.delta_star.numerator, point.delta_star.denominator]
            if w >= 3:
                lb = bounds_mod.lb_small_w(n, 2, w)
                row += [lb.numerator, lb.denominator]
            else:
                row += ["", ""]
            writer.writerow(row)
    return 0


def _fuzz_one(seed: int, n: int, w: int, alphabet: Alphabet, max_inputs: int) -> str | None:
    from . import oracle
    from .labeling import compute_labels, edge_monotone, minimal_error, verify
    from .robp import validate

    p = oracle.random_robp(n, alphabet, w, seed)
    report = validate(p)
    if not report.valid:
        return f"seed {seed}: generated program failed validate: {report.violations[:3]}"
    if report.width > w:
        return f"seed {seed}: width {report.width} exceeds requested {w}"
    lp = compute_labels(p, "full")
    if not edge_monotone(lp):
        return f"seed {seed}: edge monotonicity violated"
    delta_star, _ = minimal_error(p, alphabet)
    for delta in (delta_star, delta_star + 1, delta_star - Fraction(1, 2)):
        if delta < 0:
            continue
        lab = verify(p, alphabet, delta).valid
        exh = oracle.exhaustive_verify(p, alphabet, delta, max_inputs=max_inputs)
        if lab != exh:
            return f"seed {seed}: verifier and exhaustive oracle disagree at delta={delta}"
    return None


def _cmd_fuzz(args) -> int:
    from .robp import Alphabet

    budgets = _budgets("max_inputs")
    alphabet = Alphabet(args.problem, args.k)
    limit = budgets["max_inputs"]
    # refused before a program is generated; as every alphabet has two
    # symbols or more, n is capped where size**n must exceed the limit
    if alphabet.size ** min(args.n, limit.bit_length()) > limit:
        from .oracle import BudgetError

        raise BudgetError(
            f"{alphabet.size}**{args.n} inputs are over ROBPCOUNT_MAX_INPUTS={limit}; raise it"
        )
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        problem = _fuzz_one(seed, args.n, args.w, alphabet, limit)
        if problem:
            failures += 1
            print(problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "seeds": args.seeds,
                "first_seed": args.seed,
                "n": args.n,
                "w": args.w,
                "alphabet": args.problem,
                "failures": failures,
            },
            sort_keys=True,
        )
    )
    return 0 if failures == 0 else 1


def _read_stream(path: str | None) -> list[int]:
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return [int(tok) for tok in text.split()]


def _cmd_mg(args, with_query: bool) -> int:
    from . import streaming

    stream = _read_stream(args.input)
    summary = streaming.mg_run(stream, args.k, args.U)
    out = streaming.mg_finalize(summary)
    doc = {
        "n": out.n,
        "k": out.k,
        "U": out.U,
        "elements": list(out.elements),
        "estimates": list(out.estimates),
    }
    if with_query:
        doc["query"] = args.query
        doc["estimate"] = format_rational(streaming.to_approx_counts(out, args.query))
    return _json_out(doc)


def _cmd_plot_data(args) -> int:
    from . import bounds as bounds_mod
    from . import constructions, oracle

    budgets = _budgets("frontier_n", "frontier_w")
    limits = {"max_n": budgets["frontier_n"], "max_w": budgets["frontier_w"]}
    writer = csv.writer(sys.stdout)
    writer.writerow(["series", "x", "y"])

    def emit(series: str, x, y: Fraction):
        writer.writerow([series, x, f"{float(y):.12g}"])

    if args.mode == "small-w":
        n = args.n
        for w in range(max(3, args.w_min), args.w_max + 1):
            if 10 * w > n:
                break
            emit("lower_bound", w, bounds_mod.lb_small_w(n, 2, w))
            emit("upper_bound", w, constructions.tribes_plan(n, w).error)
            if n <= budgets["frontier_n"] and w <= budgets["frontier_w"]:
                emit("oracle", w, oracle.frontier(n, w, **limits).delta_star)
    elif args.mode == "small-err":
        if args.delta_step <= 0:
            raise ValueError(f"--delta-step must be positive, got {args.delta_step}")
        if args.delta_min > args.delta_max:
            raise ValueError(
                f"empty sweep: --delta-min {args.delta_min} is above --delta-max {args.delta_max}"
            )
        n, k = args.n, args.k
        # rounded_counter's domain and the feasibility inequality's are both
        # intervals in delta, so the sweep's two ends are checked against
        # both, and a sweep that leaves either is refused before any row
        steps = (args.delta_max - args.delta_min) // args.delta_step
        for delta in (args.delta_min, args.delta_min + steps * args.delta_step):
            constructions.rounding_plan(n, k, delta)
            bounds_mod.thm_main_feasible(n, k, 1, delta)
        for step in range(steps + 1):
            delta = args.delta_min + step * args.delta_step
            upper = constructions.rounded_counter_width_bound(n, k, delta)
            emit("lower_bound", str(delta), Fraction(bounds_mod.min_consistent_width(n, k, delta)))
            emit("upper_bound", str(delta), Fraction(upper))
    else:  # frontier
        _refuse_over_budget("--n-max", args.n_max, "ROBPCOUNT_FRONTIER_N", budgets["frontier_n"])
        widths = range(1, min(args.w_max, budgets["frontier_w"]) + 1)
        columns = [oracle.frontier_column(args.n_max, w, **limits) for w in widths]
        for n in range(1, args.n_max + 1):
            for w, column in enumerate(columns, 1):
                point = column[n]
                emit("oracle", f"{n}:{w}", point.delta_star)
                if w >= 3:
                    emit("lower_bound", f"{n}:{w}", bounds_mod.lb_small_w(n, 2, w))
                    if 10 * w <= n:
                        emit("upper_bound", f"{n}:{w}", constructions.tribes_plan(n, w).error)
    return 0


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robpcount",
        description="Build, verify and audit read-once branching programs "
        "for approximate counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a program and print its serialization")
    b.add_argument("--kind", required=True, choices=["exact", "tribes", "rounded", "constant"])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--w", type=int, default=3)
    b.add_argument("--delta", type=_rational_flag, default=Fraction(10))
    b.add_argument("--value", default="0", help="constant outputs, comma-separated rationals")
    b.add_argument("--tribes-outputs", choices=["symmetric", "optimal"], default="symmetric")
    b.add_argument("-o", "--output", default=None)

    v = sub.add_parser("validate", help="structural validation report")
    v.add_argument("-i", "--input", default=None)

    ver = sub.add_parser("verify", help="exact correctness certificate")
    ver.add_argument("-i", "--input", default=None)
    ver.add_argument("--problem", choices=["binary", "counter", "parallel"], required=True)
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--delta", type=_rational_flag, required=True)

    lab = sub.add_parser("labels", help="per-vertex rectangle labels as CSV")
    lab.add_argument("-i", "--input", default=None)
    lab.add_argument("--mode", choices=["full", "potential"], default="full")

    aud = sub.add_parser("audit", help="potential growth/final audit as CSV")
    aud.add_argument("-i", "--input", default=None)
    aud.add_argument("--family", choices=["counter", "parallel"], default="counter")
    aud.add_argument("--check", choices=["growth", "final", "both"], default="growth")
    aud.add_argument("--delta", type=_rational_flag, default=None)

    bo = sub.add_parser("bounds", help="feasibility inequality report")
    bo.add_argument("--n", type=int, required=True)
    bo.add_argument("--k", type=int, required=True)
    bo.add_argument("--w", type=int, required=True)
    bo.add_argument("--delta", type=_rational_flag, required=True)

    sw = sub.add_parser("sweep", help="feasibility verdicts over a width range")
    sw.add_argument("--n", type=int, required=True)
    sw.add_argument("--k", type=int, required=True)
    sw.add_argument("--delta", type=_rational_flag, required=True)
    sw.add_argument("--w-min", type=int, default=1)
    sw.add_argument("--w-max", type=int, required=True)

    fr = sub.add_parser("frontier", help="exact width/error frontier as CSV")
    fr.add_argument("--n-max", type=int, required=True)
    fr.add_argument("--w-max", type=int, required=True)

    fz = sub.add_parser("fuzz", help="random-program property check")
    fz.add_argument("--seeds", type=int, default=100)
    fz.add_argument("--seed", type=int, default=0, help="first seed")
    fz.add_argument("--n", type=int, default=6)
    fz.add_argument("--w", type=int, default=3)
    fz.add_argument("--problem", choices=["binary", "counter", "parallel"], default="binary")
    fz.add_argument("--k", type=int, default=2)

    mg = sub.add_parser("mg", help="Misra-Gries heavy hitters over a stream")
    mg.add_argument("--k", type=int, required=True)
    mg.add_argument("--U", type=int, required=True)
    mg.add_argument("-i", "--input", default=None)

    mq = sub.add_parser("mg-query", help="heavy hitters plus one frequency estimate")
    mq.add_argument("--k", type=int, required=True)
    mq.add_argument("--U", type=int, required=True)
    mq.add_argument("--query", type=int, required=True)
    mq.add_argument("-i", "--input", default=None)

    pd = sub.add_parser("plot-data", help="envelope curves as (series, x, y) CSV")
    pd.add_argument("--mode", choices=["small-w", "small-err", "frontier"], required=True)
    pd.add_argument("--n", type=int, default=100)
    pd.add_argument("--k", type=int, default=2)
    pd.add_argument("--n-max", type=int, default=8)
    pd.add_argument("--w-min", type=int, default=3)
    pd.add_argument("--w-max", type=int, default=10)
    pd.add_argument("--delta-min", type=_rational_flag, default=Fraction(10))
    pd.add_argument("--delta-max", type=_rational_flag, default=Fraction(20))
    pd.add_argument("--delta-step", type=_rational_flag, default=Fraction(1))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "validate": _cmd_validate,
        "verify": _cmd_verify,
        "labels": _cmd_labels,
        "audit": _cmd_audit,
        "bounds": _cmd_bounds,
        "sweep": _cmd_sweep,
        "frontier": _cmd_frontier,
        "fuzz": _cmd_fuzz,
        "mg": lambda a: _cmd_mg(a, with_query=False),
        "mg-query": lambda a: _cmd_mg(a, with_query=True),
        "plot-data": _cmd_plot_data,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    """The console entry point: main(), then the end of stdout, then exit.

    stdout is flushed and its descriptor pointed at the null device here,
    which closes a pipe to the next command, instead of at the
    interpreter's teardown: that takes about 18 ms once numpy is loaded, and
    the next command, already waiting for the end of its input, starts that
    much sooner. A reader that has gone away makes the flush fail, which is
    reported as an error (exit status 2)."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        status = 2
    with open(os.devnull, "wb") as null:
        os.dup2(null.fileno(), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    run()
