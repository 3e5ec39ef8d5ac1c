import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from robpcount import (
    Robp,
    binary_alphabet,
    compute_labels,
    constant_program,
    counter_alphabet,
    exact_counter,
    exhaustive_verify,
    minimal_error,
    parallel_alphabet,
    random_robp,
    rounded_counter,
    tribes,
    tribes_plan,
    verify,
)
from robpcount.labeling import edge_monotone


def brute_labels(p, problem):
    """Exhaustively enumerate prefixes and collect per-vertex count ranges."""
    size = p.alphabet.size
    arity = problem.arity
    out = []
    for t in range(p.n + 1):
        per_vertex = {}
        for prefix in itertools.product(range(size), repeat=t):
            cur = 0
            for i, sym in enumerate(prefix):
                cur = int(p.edge_array(i)[cur, sym])
            counts = _counts(prefix, problem)
            per_vertex.setdefault(cur, []).append(counts)
        layer = {}
        for v, rows in per_vertex.items():
            lo = tuple(min(r[j] for r in rows) for j in range(arity))
            hi = tuple(max(r[j] for r in rows) for j in range(arity))
            layer[v] = (lo, hi)
        out.append(layer)
    return out


def _counts(prefix, problem):
    if problem.kind == "counter":
        return tuple(sum(1 for s in prefix if s == j) for j in range(problem.k))
    if problem.kind == "binary":
        return (sum(prefix),)
    return tuple(sum((s >> j) & 1 for s in prefix) for j in range(problem.k))


def test_exact_counter_full_labels():
    lp = compute_labels(exact_counter(2, 2), "full")
    finals = {lp.label(2, v) for v in range(3)}
    assert {(lab.lo, lab.hi) for lab in finals} == {
        ((0, 2), (0, 2)),
        ((1, 1), (1, 1)),
        ((2, 0), (2, 0)),
    }


def test_constant_program_interval_grows():
    lp = compute_labels(constant_program(5, Fraction(0)), "full")
    for t in range(6):
        assert lp.label(t, 0).lo == (0,)
        assert lp.label(t, 0).hi == (t,)


def test_tribes_accept_label_meets_threshold():
    n, w = 100, 3
    p = tribes(n, w)
    plan = tribes_plan(n, w)
    lp = compute_labels(p, "full")
    accept_value = max(p.output_tuple(v)[0] for v in range(p.layer_sizes[-1]))
    accept = [v for v in range(p.layer_sizes[-1]) if p.output_tuple(v)[0] == accept_value]
    assert len(accept) == 1
    assert lp.label(n, accept[0]).lo[0] >= plan.l * plan.threshold


def test_labels_match_prefix_enumeration():
    rng = random.Random(11)
    for seed in range(40):
        problem = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        n = rng.randint(0, 6)
        p = random_robp(n, problem, rng.randint(1, 4), seed)
        lp = compute_labels(p, "full")
        expected = brute_labels(p, problem)
        for t in range(n + 1):
            for v, (lo, hi) in expected[t].items():
                lab = lp.label(t, v)
                assert lab.lo == lo and lab.hi == hi, (seed, t, v)


def test_edge_monotonicity():
    for seed in range(30):
        problem = [binary_alphabet(), counter_alphabet(2), parallel_alphabet(2)][seed % 3]
        p = random_robp(seed % 8, problem, 4, seed)
        assert edge_monotone(compute_labels(p, "full"))
        if problem.kind != "parallel":
            assert edge_monotone(compute_labels(p, "potential"))


def test_potential_mode_drops_last_letter():
    programs = [exact_counter(3, 3)]
    programs += [
        random_robp(6, problem, 4, seed)
        for seed, problem in enumerate(
            [counter_alphabet(2), counter_alphabet(3), binary_alphabet()] * 3
        )
    ]
    programs.append(rounded_counter(100, 4, 10))  # 3 of 4 columns copied out
    for p in programs:
        lp = compute_labels(p, "potential")
        full = compute_labels(p, "full")
        d = lp.potential_k - 1
        assert lp.dims == d
        for t in range(p.n + 1):
            for a, b in ((lp.lo[t], full.lo[t]), (lp.hi[t], full.hi[t])):
                assert a.dtype == b.dtype and a.flags.c_contiguous
                assert np.array_equal(a, b[:, :d])


def test_parallel_programs_have_no_potential_labels():
    p = random_robp(3, parallel_alphabet(2), 2, 0)
    with pytest.raises(ValueError, match="only the full"):
        compute_labels(p, "potential")
    with pytest.raises(ValueError, match="unknown label mode"):
        compute_labels(p, "half")


def test_verify_exact_counter_at_zero():
    assert verify(exact_counter(5, 3), counter_alphabet(3), 0).valid


def test_verify_constant_program_threshold():
    p = constant_program(10, Fraction(5))
    assert verify(p, binary_alphabet(), 5).valid
    cert = verify(p, binary_alphabet(), Fraction(9, 2))
    assert not cert.valid
    assert cert.max_halfwidth == 5
    assert cert.worst is not None and cert.worst[2] == Fraction(1, 2)


def test_verify_tribes_at_paper_error():
    assert verify(tribes(100, 4), binary_alphabet(), 49).valid


def test_verify_rejects_mismatched_problem():
    p = exact_counter(3, 2)
    with pytest.raises(ValueError):
        verify(p, counter_alphabet(3), 0)
    with pytest.raises(ValueError):
        verify(p, binary_alphabet(), 0)


@pytest.mark.parametrize("problem", ["counter", None, 3, ("counter", 3)])
def test_a_problem_that_is_not_an_alphabet_is_refused(problem):
    p = exact_counter(3, 3)
    kind = type(problem).__name__
    with pytest.raises(ValueError, match=f"problem must be an Alphabet, not {kind}"):
        verify(p, problem, 10)
    with pytest.raises(ValueError, match=f"problem must be an Alphabet, not {kind}"):
        minimal_error(p, problem)


def test_verify_rejects_wrong_arity():
    p = constant_program(2, (Fraction(1), Fraction(1)), alphabet=binary_alphabet())
    with pytest.raises(ValueError, match="arity"):
        verify(p, binary_alphabet(), 1)


def test_minimal_error_values():
    assert minimal_error(exact_counter(6, 2), counter_alphabet(2))[0] == 0
    assert minimal_error(constant_program(9, Fraction(0)), binary_alphabet())[0] == Fraction(9, 2)


def test_minimal_error_is_tight():
    rng = random.Random(3)
    for seed in range(25):
        problem = [binary_alphabet(), counter_alphabet(2)][seed % 2]
        p = random_robp(rng.randint(1, 7), problem, 3, seed)
        delta_star, outputs = minimal_error(p, problem)
        best = Robp(p.n, p.alphabet, p.layer_sizes, p.edges, outputs)
        assert verify(best, problem, delta_star).valid
        if delta_star > 0:
            assert not verify(best, problem, delta_star - Fraction(1, 2)).valid


def test_tribes_minimal_error_beats_formula():
    # construction quality: (n - 2*delta)^2 * 100 >= n*w means
    # delta <= n/2 - sqrt(nw)/20
    n, w = 100, 10
    delta, _ = minimal_error(tribes(n, w), binary_alphabet())
    gap = Fraction(n) - 2 * delta
    assert gap >= 0 and gap * gap * 100 >= n * w


def prepend_exact_first_symbol(p):
    """Fan out on the first symbol, then run a disjoint copy of p per symbol."""
    size = p.alphabet.size
    edges = [[[s for s in range(size)]]]
    for t in range(p.n):
        rows = []
        for copy in range(size):
            for u in range(p.layer_sizes[t]):
                base = p.layer_sizes[t + 1] * copy
                rows.append([base + int(p.edge_array(t)[u, z]) for z in range(size)])
        edges.append(rows)
    outputs = []
    for copy in range(size):
        shift = _counts((copy,), p.alphabet)
        for v in range(p.layer_sizes[p.n]):
            outputs.append(tuple(o + s for o, s in zip(p.output_tuple(v), shift)))
    return Robp.build(p.alphabet, edges, outputs)


def test_minimal_error_monotone_under_exact_prefix():
    rng = random.Random(5)
    for seed in range(15):
        problem = [binary_alphabet(), counter_alphabet(2), parallel_alphabet(2)][seed % 3]
        p = random_robp(rng.randint(1, 5), problem, 3, seed)
        composite = prepend_exact_first_symbol(p)
        assert minimal_error(composite, problem)[0] <= minimal_error(p, problem)[0]


def test_verify_agrees_with_exhaustive_small():
    rng = random.Random(17)
    for seed in range(60):
        problem = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        n = rng.randint(1, 6)
        p = random_robp(n, problem, rng.randint(1, 4), seed)
        delta_star, _ = minimal_error(p, problem)
        for shift in (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(2)):
            delta = delta_star + shift
            if delta < 0:
                continue
            assert verify(p, problem, delta).valid == exhaustive_verify(p, problem, delta)


def test_a_program_without_edge_layers_builds_no_shift_table():
    # Alphabet.shifts would be 2**40 rows of 40 columns: 8 TiB of int32
    problem = parallel_alphabet(40)
    p = Robp.build(problem, [], [(Fraction(1, 2),) * 40])
    assert verify(p, problem, Fraction(1, 2)).valid
    assert not verify(p, problem, 0).valid
    delta, outputs = minimal_error(p, problem)
    assert delta == 0 and outputs.rows() == [(Fraction(0),) * 40]
    lp = compute_labels(p)
    assert lp.dims == 40 and edge_monotone(lp)
    assert exhaustive_verify(p, problem, Fraction(1, 2))
    assert not exhaustive_verify(p, problem, 0)


def test_degenerate_zero_length_program():
    p = constant_program(0, Fraction(0))
    lp = compute_labels(p, "full")
    assert lp.label(0, 0).lo == (0,) and lp.label(0, 0).hi == (0,)
    assert verify(p, binary_alphabet(), 0).valid


def test_verify_with_huge_rationals_stays_exact():
    huge = Fraction(2**80 + 1, 2**81)  # 1/2 + 2^-81, off the midpoint by a sliver
    p = constant_program(1, huge)
    cert = verify(p, binary_alphabet(), Fraction(1, 2))
    assert not cert.valid  # |huge - 0| exceeds 1/2 by exactly 2^-81
    assert cert.max_halfwidth == huge
    assert verify(p, binary_alphabet(), Fraction(1, 2) + Fraction(1, 2**81)).valid
    assert exhaustive_verify(p, binary_alphabet(), Fraction(1, 2) + Fraction(1, 2**81))
    assert not exhaustive_verify(p, binary_alphabet(), Fraction(1, 2))


def test_labeled_robp_rejects_wrong_layer_counts():
    from robpcount import LabeledRobp

    lp = compute_labels(exact_counter(3, 2), "full")
    assert LabeledRobp(lp.p, lp.lo, lp.hi).dims == 2
    for lo, hi in (([], []), (lp.lo[:-1], lp.hi), (lp.lo, lp.hi + lp.hi[-1:])):
        with pytest.raises(ValueError, match="malformed rectangle arrays: "):
            LabeledRobp(lp.p, lo, hi)


def test_labeled_robp_rejects_malformed_rectangles():
    from robpcount import LabeledRobp

    counter = compute_labels(random_robp(6, counter_alphabet(3), 3, 2), "potential")
    parallel = compute_labels(random_robp(20, parallel_alphabet(2), 3, 2), "full")
    for lp in (counter, parallel):
        t = lp.p.n
        for edit in ("inverted", "far inverted", "negative", "shape", "columns", "layers"):
            lo = [a.copy() for a in lp.lo]
            hi = [a.copy() for a in lp.hi]
            if edit == "inverted":  # a width of 0
                hi[t][0, 0] = lo[t][0, 0] - 1
            elif edit == "far inverted":  # a negative width
                hi[t][0, 1] = lo[t][0, 1] - 3
            elif edit == "negative":
                lo[t][0, 0] = -1
            elif edit == "shape":
                hi[t] = hi[t][:-1]
            elif edit == "columns":
                lo[t], hi[t] = lo[t][:, :-1], hi[t][:, :-1]
            else:
                lo, hi = lo[:-1], hi[:-1]
            with pytest.raises(ValueError, match="malformed rectangle"):
                LabeledRobp(lp.p, lo, hi)


def test_labeled_robp_freezes_its_labels():
    from robpcount import LabeledRobp, profile_counter

    lp = compute_labels(random_robp(8, counter_alphabet(3), 4, 5), "potential")
    phi = profile_counter(lp).phi_values
    assert phi[6] == 56
    with pytest.raises(ValueError, match="read-only"):
        lp.lo[6][0, 0] = -3
    with pytest.raises(TypeError):
        lp.lo[6] = lp.lo[6] - 3
    for name in LabeledRobp.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(lp, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(lp, name)
    # writeable arrays handed in are copied, so the caller's stay writeable
    # and changing them afterwards leaves the labels as checked
    lo, hi = [a.copy() for a in lp.lo], [a.astype(np.int64) for a in lp.hi]
    copy = LabeledRobp(lp.p, lo, hi)
    lo[6][0, 0] = -3
    hi[6][:] = 0
    assert profile_counter(copy).phi_values == phi
    # lo int16 and hi int64: both are kept as int32
    assert all(a.dtype == np.int32 and not a.flags.writeable for a in copy.lo + copy.hi)
    assert all(a is b for a, b in zip(LabeledRobp(lp.p, lp.lo, lp.hi).lo, lp.lo))
    assert profile_counter(pickle.loads(pickle.dumps(lp))).phi_values == phi
    with pytest.raises(ValueError, match="integers"):
        LabeledRobp(lp.p, lp.lo, [a.astype(float) for a in lp.hi])
    with pytest.raises(ValueError, match="int32"):
        LabeledRobp(lp.p, lp.lo, [a.astype(np.int64) + 2**31 for a in lp.hi])


def test_compute_labels_builds_what_the_checked_constructor_keeps(numpy_kernels):
    from robpcount import LabeledRobp

    programs = [exact_counter(6, 3), random_robp(9, counter_alphabet(3), 4, 1),
                random_robp(7, parallel_alphabet(2), 3, 2), random_robp(12, binary_alphabet(), 3, 3)]
    for numpy_path in (False, True):
        if numpy_path:
            numpy_kernels()
        for p in programs:
            for mode in ("full", "potential") if p.alphabet.kind != "parallel" else ("full",):
                lp = compute_labels(p, mode)
                checked = LabeledRobp(p, lp.lo, lp.hi)  # raises on any malformed layer
                for name in LabeledRobp.__slots__:
                    assert getattr(checked, name) == getattr(lp, name) or name in ("lo", "hi")
                # the checked constructor keeps the frozen arrays as they are
                assert all(a is b for a, b in zip(checked.lo + checked.hi, lp.lo + lp.hi))
                assert type(lp.lo) is type(lp.hi) is tuple


def test_one_program_is_validated_once(monkeypatch):
    from robpcount import audit_final_counter, profile_counter
    from robpcount import robp as robp_module

    calls = []
    build_report = robp_module._build_report
    monkeypatch.setattr(
        robp_module, "_build_report", lambda p: calls.append(p) or build_report(p)
    )
    p = exact_counter(6, 3)
    problem = counter_alphabet(3)
    assert verify(p, problem, 0).valid
    assert minimal_error(p, problem)[0] == 0
    compute_labels(p, "full")
    lp = compute_labels(p, "potential")
    assert audit_final_counter(lp, 0, profile_counter(lp)).overall_pass
    assert calls == [p]


def _leaves(sizes, rows, outputs):
    return Robp(1, binary_alphabet(), sizes, [rows], [(Fraction(v),) for v in outputs])


@pytest.mark.parametrize(
    "p, violation",
    [
        pytest.param(_leaves([1, 3], [[0, 1]], [0, 1, 2]), "unreachable", id="unreachable"),
        pytest.param(
            _leaves([1, 2], [[0, 2]], [0, 1]), "edge target outside next layer", id="target"
        ),
        pytest.param(_leaves([1, 2], [[0, 1, 1]], [0, 1]), "out-degree 3", id="ragged-row"),
        pytest.param(_leaves([1, 2], [[0, 1]], [0, 1, 2]), "3 output tuples", id="outputs"),
    ],
)
def test_consumers_refuse_an_invalid_program(p, violation):
    problem = binary_alphabet()
    consumers = [
        lambda: verify(p, problem, 1),
        lambda: minimal_error(p, problem),
        lambda: compute_labels(p, "full"),
        lambda: compute_labels(p, "potential"),
    ]
    for consume in consumers:
        with pytest.raises(ValueError, match=f"program is invalid: .*{violation}"):
            consume()


def _shared_pass_programs():
    """Every construction, and seeded random programs over the binary,
    counter and parallel alphabets."""
    yield "exact_counter", lambda: exact_counter(6, 3)
    yield "constant_program", lambda: constant_program(5, Fraction(5, 2))
    yield "tribes", lambda: tribes(100, 4)
    yield "tribes-optimal", lambda: tribes(100, 4, "optimal")
    yield "rounded_counter", lambda: rounded_counter(100, 3, 10)
    problems = [binary_alphabet(), counter_alphabet(2), counter_alphabet(3), parallel_alphabet(2)]
    for seed in range(8):
        problem = problems[seed % 4]
        yield (
            f"random-{problem.kind}{problem.k}-{seed}",
            lambda problem=problem, seed=seed: random_robp(3 + seed, problem, 1 + seed % 5, seed),
        )


@pytest.mark.parametrize("build", [b for _, b in _shared_pass_programs()],
                         ids=[name for name, _ in _shared_pass_programs()])
def test_verify_and_minimal_error_read_the_shared_last_layer_as_a_fresh_program(build):
    """After compute_labels in either mode or an earlier verify, a program
    keeps its DP's last layer; verify (at deltas that pass and that fail) and
    minimal_error must give exactly what a fresh program, which runs the DP
    for each call, gives. A pickled copy is fresh: random_robp and
    tribes(..., "optimal") return programs that keep the layer their
    minimal_error call left."""

    def fresh():
        return pickle.loads(pickle.dumps(build()))

    problem = fresh().alphabet
    best = minimal_error(fresh(), problem)[0]
    widest = verify(fresh(), problem, 0).max_halfwidth
    deltas = sorted({Fraction(0), best / 2, best, widest / 3, widest, widest + 1})
    expected = [verify(fresh(), problem, d) for d in deltas], minimal_error(fresh(), problem)
    assert any(c.valid for c in expected[0]) and (widest == 0 or any(c.worst for c in expected[0]))
    preludes = {
        "fresh": lambda p: None,
        "full labels": lambda p: compute_labels(p, "full"),
        "potential labels": lambda p: compute_labels(p, "potential"),
        "verify": lambda p: verify(p, problem, 1),
    }
    if problem.kind == "parallel":
        del preludes["potential labels"]
    for name, prelude in preludes.items():
        p = fresh()
        prelude(p)
        assert (p._last_labels is None) == (name == "fresh")
        got = [verify(p, problem, d) for d in deltas], minimal_error(p, problem)
        assert got == expected, name
        assert not p._last_labels.flags.writeable
    # as built: with the layer a rebuild carried over, if any
    p = build()
    assert ([verify(p, problem, d) for d in deltas], minimal_error(p, problem)) == expected


def test_a_kept_last_layer_runs_no_dp_and_is_not_pickled(monkeypatch):
    from robpcount import _kernel

    p, fresh = random_robp(9, counter_alphabet(3), 4, 1), random_robp(9, counter_alphabet(3), 4, 1)
    problem = p.alphabet
    compute_labels(p, "potential")
    kept = p._last_labels
    steps = []
    label_step = _kernel.label_step
    monkeypatch.setattr(_kernel, "label_step", lambda *a: steps.append(1) or label_step(*a))
    verify(p, problem, 1), minimal_error(p, problem)
    assert steps == [] and p._last_labels is kept
    copy = pickle.loads(pickle.dumps(p))
    assert copy._last_labels is None and copy == p == fresh
    assert pickle.dumps(p) == pickle.dumps(fresh)
    minimal_error(copy, problem)
    assert len(steps) == p.n and np.array_equal(copy._last_labels, kept)


def test_a_program_rebuilt_with_other_outputs_runs_no_second_dp(monkeypatch):
    """random_robp and tribes(..., "optimal") take minimal_error's outputs
    onto the same edges; the rebuilt program keeps the DP's last layer, and
    validates afresh, as its outputs changed."""
    from robpcount import _kernel

    steps = []
    label_step = _kernel.label_step
    monkeypatch.setattr(_kernel, "label_step", lambda *a: steps.append(1) or label_step(*a))
    for build, n in [
        (lambda: random_robp(10, counter_alphabet(3), 4, 7), 10),
        (lambda: tribes(100, 4, "optimal"), 100),
    ]:
        steps.clear()
        p = build()
        assert p._last_labels is not None and p._report is None
        assert verify(p, p.alphabet, minimal_error(p, p.alphabet)[0]).valid
        assert len(steps) == n and p._report.valid
        # the same verdict as a program built afresh, which runs its own DP
        copy = pickle.loads(pickle.dumps(p))
        assert verify(copy, p.alphabet, 0) == verify(p, p.alphabet, 0)
        assert np.array_equal(copy._last_labels, p._last_labels)


def _reference_halfwidth(p):
    """verify's max_halfwidth and first worst cell (row-major), comparing
    every output cell with its label ends as a Fraction."""
    lp = compute_labels(p, "full")
    lo, hi = lp.lo[-1].tolist(), lp.hi[-1].tolist()
    cells = [
        ((v, j), max(Fraction(hi[v][j]) - out, out - Fraction(lo[v][j])))
        for v, row in enumerate(p.output_rows())
        for j, out in enumerate(row)
    ]
    widest = max(h for _, h in cells)
    return widest, next(cell for cell, h in cells if h == widest)


def _int32_program(n=30_001, seed=3):
    """A width-2 3-counter program deep enough for the DP's int32 labels:
    vertex 0 reaches both next vertices, vertex 1 goes anywhere."""
    rng = np.random.default_rng(seed)
    edges = [np.array([[0, 1, 1]], dtype=np.int32)]
    for _ in range(n - 1):
        edges.append(np.array([rng.permutation([0, 1, 1]), rng.integers(0, 2, size=3)], np.int32))
    return Robp.build(counter_alphabet(3), edges, [(Fraction(0),) * 3] * 2)


@pytest.mark.parametrize("denominators", [(2, 3, 7), (2**15 + 3, 3, 1)], ids=["int64", "object"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, "int32"])
def test_verify_takes_the_widest_halfwidth_over_mixed_denominators(denominators, seed):
    rng = random.Random(seed)
    base = _int32_program() if seed == "int32" else random_robp(6, counter_alphabet(3), 4, seed)
    outputs = [
        tuple(
            Fraction(5, 7) if rng.random() < 0.2 else Fraction(rng.randint(0, 12), rng.choice(denominators))
            for _ in range(3)
        )
        for _ in range(base.layer_sizes[-1])
    ]
    outputs[0] = (Fraction(1, denominators[0]), Fraction(1, 3), Fraction(5, 7))
    p = Robp(base.n, base.alphabet, base.layer_sizes, base.edges, outputs)
    big = max(f.denominator for row in outputs for f in row) > 2**15
    assert big == (denominators[0] > 2**15)
    widest, (v, j) = _reference_halfwidth(p)
    assert p._last_labels.dtype == (np.int32 if seed == "int32" else np.int16)
    for delta in (Fraction(0), widest / 2, widest - Fraction(1, 11), widest):
        cert = verify(p, p.alphabet, delta)
        assert cert.max_halfwidth == widest and cert.valid == (widest <= delta)
        assert cert.worst == (None if cert.valid else (v, j, widest - delta))


def test_verify_does_not_import_numpy_ma():
    """np.unique imports numpy.ma on its first call, 13-17 ms of every fresh
    verify, audit and fuzz process; verify takes its denominators from a
    bincount instead."""
    code = (
        "import sys; import robpcount as rc\n"
        "p = rc.exact_counter(4, 2)\n"
        "assert rc.verify(p, p.alphabet, 0).valid\n"
        "assert rc.verify(p, p.alphabet, 0).valid\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
