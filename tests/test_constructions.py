import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from robpcount import (
    binary_alphabet,
    compute_labels,
    constant_program,
    counter_alphabet,
    evaluate,
    exact_counter,
    minimal_error,
    profile_counter,
    rounded_counter,
    rounded_counter_width_bound,
    rounding_plan,
    tribes,
    tribes_plan,
    validate,
    verify,
    write_robp,
)
from robpcount.constructions import (
    WidthBudgetError,
    _binom_table,
    _rank,
    _round_vectors,
    _s_columns,
)
from robpcount.robp import RationalTable


def test_exact_counter_shape():
    p = exact_counter(3, 2)
    assert validate(p).layer_sizes == (1, 2, 3, 4)
    finals = {p.output_tuple(v) for v in range(4)}
    assert finals == {
        (Fraction(0), Fraction(3)),
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(1)),
        (Fraction(3), Fraction(0)),
    }


def test_exact_counter_final_width_three_symbols():
    p = exact_counter(4, 3)
    assert p.layer_sizes[-1] == 15  # compositions of 4 into 3 parts


def test_exact_counter_outputs_are_true_counts():
    rng = random.Random(2)
    for n, k in [(5, 2), (4, 3), (3, 4)]:
        p = exact_counter(n, k)
        for _ in range(40):
            x = [rng.randrange(k) for _ in range(n)]
            out, _ = evaluate(p, x)
            assert out == tuple(Fraction(x.count(j)) for j in range(k))


def test_exact_counter_verifies_at_zero():
    for n, k in [(5, 3), (8, 2), (6, 4)]:
        p = exact_counter(n, k)
        assert p.width == math.comb(n + k - 1, k - 1)
        assert verify(p, counter_alphabet(k), 0).valid


def test_exact_counter_width_budget():
    with pytest.raises(WidthBudgetError):
        exact_counter(100, 4, max_width=1000)


def test_constant_program_cases():
    p = constant_program(10, Fraction(5))
    delta, outputs = minimal_error(p, binary_alphabet())
    assert delta == 5 and outputs.rows() == [(Fraction(5),)]
    assert validate(constant_program(0, Fraction(0))).valid


def test_tribes_plan_layout():
    plan = tribes_plan(30, 3)
    assert plan.l == 3
    assert plan.breakpoints == (0, 10, 20, 30)
    assert plan.threshold == 1
    plan = tribes_plan(100, 4)
    assert plan.l == 5
    lens = [b - a for a, b in zip(plan.breakpoints, plan.breakpoints[1:])]
    assert sorted(lens) == [20, 20, 20, 20, 20]
    plan = tribes_plan(103, 4)
    lens = [b - a for a, b in zip(plan.breakpoints, plan.breakpoints[1:])]
    assert max(lens) - min(lens) == 1 and sum(lens) == 103


def test_tribes_preconditions():
    with pytest.raises(ValueError):
        tribes(20, 3)  # w > n/10
    with pytest.raises(ValueError):
        tribes(100, 2)


def test_tribes_computes_segment_thresholds():
    n, w = 30, 3
    p = tribes(n, w)
    plan = tribes_plan(n, w)
    accept = Fraction(n) / 2 + Fraction(plan.gap, 2)
    rng = random.Random(13)
    cases = [[1] * n, [0] * n]
    for _ in range(60):
        cases.append([rng.randrange(2) for _ in range(n)])
    # one 1 in every segment except the last
    x = [0] * n
    for a in plan.breakpoints[:-2]:
        x[a] = 1
    cases.append(x)
    for x in cases:
        expected = all(
            sum(x[a:b]) >= plan.threshold
            for a, b in zip(plan.breakpoints, plan.breakpoints[1:])
        )
        out, _ = evaluate(p, x)
        assert (out[0] == accept) == expected


def test_tribes_all_ones_hits_accept_value():
    p = tribes(40, 4)
    plan = tribes_plan(40, 4)
    out, _ = evaluate(p, [1] * 40)
    assert out == (Fraction(40, 2) + Fraction(plan.gap, 2),)
    out, _ = evaluate(p, [0] * 40)
    assert out == (Fraction(40, 2) - Fraction(plan.gap, 2),)


def test_tribes_width_and_verification_grid():
    for n, w in [(100, 4), (100, 10), (320, 5), (2000, 7), (1000, 3)]:
        p = tribes(n, w)
        rep = validate(p)
        assert rep.valid and rep.width <= w
        plan = tribes_plan(n, w)
        delta = Fraction(n) / 2 - Fraction(plan.gap, 2)
        assert verify(p, binary_alphabet(), delta).valid
        # the guarantee is at least as strong as n/2 - sqrt(nw)/20
        assert 100 * plan.gap * plan.gap >= n * w


def test_tribes_optimal_outputs_mode():
    p = tribes(100, 4, outputs="optimal")
    delta_star, _ = minimal_error(p, binary_alphabet())
    assert verify(p, binary_alphabet(), delta_star).valid
    symmetric = tribes(100, 4, outputs="symmetric")
    fixed_delta = Fraction(100, 2) - Fraction(tribes_plan(100, 4).gap, 2)
    assert verify(symmetric, binary_alphabet(), fixed_delta).valid
    assert delta_star <= fixed_delta


def test_rounding_plan_values():
    plan = rounding_plan(100, 2, 10)
    assert plan.l == 5 and plan.m == 29
    assert plan.target_sum == (plan.l - 1) * (100 - plan.m) // plan.l


def test_rounding_rule_brackets_and_sum():
    rng = random.Random(4)
    for k in (2, 3, 4):
        plan = rounding_plan(120 * k, k, 12)
        total = 120 * k - plan.m
        rows = []
        for _ in range(50):
            cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
            rows.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [total])))
        rounded = _round_vectors(np.array(rows), plan.l, plan.target_sum).tolist()
        for a, b in zip(rows, rounded):
            assert sum(b) == plan.target_sum
            for aj, bj in zip(a, b):
                scaled = Fraction(plan.l - 1, plan.l) * aj
                assert math.floor(scaled) <= bj <= math.ceil(scaled)


def _sum_vectors(total, k):
    """All count vectors of length k and sum `total`, as an int64 array."""
    if k == 1:
        return np.array([[total]], dtype=np.int64)
    parts = []
    for first in range(total + 1):
        rest = _sum_vectors(total - first, k - 1)
        parts.append(np.column_stack([np.full(len(rest), first), rest]))
    return np.concatenate(parts)


def test_rounding_is_onto_the_rounded_layer():
    # rounded_counter's phase 2 starts from the full layer of sum s only
    # because of this: every vector of sum s is the rounding of one of sum N
    for k in (2, 3, 4, 5):
        vectors = [_sum_vectors(total, k) for total in range((24 if k == 5 else 40) + 1)]
        binom = _binom_table(40 + k, k - 1)
        for l in range(2, 12):
            for total, a in enumerate(vectors):
                s = (l - 1) * total // l
                b = _round_vectors(a, l, s)
                assert b.min() >= 0
                hit = np.zeros(math.comb(s + k - 1, k - 1), dtype=bool)
                hit[_rank(_s_columns(b, s), binom)] = True
                assert hit.all(), (k, l, total)


def test_rounded_counter_verifies():
    for n, k, delta in [(100, 2, 10), (100, 3, 10), (150, 2, Fraction(25, 2))]:
        p = rounded_counter(n, k, delta)
        rep = validate(p)
        assert rep.valid
        assert rep.width == p.width == rounded_counter_width_bound(n, k, delta)
        cert = verify(p, counter_alphabet(k), delta)
        assert cert.valid
        plan = rounding_plan(n, k, delta)
        assert cert.max_halfwidth <= Fraction(plan.l + plan.m, plan.l - 1)


def test_rounded_counter_boundary_regime():
    # delta = 10 forces n >= 100 (the preconditions meet at delta = n/10)
    for k in (2, 3, 4):
        p = rounded_counter(100, k, 10)
        assert validate(p).valid
        assert p.width == rounded_counter_width_bound(100, k, 10)
        assert verify(p, counter_alphabet(k), 10).valid


def test_rounded_counter_outputs_scaled():
    p = rounded_counter(100, 2, 10)
    plan = rounding_plan(100, 2, 10)
    x = [0] * 100
    out, _ = evaluate(p, x)
    # all-zero input: first counter saturates, outputs are l/(l-1) * tuple
    assert out[0].denominator in (1, plan.l - 1)
    assert out[0] + out[1] == Fraction(plan.l, plan.l - 1) * (plan.target_sum + plan.m)


def test_rounded_counter_error_chain_sampled_inputs():
    # direct input-level check, independent of the label-based verifier
    n, k, delta = 100, 3, 10
    p = rounded_counter(n, k, delta)
    rng = random.Random(8)
    cases = [[0] * n, [k - 1] * n, [i % k for i in range(n)]]
    for _ in range(200):
        cases.append([rng.randrange(k) for _ in range(n)])
    for x in cases:
        out, _ = evaluate(p, x)
        for j in range(k):
            assert abs(out[j] - x.count(j)) <= delta


def test_rounded_counter_preconditions():
    with pytest.raises(ValueError):
        rounded_counter(100, 2, 5)  # delta < 10
    with pytest.raises(ValueError):
        rounded_counter(100, 2, 11)  # delta > n/10
    with pytest.raises(ValueError):
        rounded_counter(15, 2, 10)  # n < 10k


def test_exact_roundtrip_serialization():
    from robpcount import read_robp, write_robp

    for n, k in [(6, 2), (4, 3)]:
        p = exact_counter(n, k)
        assert read_robp(write_robp(p)) == p


class _ReferenceColex:
    """The per-layer construction the shared colex table replaced: each
    layer's S-columns are scattered into the next layer through its edges."""

    def __init__(self, k: int, max_s: int):
        tab = _binom_table(max_s + k + 2, k)
        self.k = k
        self.cols = [np.ascontiguousarray(tab[:, i]) for i in range(k)]
        # step[sym][i] = 1 iff letter sym+1 bumps partial sum i+1
        self.steps = [
            np.array([1 if i + 1 >= k - sym else 0 for i in range(k - 1)], np.int32)
            for sym in range(k)
        ]

    def symbol_targets(self, s_arr):
        k = self.k
        rank = self.cols[1][s_arr[:, 0]]
        for i in range(2, k):
            rank = rank + self.cols[i][s_arr[:, i - 1]]
        targets = [rank]
        running = self.cols[k - 2][s_arr[:, k - 2]]
        for sym in range(1, k):
            targets.append(rank + running)
            if sym < k - 1:
                running = running + self.cols[k - 2 - sym][s_arr[:, k - 2 - sym]]
        return targets

    def stack(self, targets):
        out = np.empty((len(targets[0]), len(targets)), dtype=np.int32)
        for sym, col in enumerate(targets):
            out[:, sym] = col
        return out

    def advance(self, s_arr, targets, next_size):
        nxt = np.empty((next_size, self.k - 1), dtype=np.int32)
        for sym in range(self.k):
            nxt[targets[sym]] = s_arr + self.steps[sym]
        return nxt

    def vectors(self, s_arr, total):
        k = self.k
        d = np.empty((len(s_arr), k), dtype=np.int32)
        d[:, 0] = s_arr[:, 0]
        for i in range(1, k - 1):
            d[:, i] = s_arr[:, i] - s_arr[:, i - 1] - 1
        d[:, k - 1] = total - (s_arr[:, k - 2] - (k - 2))
        return d[:, ::-1].copy()

    def s_columns(self, vecs, total):
        k = self.k
        out = np.empty((len(vecs), k - 1), dtype=np.int32)
        prefix = np.zeros(len(vecs), dtype=np.int32)
        prefixes = []
        for j in range(k - 1):
            prefix = prefix + vecs[:, j]
            prefixes.append(prefix)
        for i in range(1, k):
            out[:, i - 1] = total - prefixes[k - i - 1] + (i - 1)
        return out

    def start(self):
        return np.arange(self.k - 1, dtype=np.int32)[None, :]


def _reference_exact(n, k):
    """exact_counter's edge layers, one at a time, then its outputs."""
    cx = _ReferenceColex(k, n)
    s_arr = cx.start()
    for t in range(n):
        targets = cx.symbol_targets(s_arr)
        yield cx.stack(targets)
        s_arr = cx.advance(s_arr, targets, math.comb(t + k, k - 1))
    vecs = cx.vectors(s_arr, n).astype(np.int64)
    yield RationalTable(vecs, np.ones(vecs.shape, np.int64))


def _reference_rounded(n, k, delta):
    """rounded_counter's edge layers, one at a time, then its outputs."""
    plan = rounding_plan(n, k, delta)
    l, m, s = plan.l, plan.m, plan.target_sum
    cx = _ReferenceColex(k, n)
    s_arr = cx.start()
    for t in range(n - m):
        targets = cx.symbol_targets(s_arr)
        yield cx.stack(targets)
        s_arr = cx.advance(s_arr, targets, math.comb(t + k, k - 1))
    b = _round_vectors(cx.vectors(s_arr, n - m), l, s)
    full_sizes = [math.comb(s + j + k - 1, k - 1) for j in range(1, m + 1)]
    sb = cx.s_columns(b, s)
    tb = cx.symbol_targets(sb)
    trans = cx.stack(tb)
    phase2 = []
    s_arr = cx.advance(sb, tb, full_sizes[0])
    for j in range(1, m):
        targets = cx.symbol_targets(s_arr)
        phase2.append(cx.stack(targets))
        s_arr = cx.advance(s_arr, targets, full_sizes[j])
    vecs = cx.vectors(s_arr, s + m)
    masks = [np.zeros(full_sizes[0], dtype=bool)]
    masks[0][trans] = True
    for j in range(1, m):
        nxt = np.zeros(full_sizes[j], dtype=bool)
        nxt[phase2[j - 1][masks[j - 1]]] = True
        masks.append(nxt)
    remaps = [np.cumsum(mk, dtype=np.int64).astype(np.int32) - 1 for mk in masks]
    yield remaps[0][trans]
    for j in range(1, m):
        yield remaps[j][phase2[j - 1][masks[j - 1]]]
    vecs = vecs[masks[-1]].astype(np.int64)
    yield RationalTable(vecs * l, np.full(vecs.shape, l - 1, dtype=np.int64))


def _assert_same_as_reference(p, reference):
    """Layer by layer, so the reference never holds more than the old
    construction held at once."""
    for t, want in zip(range(p.n), reference):
        got = p.edges[t]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), t
        assert np.array_equal(got, want), t
    assert next(reference) == p.outputs
    assert next(reference, None) is None


def test_exact_counter_equals_the_per_layer_reference():
    for k in (2, 3, 4, 5):
        for n in range(10 if k < 5 else 8):
            _assert_same_as_reference(exact_counter(n, k), _reference_exact(n, k))


@pytest.mark.parametrize("n, k, delta", [(100, 2, 10), (100, 3, 10), (100, 4, 10), (200, 4, 10)])
def test_rounded_counter_equals_the_per_layer_reference(n, k, delta):
    _assert_same_as_reference(rounded_counter(n, k, delta), _reference_rounded(n, k, delta))


def _edge_digest(p):
    h = hashlib.sha256()
    for layer in p.edges:
        h.update(layer.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "build, args, delta, phase1, phase2",
    [
        (exact_counter, (9, 4), 0, 9, 0),
        (
            rounded_counter,
            (100, 3, 10),
            10,
            100 - rounding_plan(100, 3, 10).m,
            rounding_plan(100, 3, 10).m - 1,
        ),
    ],
    ids=["exact", "rounded"],
)
def test_counting_layers_are_read_only_views_of_one_table(build, args, delta, phase1, phase2):
    p = build(*args)
    for layer in p.edges:
        assert not layer.flags.writeable
        with pytest.raises(ValueError):
            layer[0, 0] = 1
    counting = p.edges[:phase1]
    assert all(np.shares_memory(a, b) for a, b in zip(counting, counting[1:]))
    # after the rounding transition, phase 2 counts in prefixes of the same table
    after = p.edges[phase1 + 1 :]
    assert len(after) == phase2
    assert all(np.shares_memory(counting[0], a) for a in after)
    before = _edge_digest(p)
    assert verify(p, p.alphabet, delta).valid
    compute_labels(p, "full")
    profile_counter(compute_labels(p, "potential"))
    write_robp(p)
    assert _edge_digest(p) == before
