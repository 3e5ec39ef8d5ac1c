import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from robpcount import (
    audit_final_counter,
    audit_final_parallel,
    audit_growth_counter,
    audit_growth_parallel,
    binary_alphabet,
    compute_labels,
    constant_program,
    counter_alphabet,
    exact_counter,
    minimal_error,
    parallel_alphabet,
    phi_counter,
    phi_parallel,
    profile_counter,
    profile_parallel,
    random_robp,
    rounded_counter,
    tribes,
    tribes_plan,
    verify,
)
from robpcount.potential import GridBudgetError


FIG_RECTS = [
    ((0, 0), (2, 3)),
    ((0, 4), (2, 8)),
    ((2, 0), (5, 1)),
    ((1, 2), (5, 5)),
    ((4, 0), (8, 4)),
]


def test_pointwise_phi_two_dims():
    # two overlapping rectangle families at t=8; maxima picked by hand
    assert phi_counter(FIG_RECTS, (2, 0), 8) == 4
    assert phi_counter(FIG_RECTS, (2, 3), 8) == 3
    assert phi_counter(FIG_RECTS, (3, 3), 8) == 2  # [1,5]x[2,5] clipped to 8
    assert phi_counter(FIG_RECTS, (7, 1), 8) == 0  # clipped at the border
    assert phi_counter([], (0, 0), 3) == 0  # uncovered points contribute 0


def test_pointwise_phi_rejects_outside_grid():
    with pytest.raises(ValueError):
        phi_counter(FIG_RECTS, (5, 4), 8)


def test_phi_parallel_unclipped():
    rects = [((0, 0), (6, 6))]
    assert phi_parallel(rects, (1, 1)) == 10  # no min(.., t) term
    assert phi_parallel(rects, (6, 6)) == 0


def test_exact_counter_profile_is_zero():
    lp = compute_labels(exact_counter(6, 2), "potential")
    prof = profile_counter(lp)
    assert prof.phi_values == (0,) * 7
    lp3 = compute_labels(exact_counter(5, 3), "potential")
    assert profile_counter(lp3).phi_values == (0,) * 6


def test_width_one_profile_closed_form():
    lp = compute_labels(constant_program(6, Fraction(3)), "potential")
    prof = profile_counter(lp)
    assert prof.phi_values == tuple(t * (t + 1) // 2 for t in range(7))
    assert prof.phi(0) == 0


def test_width_one_growth_slack_one():
    lp = compute_labels(constant_program(6, Fraction(3)), "potential")
    report = audit_growth_counter(lp, 1)
    assert report.overall_pass
    for row in report.rows:
        assert row.lhs == row.t + 1 and row.rhs == row.t and row.slack == 1


def test_exact_counter_growth_trivial():
    p = exact_counter(5, 2)
    lp = compute_labels(p, "potential")
    report = audit_growth_counter(lp, p.width)
    assert report.overall_pass
    assert all(row.lhs == 0 and row.rhs == 0 for row in report.rows)


def test_final_audit_width_one():
    lp = compute_labels(constant_program(4, Fraction(2)), "potential")
    report = audit_final_counter(lp, 2)
    row = report.rows[0]
    assert row.passed and row.lhs == 10 and row.rhs == 10 and row.slack == 0


def test_final_audit_exact_counter_zero_slack():
    p = exact_counter(7, 2)
    lp = compute_labels(p, "potential")
    report = audit_final_counter(lp, 0)
    assert report.rows[0].lhs == 0 and report.rows[0].rhs == 0


def test_final_audit_requires_verification():
    lp = compute_labels(constant_program(4, Fraction(0)), "potential")
    with pytest.raises(ValueError, match="verify"):
        audit_final_counter(lp, 1)  # width-1 cannot count within 1


def test_final_audits_refuse_the_other_familys_labels():
    # the final audits verify against the labelled program's own alphabet, so
    # the label guard, not an alphabet mismatch, is what refuses a misuse
    par = random_robp(20, parallel_alphabet(2), 3, 4)
    lp = compute_labels(par, "full")
    delta, _ = minimal_error(par, par.alphabet)
    with pytest.raises(ValueError, match="k-1 potential labels"):
        audit_final_counter(lp, delta, profile_parallel(lp))
    one_bit = compute_labels(random_robp(5, parallel_alphabet(1), 2, 1), "full")
    with pytest.raises(ValueError, match="k-1 potential labels"):
        audit_final_counter(one_bit, 1)
    lp = compute_labels(exact_counter(6, 2), "potential")
    with pytest.raises(ValueError, match="parallel labels"):
        audit_final_parallel(lp)


@pytest.mark.parametrize("n", [9, 20])
def test_counter_growth_audit_refuses_parallel_labels_and_profile(n):
    # at n = 9 this once gave a 9-row report, at n = 20 a bare IndexError
    lp = compute_labels(random_robp(n, parallel_alphabet(2), 3, 4), "full")
    with pytest.raises(ValueError, match="k-1 potential labels"):
        audit_growth_counter(lp, 3, profile_parallel(lp))


def test_parallel_growth_audit_refuses_counter_labels():
    lp = compute_labels(exact_counter(6, 2), "potential")
    with pytest.raises(ValueError, match="parallel labels"):
        audit_growth_parallel(lp, 7)
    with pytest.raises(ValueError, match="parallel labels"):
        audit_growth_parallel(lp, 7, profile_counter(lp))


def test_final_counter_audit_refuses_another_programs_profile():
    lp = compute_labels(exact_counter(7, 2), "potential")
    other = profile_counter(compute_labels(exact_counter(6, 2), "potential"))
    with pytest.raises(ValueError, match="does not belong"):
        audit_final_counter(lp, 0, other)


def _counter_case():
    lp = compute_labels(constant_program(6, Fraction(3)), "potential")
    return profile_counter(lp), [
        lambda prof: audit_growth_counter(lp, 1, prof),
        lambda prof: audit_final_counter(lp, 3, prof),
    ]


def _parallel_case():
    p = constant_program(20, (Fraction(0),), alphabet=parallel_alphabet(1))
    lp = compute_labels(p, "full")
    return profile_parallel(lp), [
        lambda prof: audit_growth_parallel(lp, 1, prof),
        lambda prof: audit_final_parallel(lp, prof, verified=True),
    ]


# one field of a profile changed so that it no longer fits its labels
WRONG_FIELD = {
    "grid_kind": lambda prof: {"simplex": "box", "box": "simplex"}[prof.grid_kind],
    "k": lambda prof: prof.k + 1,
    "audited_range": lambda prof: (prof.audited_range[0] + 1, prof.audited_range[1]),
}


@pytest.mark.parametrize("case", [_counter_case, _parallel_case])
@pytest.mark.parametrize("field", list(WRONG_FIELD))
def test_audits_refuse_a_profile_of_other_labels(case, field):
    prof, audits = case()
    wrong = dataclasses.replace(prof, **{field: WRONG_FIELD[field](prof)})
    for audit in audits:
        audit(prof)  # the labels' own profile is taken
        with pytest.raises(ValueError, match="does not belong"):
            audit(wrong)


def test_final_audit_rejects_large_delta():
    lp = compute_labels(constant_program(4, Fraction(2)), "potential")
    with pytest.raises(ValueError):
        audit_final_counter(lp, 3)


def test_tribes_audits_pass():
    n, w = 100, 3
    p = tribes(n, w)
    lp = compute_labels(p, "potential")
    prof = profile_counter(lp)
    assert audit_growth_counter(lp, p.width, prof).overall_pass
    delta = Fraction(n, 2) - Fraction(tribes_plan(n, w).gap, 2)
    assert audit_final_counter(lp, delta, prof).overall_pass


def simplex(t, d):
    for x in itertools.product(range(t + 1), repeat=d):
        if sum(x) <= t:
            yield x


def test_profile_matches_pointwise_sum():
    rng = random.Random(23)
    for seed in range(30):
        problem = [binary_alphabet(), counter_alphabet(2), counter_alphabet(3)][seed % 3]
        n = rng.randint(1, 8)
        p = random_robp(n, problem, rng.randint(1, 5), seed)
        lp = compute_labels(p, "potential")
        prof = profile_counter(lp)
        for t in range(n + 1):
            lo, hi = lp.layer_rectangles(t)
            rects = [
                (tuple(int(v) for v in lo[i]), tuple(int(v) for v in hi[i]))
                for i in range(lo.shape[0])
            ]
            expected = sum(phi_counter(rects, x, t) for x in simplex(t, lp.dims))
            assert prof.phi(t) == expected, (seed, t)


def test_phi_pointwise_monotone_and_corner_step():
    rng = random.Random(29)
    for seed in range(20):
        problem = [binary_alphabet(), counter_alphabet(3)][seed % 2]
        n = rng.randint(1, 7)
        p = random_robp(n, problem, rng.randint(1, 4), seed)
        lp = compute_labels(p, "potential")
        layers = []
        for t in range(n + 1):
            lo, hi = lp.layer_rectangles(t)
            layers.append(
                [
                    (tuple(int(v) for v in lo[i]), tuple(int(v) for v in hi[i]))
                    for i in range(lo.shape[0])
                ]
            )
        for t in range(n):
            corners = {lo for lo, _ in layers[t]}
            for x in simplex(t, lp.dims):
                now = phi_counter(layers[t], x, t)
                nxt = phi_counter(layers[t + 1], x, t + 1)
                assert nxt >= now
                covered = any(
                    all(a <= xi <= b for a, xi, b in zip(lo, x, hi))
                    for lo, hi in layers[t]
                )
                if covered and x not in corners:
                    assert nxt >= now + 1, (seed, t, x)


def test_counter_profile_nondecreasing():
    for seed in range(20):
        p = random_robp(8, counter_alphabet(2), 4, seed)
        prof = profile_counter(compute_labels(p, "potential"))
        assert all(
            prof.phi(t + 1) >= prof.phi(t) for t in range(8)
        )


def test_growth_audit_random_programs():
    rng = random.Random(31)
    for seed in range(50):
        problem = [binary_alphabet(), counter_alphabet(3)][seed % 2]
        n = rng.randint(1, 10)
        p = random_robp(n, problem, rng.randint(1, 6), seed)
        lp = compute_labels(p, "potential")
        assert audit_growth_counter(lp, p.width).overall_pass, seed


def test_rounded_counter_profile_matches_pointwise():
    from robpcount import rounded_counter

    p = rounded_counter(100, 2, 10)
    lp = compute_labels(p, "potential")
    prof = profile_counter(lp)
    for t in (0, 50, 70, 71, 72, 85, 100):  # spans both phases and the merge
        lo, hi = lp.layer_rectangles(t)
        rects = [
            (tuple(int(v) for v in lo[i]), tuple(int(v) for v in hi[i]))
            for i in range(lo.shape[0])
        ]
        assert prof.phi(t) == sum(phi_counter(rects, (x,), t) for x in range(t + 1))


def test_binary_and_one_bit_parallel_agree():
    from robpcount import Robp, verify as _verify

    rng = random.Random(47)
    for seed in range(20):
        n = rng.randint(1, 7)
        p = random_robp(n, binary_alphabet(), 3, seed)
        q = Robp(p.n, parallel_alphabet(1), p.layer_sizes, p.edges, p.output_rows())
        for shift in (Fraction(0), Fraction(1, 2), Fraction(3)):
            delta = shift + rng.randint(0, n)
            assert (
                _verify(p, binary_alphabet(), delta).valid
                == _verify(q, parallel_alphabet(1), delta).valid
            )


def test_parallel_width_one_profile():
    n = 20
    p = constant_program(n, (Fraction(10),), alphabet=parallel_alphabet(1))
    lp = compute_labels(p, "full")
    prof = profile_parallel(lp)
    # grid {0,1,2}; phi_t(i) = t - i
    assert prof.audited_range == (2, 20)
    for t in range(2, 21):
        assert prof.phi(t) == 3 * t - 3


def test_parallel_profiles_and_audits_random():
    rng = random.Random(37)
    for seed in range(25):
        n = rng.randint(20, 30)
        w = rng.randint(1, 8)
        p = random_robp(n, parallel_alphabet(2), w, seed)
        lp = compute_labels(p, "full")
        prof = profile_parallel(lp)
        assert prof.phi(n // 10) >= 0
        assert all(prof.phi(t + 1) >= prof.phi(t) for t in range(n // 10, n))
        assert audit_growth_parallel(lp, p.width, prof).overall_pass
        delta_star, _ = minimal_error(p, parallel_alphabet(2))
        if delta_star <= Fraction(n, 3):
            assert audit_final_parallel(lp, prof, verified=True).overall_pass


def _last_bit_seen(n, k):
    """A parallel program whose kept boxes all start at last-bit count 1.

    One vertex holds every prefix that has set the last bit. Until then the
    other bits are counted exactly below floor(n/10)+1, so those vertices'
    labels are points, which paint nothing, and a bit that reaches that
    count is remembered, so its box starts past the profile's box."""
    from robpcount import Robp

    side = n // 10 + 1

    def step(state, z):
        if state == "seen" or z >> (k - 1):
            return "seen"
        if isinstance(state, int):  # the bit that reached side
            return state
        counts = tuple(c + (z >> j & 1) for j, c in enumerate(state))
        return next((j for j, c in enumerate(counts) if c == side), counts)

    layer, edges = [(0,) * (k - 1)], []
    for _ in range(n):
        index = {}
        edges.append(
            [[index.setdefault(step(s, z), len(index)) for z in range(2**k)] for s in layer]
        )
        layer = list(index)
    return Robp.build(parallel_alphabet(k), edges, [(Fraction(0),) * k] * len(layer))


def test_parallel_profile_matches_pointwise():
    rng = random.Random(41)
    programs = []
    for k, n_low, n_high in ((2, 10, 20), (3, 20, 30)):
        for seed in range(15):
            n = rng.randint(n_low, n_high)
            programs.append(random_robp(n, parallel_alphabet(k), rng.randint(1, 5), seed))
    programs += [_last_bit_seen(n, k) for n, k in ((20, 1), (25, 2), (30, 3))]
    off_origin = 0  # layers whose kept boxes do not reach the origin
    for p in programs:
        n, k = p.n, p.alphabet.k
        lp = compute_labels(p, "full")
        prof = profile_parallel(lp)
        side = n // 10 + 1
        for t in range(n // 10, n + 1):
            lo, hi = lp.layer_rectangles(t)
            rects = [
                (tuple(int(v) for v in lo[i]), tuple(int(v) for v in hi[i]))
                for i in range(lo.shape[0])
            ]
            expected = sum(
                phi_parallel(rects, x) for x in itertools.product(range(side), repeat=k)
            )
            assert prof.phi(t) == expected, (n, k, t)
            keep = (hi.sum(axis=1) > lo.sum(axis=1)) & (lo <= side - 1).all(axis=1)
            off_origin += bool(keep.any() and lo[keep].min(axis=0).any())
    assert off_origin


def test_parallel_final_requires_verification():
    p = constant_program(20, (Fraction(0),), alphabet=parallel_alphabet(1))
    lp = compute_labels(p, "full")
    with pytest.raises(ValueError, match="verify"):
        audit_final_parallel(lp)  # outputs 0, error n/2 > n/3


def test_parallel_final_on_verifying_program():
    # exact bit counter over the one-bit parallel alphabet: error 0 <= n/3
    from robpcount import Robp

    n = 21
    edges = [
        [[u, u + 1] for u in range(t + 1)] for t in range(n)
    ]
    outputs = [(Fraction(v),) for v in range(n + 1)]
    p = Robp.build(parallel_alphabet(1), edges, outputs)
    assert verify(p, parallel_alphabet(1), Fraction(n, 3)).valid
    lp = compute_labels(p, "full")
    assert audit_final_parallel(lp).overall_pass


def test_grid_budget_guard():
    p = constant_program(30, Fraction(15))
    lp = compute_labels(p, "potential")
    with pytest.raises(GridBudgetError):
        profile_counter(lp, max_paint=10)
    q = random_robp(30, parallel_alphabet(2), 2, 0)
    with pytest.raises(GridBudgetError):
        profile_parallel(compute_labels(q, "full"), max_cells=3)


@pytest.fixture
def workers(monkeypatch):
    """A function that paints every layer of the profiles that follow on the
    thread pool with the given number of grids (one per worker)."""
    from robpcount import potential

    potential._pool()  # made with its full thread count before the patch
    monkeypatch.setattr(potential, "_INLINE_CELLS", 0)
    return lambda count: monkeypatch.setattr(potential, "_WORKERS", count)


def _pool_sizes():
    from robpcount import potential

    # one worker, the full pool, and more grids than threads
    return [1, potential._WORKERS, 2 * potential._WORKERS]


def test_one_worker_and_the_full_pool_give_the_same_profiles(workers):
    # (100, 4, 10) paints layers of up to 20M cells, long enough for two
    # workers to overlap on a shared grid if they could
    counter = [compute_labels(rounded_counter(100, k, 10), "potential") for k in (3, 4)]
    counter += [
        compute_labels(random_robp(12, problem, 6, seed), "potential")
        for seed, problem in enumerate([counter_alphabet(3), counter_alphabet(4)] * 4)
    ]
    parallel = [
        compute_labels(random_robp(40, parallel_alphabet(k), 6, seed), "full")
        for seed, k in enumerate([1, 2, 3] * 3)
    ]
    profiles = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        for count in _pool_sizes():
            workers(count)
            profiles.append(
                [profile_counter(lp).phi_values for lp in counter]
                + [profile_parallel(lp).phi_values for lp in parallel]
            )
    finally:
        sys.setswitchinterval(interval)
    assert profiles[0] == profiles[1] == profiles[2]
    assert sum(profiles[0][0]) > 0


def test_grid_budget_errors_name_the_layer_and_the_limit(workers):
    counter = compute_labels(rounded_counter(100, 3, 10), "potential")
    parallel = compute_labels(random_robp(40, parallel_alphabet(2), 6, 0), "full")
    cases = [
        (profile_counter, counter, {"max_paint": 660_000},
         "painting budget of 660000 cells exhausted at layer 90; raise the limit"),
        (profile_counter, counter, {"max_cells": 8000},
         "layer grid of 8100 cells exceeds the limit of 8000 at layer 89"),
        (profile_parallel, parallel, {"max_paint": 1000},
         "painting budget of 1000 cells exhausted at layer 21; raise the limit"),
    ]
    for count in _pool_sizes():
        workers(count)
        for profile, lp, limits, message in cases:
            with pytest.raises(GridBudgetError) as err:
                profile(lp, **limits)
            assert str(err.value) == message, count


def test_profile_guards_reject_wrong_labels():
    # the message names the labels, not the function that refused them
    with pytest.raises(ValueError) as err:
        profile_counter(compute_labels(exact_counter(3, 3), "full"))
    assert str(err.value) == (
        "labels with 3 coordinates of a counter program (k=3)"
        " are not the k-1 potential labels of a counter program"
    )
    with pytest.raises(ValueError) as err:
        profile_parallel(compute_labels(exact_counter(3, 3), "potential"))
    assert str(err.value) == "labels of a counter program (k=3) are not parallel labels"
    with pytest.raises(ValueError) as err:
        profile_parallel(compute_labels(constant_program(20, Fraction(10)), "full"))
    assert str(err.value) == "labels of a binary program (k=1) are not parallel labels"


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_profiles_reject_malformed_rectangles(numpy_kernels, path):
    # LabeledRobp refuses these when built, so neither painter ever sees one
    from robpcount import LabeledRobp, _kernel

    if path == "numpy":
        numpy_kernels()
    elif _kernel.library() is None:
        pytest.skip("C library not built")
    counter = compute_labels(random_robp(6, counter_alphabet(3), 3, 2), "potential")
    parallel = compute_labels(random_robp(20, parallel_alphabet(2), 3, 2), "full")
    for lp, profile in ((counter, profile_counter), (parallel, profile_parallel)):
        t = lp.p.n  # audited by both profiles
        for edit in ("inverted", "far inverted", "negative", "shape", "layers"):
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
            else:
                lo, hi = lo[:-1], hi[:-1]
            with pytest.raises(ValueError, match="malformed rectangle"):
                profile(LabeledRobp(lp.p, lo, hi))


def test_profiles_take_fortran_ordered_labels():
    from robpcount import LabeledRobp

    def fortran(lp):
        return LabeledRobp(
            lp.p, [np.asfortranarray(a) for a in lp.lo], [np.asfortranarray(a) for a in lp.hi]
        )

    lp = compute_labels(random_robp(8, counter_alphabet(3), 4, 5), "potential")
    assert profile_counter(fortran(lp)) == profile_counter(lp)
    lp = compute_labels(random_robp(20, parallel_alphabet(2), 3, 5), "full")
    assert profile_parallel(fortran(lp)) == profile_parallel(lp)
