import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from robpcount import (
    gen_binom,
    kpar_lower_bound,
    lb_small_w,
    lb_standard,
    thm_main_feasible,
    tightness_report,
)
import robpcount.bounds as bounds_module
from robpcount.bounds import (
    binary_error_lower_bound,
    max_ruled_out_error,
    min_consistent_width,
)


def test_gen_binom_examples():
    assert gen_binom(5, 2) == 10
    assert gen_binom(1, 2) == 0
    assert gen_binom(Fraction(7, 2), 2) == Fraction(35, 8)
    assert gen_binom(3, 0) == 1


@given(st.integers(0, 40), st.integers(0, 8))
def test_gen_binom_matches_integer_binomial(x, k):
    assert gen_binom(x, k) == math.comb(x, k)


@given(
    st.fractions(min_value=0, max_value=60, max_denominator=64),
    st.fractions(min_value=0, max_value=60, max_denominator=64),
    st.integers(1, 6),
)
def test_gen_binom_monotone_above_k_minus_one(a, b, k):
    a, b = min(a, b) + (k - 1), max(a, b) + (k - 1)
    assert gen_binom(a, k) <= gen_binom(b, k)


def test_feasibility_hand_values():
    r = thm_main_feasible(90, 2, 4, 30)
    assert (r.m, r.lhs, r.rhs, r.verdict) == (3, 354, 465, "ruled_out")
    r = thm_main_feasible(90, 2, 6, 30)
    assert (r.m, r.lhs, r.rhs, r.verdict) == (5, 525, 465, "consistent")


def test_feasibility_exact_counter_always_consistent():
    for n, k in [(5, 2), (12, 3), (9, 4)]:
        w = math.comb(n + k - 1, k - 1)
        assert not thm_main_feasible(n, k, w, 0).ruled_out


def test_feasibility_preconditions():
    with pytest.raises(ValueError):
        thm_main_feasible(10, 1, 1, 0)
    with pytest.raises(ValueError):
        thm_main_feasible(10, 2, 1, 6)  # delta > n/(2(k-1))


def test_feasibility_lhs_nondecreasing_in_w():
    for n, k, delta in [(50, 2, 10), (40, 3, Fraction(13, 2)), (90, 2, 30)]:
        prev = None
        for w in range(1, 60):
            lhs = thm_main_feasible(n, k, w, delta).lhs
            assert prev is None or lhs >= prev
            prev = lhs


def test_lb_small_w_directed_rounding():
    got = lb_small_w(100, 2, 4)  # exact value is 50 - 10*sqrt(2)
    diff = Fraction(50) - got  # = 10*sqrt(2) + rounding
    assert diff > 0 and diff * diff >= 200  # got <= true value
    near = diff - Fraction(1, 2**64)
    assert near * near <= 200  # within 2^-64 of the true value


def test_lb_small_w_clamps_to_zero():
    assert lb_small_w(5, 2, 6) == 0  # width covers exact counting


def test_lb_small_w_takes_large_k():
    # the scaled root argument is past the float range from k = 16 on
    got = lb_small_w(10**6, 16, 3)
    root = Fraction(10**6) - 30 * got  # (16! * 3 * 10**6)**(1/16), rounded up
    assert root**16 >= math.factorial(16) * 3 * 10**6 > (root - Fraction(1, 2**64)) ** 16


def test_lb_small_w_threshold_example():
    assert lb_small_w(90, 2, 4) > 30 >= lb_small_w(90, 2, 5)


def test_lb_standard_values():
    assert lb_standard(90, 2) == 5
    assert lb_standard(27, 2) == Fraction(3, 2)
    for k in range(2, 7):
        assert lb_standard(3 * k, k) <= math.comb(4 * k - 1, k - 1)
    with pytest.raises(ValueError):
        lb_standard(5, 2)


def test_kpar_lower_bound_values():
    assert kpar_lower_bound(100, 10) == 1024  # output floor dominates
    big = kpar_lower_bound(10**6, 10)
    assert big == Fraction(43, 243) * (10**5 + 1) ** 2 / 1024
    assert big > 1024
    for n in (10, 50, 1000):
        assert kpar_lower_bound(n, 1) == max(
            Fraction(43, 243) * (n // 10 + 1) / 2, Fraction(2)
        )
    with pytest.raises(ValueError):
        kpar_lower_bound(2, 1)


def test_min_consistent_width_brackets():
    for n, k, delta in [(90, 2, 30), (60, 2, 10), (60, 3, 10)]:
        w = min_consistent_width(n, k, delta)
        assert not thm_main_feasible(n, k, w, delta).ruled_out
        if w > 1:
            assert thm_main_feasible(n, k, w - 1, delta).ruled_out


def test_max_ruled_out_error_monotone_boundary():
    delta = max_ruled_out_error(90, 4)
    assert thm_main_feasible(90, 2, 4, delta).ruled_out
    assert not thm_main_feasible(90, 2, 4, delta + Fraction(1, 2)).ruled_out
    assert binary_error_lower_bound(90, 4) == delta + Fraction(1, 2)


def _linear_max_ruled_out_error(n, w):
    """The half-integer grid walked upward until an error is not ruled out."""
    best = Fraction(-1)
    for twice in range(n + 1):
        if not thm_main_feasible(n, 2, w, Fraction(twice, 2)).ruled_out:
            break
        best = Fraction(twice, 2)
    return best


def test_max_ruled_out_error_matches_the_linear_scan():
    for n in range(1, 201):
        for w in range(1, 13):
            assert max_ruled_out_error(n, w) == _linear_max_ruled_out_error(n, w), (n, w)


def test_max_ruled_out_error_bisects(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return thm_main_feasible(*args)

    monkeypatch.setattr(bounds_module, "thm_main_feasible", counted)
    for n, w in [(40000, 3), (10**8, 3), (10**8, 10**6), (5, 100)]:
        calls.clear()
        delta = max_ruled_out_error(n, w)
        assert len(calls) <= (n + 1).bit_length() + 1, (n, w, len(calls))
        # the answer sits on the boundary of the ruled-out grid points
        if delta >= 0:
            assert thm_main_feasible(n, 2, w, delta).ruled_out
        following = delta + Fraction(1, 2) if delta >= 0 else Fraction(0)
        if following <= Fraction(n, 2):
            assert not thm_main_feasible(n, 2, w, following).ruled_out


def test_lb_small_w_below_every_verified_program():
    import random

    from robpcount import (
        binary_alphabet,
        counter_alphabet,
        minimal_error,
        random_robp,
        tribes,
        tribes_plan,
    )

    for n, w in [(100, 4), (200, 10)]:
        delta, _ = minimal_error(tribes(n, w), binary_alphabet())
        assert lb_small_w(n, 2, w) <= delta
    rng = random.Random(6)
    for seed in range(40):
        problem = [binary_alphabet(), counter_alphabet(3)][seed % 2]
        k = 2 if problem.kind == "binary" else problem.k
        p = random_robp(rng.randint(1, 9), problem, rng.randint(1, 5), seed)
        delta, _ = minimal_error(p, problem)
        assert lb_small_w(p.n, k, p.width) <= delta


def test_tightness_report_small_w():
    report = tightness_report(1000, w=10)
    assert "495" in report  # 500 - sqrt(10000)/20
    assert "lower bound" in report and "upper bound" in report


def test_tightness_report_checks_the_small_width_regime_exactly():
    """10w > n, though n / 10 rounds up to w as a float: a float check lets
    it through to a sweep of about 10^19 steps."""
    n, w = 10 * 2**60 - 1, 2**60
    assert w <= n / 10 and 10 * w > n
    with pytest.raises(ValueError, match="small-width regime"):
        tightness_report(n, w=w)
    with pytest.raises(ValueError, match="small-width regime"):
        tightness_report(29, w=3)
    assert "width w=3" in tightness_report(30, w=3)


def test_tightness_report_degenerate_width():
    report = tightness_report(20, w=21)
    assert "[0, 0]" in report


def test_tightness_report_small_err():
    report = tightness_report(1000, k=2, delta=10)
    lower = min_consistent_width(1000, 2, 10)
    assert str(lower) in report
    with pytest.raises(ValueError):
        tightness_report(100, k=2, delta=50)  # outside the regime


def test_tightness_report_needs_exactly_one_mode():
    with pytest.raises(ValueError):
        tightness_report(100)
    with pytest.raises(ValueError):
        tightness_report(100, w=5, delta=10)
