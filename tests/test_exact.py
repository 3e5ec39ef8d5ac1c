import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from robpcount import (
    audit_final_counter,
    audit_growth_counter,
    audit_growth_parallel,
    binary_alphabet,
    compute_labels,
    constant_program,
    exhaustive_verify,
    frontier,
    frontier_brute_force,
    frontier_column,
    lb_small_w,
    parallel_alphabet,
    random_robp,
    rounding_plan,
    thm_main_feasible,
    tightness_report,
    tribes,
    tribes_plan,
    verify,
)
from robpcount.bounds import min_consistent_width
from robpcount.exact import (
    as_integer,
    as_rational,
    format_rational,
    iroot_floor,
    isqrt_ceil_rational,
    isqrt_floor_rational,
    kth_root_ceil_scaled,
    parse_rational,
)
from robpcount.robp import RationalTable


def test_parse_rational_forms():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("  10/4 ") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "1e3", "", "a/b", "1/-2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "x, value",
    [(3, 3), (-2, -2), (np.int64(7), 7), (Fraction(1, 3), Fraction(1, 3)), ("1/3", Fraction(1, 3))],
)
def test_as_rational_takes_exact_numbers(x, value):
    assert as_rational(x) == value and type(as_rational(x)) is Fraction


@pytest.mark.parametrize("x", [0.1, 1.0, True, False, np.float64(0.5), np.bool_(True), None, "0.1"])
def test_as_rational_refuses_floats_and_bools(x):
    with pytest.raises(ValueError):
        as_rational(x)


@pytest.mark.parametrize("x", [3, 0, -2, np.int64(7), np.uint8(5)])
def test_as_integer_takes_integers(x):
    assert as_integer(x, "w") == x and type(as_integer(x, "w")) is int


@pytest.mark.parametrize("x", [2.0, 0.5, True, False, np.bool_(True), np.float64(3.0), Fraction(2), "2", None])
def test_as_integer_refuses_all_but_integers(x):
    with pytest.raises(ValueError, match=r"^w .* is not an integer$"):
        as_integer(x, "w")


def _width_entries():
    """Each public entry that takes a width w, as a function of w alone."""
    counter = compute_labels(constant_program(4, 2), "potential")
    parallel = compute_labels(random_robp(20, parallel_alphabet(2), 3, 2), "full")
    return {
        "audit_growth_counter": lambda w: audit_growth_counter(counter, w).rows,
        "audit_growth_parallel": lambda w: audit_growth_parallel(parallel, w).rows,
        "thm_main_feasible": lambda w: thm_main_feasible(90, 2, w, 30),
        "lb_small_w": lambda w: lb_small_w(100, 2, w),
        "random_robp": lambda w: random_robp(3, binary_alphabet(), w, 0),
        "frontier": lambda w: frontier(5, w),
        "frontier_column": lambda w: frontier_column(5, w),
        "frontier_brute_force": lambda w: frontier_brute_force(3, w),
        "tribes": lambda w: tribes(100, w),
        "tribes_plan": lambda w: tribes_plan(100, w),
    }


@pytest.mark.parametrize("entry", sorted(_width_entries()))
def test_a_width_that_is_not_an_integer_is_refused(entry):
    """A float width must not decide a verdict (0.5 passed the counter growth
    audit with slack 1/2), and a bool must not read as width 1 or 0."""
    call = _width_entries()[entry]
    for w in (4.0, 4.5, True, np.bool_(True), Fraction(4)):
        with pytest.raises(ValueError, match=r"^w .* is not an integer$"):
            call(w)
    assert call(np.int64(4)) == call(4)


@given(st.fractions(max_denominator=10**6))
def test_format_parse_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@given(st.integers(0, 10**24), st.integers(1, 6))
@example(10**400, 3)  # past the float range: no float seed
@example(10**400 - 1, 3)
@example(2**1100, 16)
@example(2**1100 - 1, 16)
def test_iroot_floor_brackets(x, k):
    r = iroot_floor(x, k)
    assert r**k <= x < (r + 1) ** k


def test_rational_sqrt():
    assert isqrt_floor_rational(Fraction(5, 2)) == 1
    assert isqrt_ceil_rational(Fraction(5, 2)) == 2
    assert isqrt_floor_rational(Fraction(9)) == 3
    assert isqrt_ceil_rational(Fraction(9)) == 3
    assert isqrt_ceil_rational(Fraction(100, 9)) == 4


def test_kth_root_ceil_scaled_tight():
    # exact powers come back exact
    assert kth_root_ceil_scaled(10000, 2) == 100
    r = kth_root_ceil_scaled(2, 2)
    assert r * r >= 2
    assert (r - Fraction(1, 2**64)) ** 2 < 2
    r3 = kth_root_ceil_scaled(5, 3)
    assert r3**3 >= 5 > (r3 - Fraction(1, 2**64)) ** 3
    # x << 64k is past the float range from k = 16 on
    x = math.factorial(16) * 10**6 * 3
    r16 = kth_root_ceil_scaled(x, 16)
    assert r16**16 >= x > (r16 - Fraction(1, 2**64)) ** 16


def test_rational_table_normalization():
    t = RationalTable(np.array([[2, -3]]), np.array([[4, -6]]))
    assert t.row(0) == (Fraction(1, 2), Fraction(1, 2))
    t2 = RationalTable.from_rows([(Fraction(1, 2), Fraction(1, 2))])
    assert t == t2


def test_rational_table_ragged_rejected():
    with pytest.raises(ValueError):
        RationalTable.from_rows([(1,), (1, 2)])


def test_rational_table_refuses_cells_that_are_not_integers():
    """A cast would truncate 1.5 to 1, 2.5 to 2 and read True as 1."""
    ones = np.array([[1, 1]])
    for num, den in [
        (np.array([[1.5, 2.9]]), ones),
        (ones, np.array([[1, 2.5]])),
        (np.array([[True, False]]), ones),
        (ones, np.array([[True, True]])),
        (np.array([[2**70, 1.5]], dtype=object), ones),
        (np.array([[2**70, 1]], dtype=object), np.array([[1, True]], dtype=object)),
        (np.array([[2**70, 1]], dtype=object), np.array([[1.0, 1.0]])),
    ]:
        with pytest.raises(ValueError, match="integer"):
            RationalTable(num, den)
    assert RationalTable([[0, 3]], [[1, 6]]).rows() == [(0, Fraction(1, 2))]
    big = RationalTable(np.array([[2**70, np.int64(3)]], dtype=object), np.array([[4, 6]]))
    assert big.rows() == [(2**68, Fraction(1, 2))]


def test_rational_table_takes_cells_past_int64_exactly():
    """A uint64 cell past int64's maximum must not wrap in a cast to int64,
    nor int64's minimum in a sign flip."""
    top = np.array([[2**64 - 1]], dtype=np.uint64)
    one = np.array([[1]], dtype=np.uint64)
    assert RationalTable(top, np.array([[1]])).rows() == [(Fraction(2**64 - 1),)]
    assert RationalTable(top, 3 * one).rows() == [(Fraction(2**64 - 1, 3),)]
    half = np.array([[2**63]], dtype=np.uint64)
    assert RationalTable(one, half).rows() == [(Fraction(1, 2**63),)]
    low = np.array([[-(2**63)]], dtype=np.int64)
    assert RationalTable(one, low).rows() == [(Fraction(-1, 2**63),)]
    assert RationalTable(low, -np.ones((1, 1), np.int64)).rows() == [(Fraction(2**63),)]
    # unsigned cells that fit int64 keep the int64 table
    small = RationalTable(np.array([[2**63 - 1, 4]], np.uint64), np.array([[1, 6]], np.uint64))
    assert small.num.dtype == np.int64 and small.rows() == [(2**63 - 1, Fraction(2, 3))]


def test_rational_table_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalTable(np.array([[1]]), np.array([[0]]))


def test_binomial_sanity():
    assert math.comb(5, 2) == 10  # downstream code leans on math.comb


# every public entry that reads an error bound delta, as a function of delta
# alone, with an integer delta it accepts
DELTA_SITES = {
    "verify": (lambda d: verify(tribes(100, 4), binary_alphabet(), d).valid, 49),
    "exhaustive_verify": (
        lambda d: exhaustive_verify(constant_program(4, Fraction(2)), binary_alphabet(), d),
        1,
    ),
    "audit_final_counter": (
        lambda d: audit_final_counter(
            compute_labels(constant_program(6, Fraction(3)), "potential"), d, verified=True
        ).rows,
        1,
    ),
    "thm_main_feasible": (lambda d: thm_main_feasible(90, 2, 4, d).ruled_out, 30),
    "min_consistent_width": (lambda d: min_consistent_width(60, 2, d), 1),
    "tightness_report": (lambda d: tightness_report(1000, 2, delta=d), 12),
    "rounding_plan": (lambda d: rounding_plan(200, 2, d), 12),
}


@pytest.mark.parametrize("site", list(DELTA_SITES))
def test_floats_and_bools_never_decide_a_verdict(site):
    # verify(tribes(100, 4), binary_alphabet(), 0.1) once decided at
    # 3602879701896397/36028797018963968, and True read as 1
    run, d = DELTA_SITES[site]
    for bad in (0.1, True, float(d), np.float64(d)):
        with pytest.raises(ValueError):
            run(bad)
    assert run(d) == run(Fraction(d)) == run(np.int64(d)) == run(str(d))
    assert run(Fraction(3 * d + 1, 3)) == run(f"{3 * d + 1}/3")
