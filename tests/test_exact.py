import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from robpcount.exact import (
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


def test_rational_table_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalTable(np.array([[1]]), np.array([[0]]))


def test_binomial_sanity():
    assert math.comb(5, 2) == 10  # downstream code leans on math.comb
