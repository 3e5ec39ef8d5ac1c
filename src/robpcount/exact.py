"""Exact arithmetic helpers: rational parsing and integer roots.

Everything downstream compares rationals exactly; no float ever decides a
verdict. This module is Python-int arithmetic only; the numpy table of
program outputs, RationalTable, lives with the programs in robp.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Integral, Rational

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (decimal integers, q > 0). Floats are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational 'p' or 'p/q': {text!r}")
    if "/" in text:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(text))


def as_rational(x) -> Fraction:
    """x as an exact Fraction: an int, a Fraction, a numpy integer or a
    "p"/"p/q" string. ValueError for anything else, a bool (which would read
    as 0 or 1) and a float above all: 0.1 would decide a verdict at its
    binary value 3602879701896397/36028797018963968."""
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"{x!r} is not an exact rational: pass an int, a Fraction or a 'p/q' string")


def is_integer(x) -> bool:
    """x is an integer: an int or a numpy integer (any Integral), and not a
    bool, which would read as 0 or 1. A plain int, the usual case, skips the
    slower check against the Integral ABC."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def as_integer(x, what: str) -> int:
    """x as an int; ValueError, naming it as what, for anything is_integer
    refuses: a cast would truncate 2.5 to 2 and read True as 1."""
    if not is_integer(x):
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational; reduced, positive denominator."""
    return str(x)


def isqrt_floor_rational(x: Fraction) -> int:
    """Largest integer r with r*r <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    return math.isqrt(p * q) // q


def isqrt_ceil_rational(x: Fraction) -> int:
    """Smallest integer r with r*r >= x (x >= 0)."""
    f = isqrt_floor_rational(x)
    return f if f * f >= x else f + 1


def iroot_floor(x: int, k: int) -> int:
    """Largest integer r with r**k <= x, for x >= 0, k >= 1."""
    if x < 0 or k < 1:
        raise ValueError("iroot_floor needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    # integer Newton steps fall monotonically from any seed at or above the
    # root, here 2**ceil(bits/k), and stop at its floor
    r = 1 << -(-int(x).bit_length() // k)
    while (y := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = y
    return r


def kth_root_ceil_scaled(x: int, k: int) -> Fraction:
    """Smallest rational of the form R/2**64 that is >= x**(1/k).

    The result overshoots the true root by less than 2**-64, so
    subtracting it from anything under-approximates by less than 2**-64:
    the directed rounding used by the closed-form lower bounds.
    """
    scaled = x << (64 * k)
    r = iroot_floor(scaled, k)
    if r**k < scaled:
        r += 1
    return Fraction(r, 1 << 64)
