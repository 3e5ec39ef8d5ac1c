"""Exact arithmetic helpers: rational parsing, integer roots, rational tables.

Everything downstream compares rationals exactly; no float ever decides a
verdict. Output tables keep numerators/denominators in parallel integer
arrays so that million-vertex programs stay compact and vectorizable, with
fractions.Fraction views derived on demand.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

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


def kth_root_ceil_scaled(x: int, k: int, bits: int = 64) -> Fraction:
    """Smallest rational of the form R/2**bits that is >= x**(1/k).

    The result overshoots the true root by less than 2**-bits, so
    subtracting it from anything under-approximates by less than 2**-bits:
    the directed rounding used by the closed-form lower bounds.
    """
    scaled = x << (bits * k)
    r = iroot_floor(scaled, k)
    if r**k < scaled:
        r += 1
    return Fraction(r, 1 << bits)


class RationalTable:
    """A rectangular table of exact rationals as parallel num/den arrays.

    Rows map to final-layer vertices, columns to output coordinates.
    Normalized on construction (gcd-reduced, positive denominators).
    Entries that fit comfortably in int64 are stored that way; anything
    larger falls back to object arrays of Python ints, still exact. A table
    cannot change: its arrays are read-only and its fields cannot be rebound.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: np.ndarray):
        num = np.asarray(num)
        den = np.asarray(den)
        if num.shape != den.shape or num.ndim != 2:
            raise ValueError("num/den must be 2-d arrays of equal shape")
        if num.dtype == object or den.dtype == object:
            pairs = [
                [Fraction(int(p), int(q)) for p, q in zip(nrow, drow)]
                for nrow, drow in zip(num, den)
            ]
            num = np.array([[f.numerator for f in r] for r in pairs], dtype=object)
            den = np.array([[f.denominator for f in r] for r in pairs], dtype=object)
            num = num.reshape(den.shape)
        else:
            num = num.astype(np.int64)
            den = den.astype(np.int64)
            if np.any(den == 0):
                raise ZeroDivisionError("zero denominator in rational table")
            neg = den < 0
            if neg.any():
                num = np.where(neg, -num, num)
                den = np.where(neg, -den, den)
            g = np.gcd(num, den)
            g[g == 0] = 1
            num = num // g
            den = den // g
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a RationalTable is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return RationalTable, (self.num, self.den)

    @classmethod
    def from_rows(cls, rows) -> "RationalTable":
        rows = [tuple(Fraction(v) for v in row) for row in rows]
        if not rows:
            return cls(np.zeros((0, 1), np.int64), np.ones((0, 1), np.int64))
        arity = len(rows[0])
        if any(len(r) != arity for r in rows):
            raise ValueError("ragged rows")
        big = any(
            abs(f.numerator) >= 2**62 or f.denominator >= 2**62
            for r in rows
            for f in r
        )
        dtype = object if big else np.int64
        num = np.array([[f.numerator for f in r] for r in rows], dtype)
        den = np.array([[f.denominator for f in r] for r in rows], dtype)
        return cls(num.reshape(len(rows), arity), den.reshape(len(rows), arity))

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(int(p), int(q)) for p, q in zip(self.num[i], self.den[i])
        )

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.num.shape[0])]

    def __len__(self) -> int:
        return self.num.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalTable):
            return NotImplemented
        return (
            self.num.shape == other.num.shape
            and bool(np.array_equal(self.num, other.num))
            and bool(np.array_equal(self.den, other.den))
        )

    def __repr__(self) -> str:
        return f"RationalTable(shape={self.num.shape})"
