"""Closed-form lower bounds and the width/error feasibility inequality.

Everything is evaluated over exact rationals. The only irrational
quantities (k-th roots in the small-width bound) are replaced by dyadic
rationals within 2**-64, rounded in the direction that keeps a reported
lower bound a true lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import kth_root_ceil_scaled


def gen_binom(x, k: int) -> Fraction:
    """Generalized binomial x(x-1)...(x-k+1)/k! over rationals; exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = Fraction(x)
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out / math.factorial(k)


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    w: int
    delta: Fraction
    m: int
    lhs: Fraction
    rhs: Fraction
    verdict: str  # "consistent" | "ruled_out"

    @property
    def ruled_out(self) -> bool:
        return self.verdict == "ruled_out"


def _largest_m(n: int, k: int, w: int) -> int:
    """Largest m <= n-1 with C(m+k-1, k-1) <= w (binary search; m >= 0
    always exists because C(k-1, k-1) = 1 <= w)."""
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid + k - 1, k - 1) <= w:
            lo = mid
        else:
            hi = mid - 1
    return lo


def thm_main_feasible(n: int, k: int, w: int, delta) -> BoundReport:
    """Necessary condition for a width-w program computing the k-counter
    problem at the given error: C(m+k,k) + (n-m-1)w >= C(n-2(k-1)delta+k-1, k).

    verdict "ruled_out" means no such program exists.
    """
    delta = Fraction(delta)
    if k < 2 or n < 1 or w < 1:
        raise ValueError("need k >= 2, n >= 1, w >= 1")
    if not 0 <= delta <= Fraction(n, 2 * (k - 1)):
        raise ValueError("need 0 <= delta <= n/(2(k-1))")
    m = _largest_m(n, k, w)
    lhs = Fraction(math.comb(m + k, k) + (n - m - 1) * w)
    rhs = gen_binom(Fraction(n) - 2 * (k - 1) * delta + k - 1, k)
    verdict = "ruled_out" if lhs < rhs else "consistent"
    return BoundReport(n, k, w, delta, m, lhs, rhs, verdict)


def lb_small_w(n: int, k: int, w: int) -> Fraction:
    """Lower bound on the achievable error of any width-w program:
    n/(2(k-1)) - (k! n w)**(1/k) / (2(k-1)), clamped at 0.

    The root is rounded up by < 2**-64, so the returned rational is <= the
    exact expression (never an overestimate) and within 2**-64 of it.
    """
    if k < 2 or n < 1 or w < 1:
        raise ValueError("need k >= 2, n >= 1, w >= 1")
    root = kth_root_ceil_scaled(math.factorial(k) * n * w, k)
    value = (Fraction(n) - root) / (2 * (k - 1))
    return max(Fraction(0), value)


def lb_standard(n: int, k: int) -> Fraction:
    """Minimal width for error n/(3(k-1)): n**(k-1) / (k! 3**k), exact."""
    if k < 2 or n < 3 * k:
        raise ValueError("need k >= 2, n >= 3k")
    return Fraction(n ** (k - 1), math.factorial(k) * 3**k)


def kpar_lower_bound(n: int, k: int) -> Fraction:
    """Width bound for the k-parallel problem at error n/3:
    max of (43/243)(floor(n/10)+1)**(floor(k/10)+1) / 2**k and the output-
    counting floor 2**k."""
    if k < 1 or n < 3 * k:
        raise ValueError("need k >= 1, n >= 3k")
    explicit = Fraction(43, 243) * (n // 10 + 1) ** (k // 10 + 1) / 2**k
    return max(explicit, Fraction(2**k))


def min_consistent_width(n: int, k: int, delta) -> int:
    """Smallest w not ruled out by the feasibility inequality (its left side
    is nondecreasing in w, so binary search applies)."""
    delta = Fraction(delta)
    lo, hi = 1, math.comb(n + k - 1, k - 1)  # exact counter is always consistent
    while lo < hi:
        mid = (lo + hi) // 2
        if thm_main_feasible(n, k, mid, delta).ruled_out:
            lo = mid + 1
        else:
            hi = mid
    return lo


def max_ruled_out_error(n: int, w: int) -> Fraction:
    """Largest half-integer error ruled out for binary counting at width w
    (achievable errors are half-integers; scan is over that grid)."""
    best = None
    for twice in range(n + 1):
        delta = Fraction(twice, 2)
        if thm_main_feasible(n, 2, w, delta).ruled_out:
            best = delta
        else:
            break  # ruled_out is downward closed in delta
    return best if best is not None else Fraction(-1)


def binary_error_lower_bound(n: int, w: int) -> Fraction:
    """Best available lower bound on the binary frontier: the closed form
    plus one feasibility sweep over the half-integer grid."""
    swept = max_ruled_out_error(n, w) + Fraction(1, 2)
    closed = lb_small_w(n, 2, w) if w >= 1 else Fraction(0)
    return max(Fraction(0), swept, closed)


def tightness_report(n: int, k: int = 2, w: int | None = None, delta=None) -> str:
    """Two-sided envelope in one of the two tight regimes.

    Small-width (give w): bounds on the best binary error at width w.
    Small-error (give delta): bounds on the minimal width for the k-counter
    problem at that error. Only explicit constants are evaluated; no
    asymptotic constant is asserted.
    """
    if (w is None) == (delta is None):
        raise ValueError("give exactly one of w, delta")
    lines = []
    if w is not None:
        if w >= n + 1:
            lines.append(f"width {w} >= n+1: exact counting, error envelope [0, 0]")
            return "\n".join(lines)
        if not (3 <= w and 10 * w <= n):
            raise ValueError("small-width regime needs 3 <= w <= n/10")
        lower = binary_error_lower_bound(n, w)
        from .constructions import tribes_plan

        upper_cert = tribes_plan(n, w).error
        root = kth_root_ceil_scaled(n * w, 2)
        upper_paper = Fraction(n) / 2 - root / 20  # rounded up by < 2**-64
        lines.append(f"binary error at n={n}, width w={w}")
        lines.append(f"  lower bound (closed form + feasibility sweep): {lower}")
        lines.append(f"  upper bound, threshold construction formula:   {upper_paper}")
        lines.append(f"  upper bound, certified by construction:        {upper_cert}")
        lines.append(f"  gap (formula upper - lower): {upper_paper - lower}")
    else:
        delta = Fraction(delta)
        if not (10 <= delta <= Fraction(n, 10 * k * k)):
            raise ValueError("small-error regime needs 10 <= delta <= n/(10 k^2)")
        from .constructions import rounded_counter_width_bound

        upper = rounded_counter_width_bound(n, k, delta)
        lower = min_consistent_width(n, k, delta)
        lines.append(f"width for k={k} counters at n={n}, error delta={delta}")
        lines.append(f"  lower bound (feasibility sweep over widths): {lower}")
        lines.append(f"  upper bound (rounding construction):         {upper}")
        lines.append(f"  ratio upper/lower: {Fraction(upper, lower)}")
    return "\n".join(lines)
