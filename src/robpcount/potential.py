"""Layer potentials and the growth/final audits.

For counter-family programs the layer-t potential sums, over the grid of
count tuples with coordinate sum <= t, the largest clipped l1-distance from
the grid point to the top corner of a containing label rectangle. For
parallel programs the grid is the fixed box {0..floor(n/10)}**k, audited
from layer floor(n/10) on, and the distance is unclipped.

Grid points covered by no rectangle contribute 0. That convention cannot
flip any audit: contributions are nonnegative, so zeros neither weaken the
per-layer growth lower bound nor inflate the final-layer sum.

phi_counter/phi_parallel are the pointwise definitions; profiles are
computed by painting rectangles onto dense grids, which the tests check
against the pointwise form. Both profiles paint every layer through one
function, _layer_phi: it keeps the rectangles that can contribute, charges
their cells to the paint budget, and paints and sums them on their bounding
grid in one call of _kernel.paint_sum (in C, or in numpy without a C
compiler). The parallel profile first clips the rectangles to the box, so
every cell outside that bounding grid is covered by nothing. LabeledRobp
checks that its arrays are rectangles when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernel
from .bounds import gen_binom
from .labeling import LabeledRobp, verify
from .robp import binary_alphabet, counter_alphabet, parallel_alphabet

DEFAULT_MAX_BOX_CELLS = 40_000_000  # per-layer dense grid cells
DEFAULT_MAX_PAINT = 8_000_000_000  # total painted cells across all layers


class GridBudgetError(ValueError):
    """The potential grid would exceed the configured budget."""


def phi_counter(rectangles, x, t: int) -> int:
    """Pointwise potential: max over containing rectangles of
    min(sum(hi), t) - sum(x); 0 when nothing contains x."""
    total = sum(x)
    if total > t or any(v < 0 for v in x):
        raise ValueError("x outside the layer-t grid")
    best = 0
    for lo, hi in rectangles:
        if all(a <= v <= b for a, v, b in zip(lo, x, hi)):
            best = max(best, min(sum(hi), t) - total)
    return best


def phi_parallel(rectangles, x) -> int:
    """Pointwise parallel potential: unclipped corner distance."""
    total = sum(x)
    best = 0
    for lo, hi in rectangles:
        if all(a <= v <= b for a, v, b in zip(lo, x, hi)):
            best = max(best, sum(hi) - total)
    return best


@dataclass(frozen=True)
class PotentialProfile:
    phi_values: tuple[int, ...]  # Phi_t for t in the audited range
    grid_kind: str  # "simplex" | "box"
    audited_range: tuple[int, int]  # inclusive layer interval
    k: int  # potential parameter (counter k; parallel k)

    def phi(self, t: int) -> int:
        t0, t1 = self.audited_range
        if not t0 <= t <= t1:
            raise IndexError(f"layer {t} outside audited range {self.audited_range}")
        return self.phi_values[t - t0]


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of a narrow 2-d array as int64, one column add at a time
    (much cheaper than a.sum(axis=1) over a few columns)."""
    total = a[:, 0].astype(np.int64)
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _layer_phi(lo, hi, vals, keep, t: int, budget, max_cells) -> int:
    """Phi of one layer: max-paint the kept boxes [lo, hi] with values vals
    onto their bounding grid, then sum (cell - coordinate sum) over the
    painted cells whose coordinate sum is <= t.

    The grid is checked against max_cells, and the boxes' cells are taken
    from the paint budget before any cell is written."""
    if not keep.any():
        return 0
    if not keep.all():
        lo, hi, vals = lo[keep], hi[keep], vals[keep]
    lo = lo.astype(np.int64, order="C")
    hi = hi.astype(np.int64, order="C")
    # per-column reductions: min/max over axis 0 of a narrow array is slow
    base = np.array([lo[:, j].min() for j in range(lo.shape[1])])
    shape = tuple(int(hi[:, j].max() - b + 1) for j, b in enumerate(base))
    cells = math.prod(shape)
    if cells > max_cells:
        raise GridBudgetError(f"layer grid of {cells} cells over budget")
    lo -= base
    hi -= base
    vol = hi[:, 0] - lo[:, 0] + 1
    for j in range(1, lo.shape[1]):
        vol *= hi[:, j] - lo[:, j] + 1
    budget[0] -= int(vol.sum())
    if budget[0] < 0:
        raise GridBudgetError("painting budget exhausted; raise the limit")
    grid = np.full(cells, -1, dtype=np.int64)
    return _kernel.paint_sum(lo, hi, vals, shape, int(base.sum()), t, grid)


def profile_counter(
    lp: LabeledRobp,
    *,
    max_cells: int = DEFAULT_MAX_BOX_CELLS,
    max_paint: int = DEFAULT_MAX_PAINT,
) -> PotentialProfile:
    """Phi_t for t = 0..n over the simplex grids (counter potential)."""
    if lp.p.alphabet.kind == "parallel" or lp.dims != lp.potential_k - 1:
        raise ValueError("profile_counter needs the k-1 potential labels of a counter program")
    n = lp.p.n
    budget = [max_paint]
    phis = []
    for t in range(n + 1):
        lo, hi = lp.layer_rectangles(t)
        vals = np.minimum(_col_sum(hi), t)
        phis.append(_layer_phi(lo, hi, vals, vals > _col_sum(lo), t, budget, max_cells))
    return PotentialProfile(
        phi_values=tuple(phis),
        grid_kind="simplex",
        audited_range=(0, n),
        k=lp.potential_k,
    )


def profile_parallel(
    lp: LabeledRobp,
    *,
    max_cells: int = DEFAULT_MAX_BOX_CELLS,
    max_paint: int = DEFAULT_MAX_PAINT,
) -> PotentialProfile:
    """Phi_t for t = floor(n/10)..n over the box grid (parallel potential)."""
    if lp.p.alphabet.kind != "parallel":
        raise ValueError("profile_parallel needs parallel labels")
    n = lp.p.n
    k = lp.dims
    side = n // 10 + 1
    if side**k > max_cells:
        raise GridBudgetError(f"box of {side ** k} cells over budget")
    t0 = n // 10
    budget = [max_paint]
    top = k * (side - 1)  # the box's largest coordinate sum: no cell is capped
    phis = []
    for t in range(t0, n + 1):
        lo, hi = lp.layer_rectangles(t)
        vals = _col_sum(hi)
        keep = (vals > _col_sum(lo)) & (lo <= side - 1).all(axis=1)
        # boxes clipped to the box grid; values stay unclipped
        clipped = np.minimum(hi, side - 1)
        phis.append(_layer_phi(lo, clipped, vals, keep, top, budget, max_cells))
    return PotentialProfile(
        phi_values=tuple(phis),
        grid_kind="box",
        audited_range=(t0, n),
        k=k,
    )


@dataclass(frozen=True)
class AuditRow:
    t: int
    lhs: Fraction | int
    rhs: Fraction | int
    slack: Fraction | int
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    kind: str

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.passed]


def audit_growth_counter(
    lp: LabeledRobp, w: int, profile: PotentialProfile | None = None
) -> AuditReport:
    """Per-layer check Phi_{t+1} - Phi_t >= max(0, C(t+k-1, k-1) - w).

    Holds unconditionally for every valid program; a failure means the
    labels or the profile are computed wrong."""
    prof = profile if profile is not None else profile_counter(lp)
    k = lp.potential_k
    rows = []
    for t in range(lp.p.n):
        lhs = prof.phi(t + 1) - prof.phi(t)
        rhs = max(0, math.comb(t + k - 1, k - 1) - w)
        rows.append(AuditRow(t, lhs, rhs, lhs - rhs, lhs >= rhs))
    return AuditReport(tuple(rows), "growth-counter")


def _counter_problem(lp: LabeledRobp):
    if lp.p.alphabet.kind == "binary":
        return binary_alphabet()
    return counter_alphabet(lp.p.alphabet.k)


def audit_final_counter(
    lp: LabeledRobp,
    delta,
    profile: PotentialProfile | None = None,
    verified: bool | None = None,
) -> AuditReport:
    """Single-row check Phi_n <= C(n+k-1, k) - C(n-2(k-1)delta+k-1, k),
    valid for programs that compute their problem within delta."""
    delta = Fraction(delta)
    n, k = lp.p.n, lp.potential_k
    if delta > Fraction(n, 2 * (k - 1)):
        raise ValueError("final audit needs delta <= n/(2(k-1))")
    if verified is None:
        verified = verify(lp.p, _counter_problem(lp), delta).valid
    if not verified:
        raise ValueError("program does not verify at delta; final audit inapplicable")
    prof = profile if profile is not None else profile_counter(lp)
    lhs = prof.phi(n)
    rhs = Fraction(math.comb(n + k - 1, k)) - gen_binom(
        Fraction(n) - 2 * (k - 1) * delta + k - 1, k
    )
    row = AuditRow(n, lhs, rhs, rhs - lhs, lhs <= rhs)
    return AuditReport((row,), "final-counter")


def audit_growth_parallel(
    lp: LabeledRobp, w: int, profile: PotentialProfile | None = None
) -> AuditReport:
    """Per-layer parallel growth check from floor(n/10) on.

    The guaranteed increment is ceil(9k/10) * ((floor(n/10)+1)**k
    - w 2**k (floor(n/10)+1)**(ceil(9k/10)-1)); when that is negative the
    row falls back to the unconditional Phi_{t+1} >= Phi_t."""
    prof = profile if profile is not None else profile_parallel(lp)
    n, k = lp.p.n, lp.dims
    side = n // 10 + 1
    ck = -((-9 * k) // 10)  # ceil(9k/10)
    formula = ck * (side**k - w * 2**k * side ** (ck - 1))
    rhs = max(0, formula)
    rows = []
    for t in range(n // 10, n):
        lhs = prof.phi(t + 1) - prof.phi(t)
        rows.append(AuditRow(t, lhs, rhs, lhs - rhs, lhs >= rhs))
    return AuditReport(tuple(rows), "growth-parallel")


def audit_final_parallel(
    lp: LabeledRobp,
    profile: PotentialProfile | None = None,
    verified: bool | None = None,
) -> AuditReport:
    """Single-row check Phi_n <= (floor(n/10)+1)**k * 2kn/3 for programs
    solving the parallel problem at error n/3."""
    n, k = lp.p.n, lp.dims
    if verified is None:
        verified = verify(lp.p, parallel_alphabet(k), Fraction(n, 3)).valid
    if not verified:
        raise ValueError("program does not verify at n/3; final audit inapplicable")
    prof = profile if profile is not None else profile_parallel(lp)
    lhs = prof.phi(n)
    rhs = (n // 10 + 1) ** k * Fraction(2 * k * n, 3)
    row = AuditRow(n, lhs, rhs, rhs - lhs, lhs <= rhs)
    return AuditReport((row,), "final-parallel")
