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
against the pointwise form. Both profiles run every layer through _phis,
which reads the label arrays as LabeledRobp holds them. On the calling
thread and in layer order, _kernel.layer_boxes finds in one pass the
rectangles that can contribute and their bounding grid, and the grid is
checked against max_cells and its cells charged to the paint budget, so a
GridBudgetError names the layer it fires at. _kernel.layer_paint then paints
and sums that layer's grid on a small thread pool (the usable cores, at most
4), one grid per worker. Both kernels run in C, or in numpy without a C
compiler. The parallel profile clips the rectangles to the box, so every
cell outside a layer's bounding grid is covered by nothing. LabeledRobp
checks that its arrays are rectangles when it is built, and layer_paint
refuses a kept box outside the grid it was given.

One guard, _family, states both families. Every profile and audit calls it
first: it refuses labels of the other family and a profile whose grid, k or
audited layers do not match the labels, and it gives the family's k and
first audited layer. The two growth audits share one row loop (_growth) and
the two final audits one single-row builder (_final).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernel
from .bounds import gen_binom
from .exact import as_integer, as_rational
from .labeling import LabeledRobp, verify

DEFAULT_MAX_BOX_CELLS = 40_000_000  # per-layer dense grid cells
DEFAULT_MAX_PAINT = 8_000_000_000  # total painted cells across all layers

# layers painted at once, one grid each: the usable cores, at most 4
_WORKERS = min(
    4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# a layer whose grid and boxes hold fewer cells is painted on the calling
# thread: handing it to a worker and back cost about as much as painting it
# (a few tenths of a millisecond on a 2-vCPU x86-64 guest, GCC 12)
_INLINE_CELLS = 1 << 18


@functools.cache
def _pool():
    """The paint pool, made when a profile first hands a layer to it: the
    import costs several milliseconds, which every short CLI process would
    pay otherwise. It starts no thread until a layer is submitted."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="robpcount-paint")


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


def _phis(lp: LabeledRobp, layers, max_cells: int, max_paint: int) -> tuple[int, ...]:
    """Phi of each layer (t, cap, clip, limit) in layers: max-paint the boxes
    _kernel.layer_boxes keeps onto their bounding grid, then sum (cell -
    coordinate sum) over the painted cells whose coordinate sum is at most
    limit.

    Each layer's grid is checked against max_cells and its boxes' cells are
    taken from the max_paint budget on this thread, in layer order, before
    any cell of it is painted. Then the layer is painted on _pool(), or on
    this thread when it is small, on one of _WORKERS grids, so at most that
    many layers are in flight. On an error the layers in flight are waited
    for before it is raised."""
    budget = max_paint
    free = [np.empty(0, dtype=np.int32) for _ in range(_WORKERS)]  # idle grids
    busy = []  # (job, the grid it paints), oldest first
    phis = []
    try:
        for t, cap, clip, limit in layers:
            lo, hi = lp.layer_rectangles(t)
            kept, base, top, volume = _kernel.layer_boxes(lo, hi, cap, clip)
            if not kept:
                phis.append(0)
                continue
            shape = (top - base + 1).tolist()
            cells = math.prod(shape)
            if cells > max_cells:
                raise GridBudgetError(
                    f"layer grid of {cells} cells exceeds the limit of {max_cells} at layer {t}"
                )
            budget -= volume
            if budget < 0:
                raise GridBudgetError(
                    f"painting budget of {max_paint} cells exhausted at layer {t}; raise the limit"
                )
            if not free:
                job, grid = busy.pop(0)
                job.result()
                free.append(grid)
            grid = free.pop()
            if grid.size < cells:
                del grid  # free the old grid before the new one is made
                grid = np.empty(cells, dtype=np.int32)
            args = (lo, hi, cap, clip, base, shape, limit, grid[:cells])
            if cells + volume < _INLINE_CELLS:
                phis.append(_kernel.layer_paint(*args))
                free.append(grid)
            else:
                job = _pool().submit(_kernel.layer_paint, *args)
                busy.append((job, grid))
                phis.append(job)
    finally:
        for job, _ in busy:
            job.exception()  # waits for the job without raising its error
    return tuple(phi if isinstance(phi, int) else phi.result() for phi in phis)


def _family(lp: LabeledRobp, grid_kind: str, profile: PotentialProfile | None = None):
    """The potential parameter k and the first audited layer of the family
    whose grid is grid_kind, "simplex" (counter) or "box" (parallel), once
    labels of the other family, and a profile that was not painted from
    labels like these (a different grid, k or audited layers), are refused."""
    alphabet, n = lp.p.alphabet, lp.p.n
    if grid_kind == "simplex":
        if alphabet.kind == "parallel" or lp.dims != lp.potential_k - 1:
            raise ValueError(
                f"labels with {lp.dims} coordinates of a {alphabet.kind} program (k={alphabet.k})"
                " are not the k-1 potential labels of a counter program"
            )
        k, t0 = lp.potential_k, 0
    else:
        if alphabet.kind != "parallel":
            raise ValueError(
                f"labels of a {alphabet.kind} program (k={alphabet.k}) are not parallel labels"
            )
        k, t0 = lp.dims, n // 10
    if profile is not None:
        got = (profile.grid_kind, profile.k, profile.audited_range, len(profile.phi_values))
        if got != (grid_kind, k, (t0, n), n - t0 + 1):
            raise ValueError(
                f"profile (grid {got[0]}, k={got[1]}, layers {got[2]}) does not belong to "
                f"these labels (grid {grid_kind}, k={k}, layers {(t0, n)})"
            )
    return k, t0


def profile_counter(
    lp: LabeledRobp,
    *,
    max_cells: int = DEFAULT_MAX_BOX_CELLS,
    max_paint: int = DEFAULT_MAX_PAINT,
) -> PotentialProfile:
    """Phi_t for t = 0..n over the simplex grids (counter potential)."""
    k, _ = _family(lp, "simplex")
    n = lp.p.n
    # values capped at t, and only cells with coordinate sum <= t count
    layers = ((t, t, None, t) for t in range(n + 1))
    return PotentialProfile(
        phi_values=_phis(lp, layers, max_cells, max_paint),
        grid_kind="simplex",
        audited_range=(0, n),
        k=k,
    )


def profile_parallel(
    lp: LabeledRobp,
    *,
    max_cells: int = DEFAULT_MAX_BOX_CELLS,
    max_paint: int = DEFAULT_MAX_PAINT,
) -> PotentialProfile:
    """Phi_t for t = floor(n/10)..n over the box grid (parallel potential)."""
    k, t0 = _family(lp, "box")
    n = lp.p.n
    side = t0 + 1
    if side**k > max_cells:
        raise GridBudgetError(f"box of {side ** k} cells exceeds the limit of {max_cells}")
    # boxes clipped to the box grid, values unclipped, and every cell counts
    layers = ((t, None, side - 1, None) for t in range(t0, n + 1))
    return PotentialProfile(
        phi_values=_phis(lp, layers, max_cells, max_paint),
        grid_kind="box",
        audited_range=(t0, n),
        k=k,
    )


_PROFILES = {"simplex": profile_counter, "box": profile_parallel}


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


def _growth(lp: LabeledRobp, grid_kind: str, profile, rhs, kind: str) -> AuditReport:
    """One row for each audited layer t < n: Phi_{t+1} - Phi_t >= rhs(t, k)."""
    k, t0 = _family(lp, grid_kind, profile)
    prof = profile if profile is not None else _PROFILES[grid_kind](lp)
    rows = []
    for t in range(t0, lp.p.n):
        lhs = prof.phi(t + 1) - prof.phi(t)
        bound = rhs(t, k)
        rows.append(AuditRow(t, lhs, bound, lhs - bound, lhs >= bound))
    return AuditReport(tuple(rows), kind)


def _final(
    lp: LabeledRobp, grid_kind: str, profile, verified, delta, at: str, rhs, kind: str
) -> AuditReport:
    """The single row Phi_n <= rhs, for labels and a profile the caller has
    checked: the program must verify at delta (named at), and the profile is
    painted only then."""
    if verified is None:
        verified = verify(lp.p, lp.p.alphabet, delta).valid
    if not verified:
        raise ValueError(f"program does not verify at {at}; final audit inapplicable")
    prof = profile if profile is not None else _PROFILES[grid_kind](lp)
    lhs = prof.phi(lp.p.n)
    return AuditReport((AuditRow(lp.p.n, lhs, rhs, rhs - lhs, lhs <= rhs),), kind)


def audit_growth_counter(
    lp: LabeledRobp, w: int, profile: PotentialProfile | None = None
) -> AuditReport:
    """Per-layer check Phi_{t+1} - Phi_t >= max(0, C(t+k-1, k-1) - w).

    Holds unconditionally for every valid program; a failure means the
    labels or the profile are computed wrong."""
    w = as_integer(w, "w")
    return _growth(
        lp, "simplex", profile, lambda t, k: max(0, math.comb(t + k - 1, k - 1) - w), "growth-counter"
    )


def audit_final_counter(
    lp: LabeledRobp,
    delta,
    profile: PotentialProfile | None = None,
    verified: bool | None = None,
) -> AuditReport:
    """Single-row check Phi_n <= C(n+k-1, k) - C(n-2(k-1)delta+k-1, k),
    valid for programs that compute their problem within delta."""
    k, _ = _family(lp, "simplex", profile)
    delta = as_rational(delta)
    n = lp.p.n
    if delta > Fraction(n, 2 * (k - 1)):
        raise ValueError("final audit needs delta <= n/(2(k-1))")
    rhs = Fraction(math.comb(n + k - 1, k)) - gen_binom(n - 2 * (k - 1) * delta + k - 1, k)
    return _final(lp, "simplex", profile, verified, delta, "delta", rhs, "final-counter")


def audit_growth_parallel(
    lp: LabeledRobp, w: int, profile: PotentialProfile | None = None
) -> AuditReport:
    """Per-layer parallel growth check from floor(n/10) on.

    The guaranteed increment is ceil(9k/10) * ((floor(n/10)+1)**k
    - w 2**k (floor(n/10)+1)**(ceil(9k/10)-1)); when that is negative the
    row falls back to the unconditional Phi_{t+1} >= Phi_t."""
    w = as_integer(w, "w")
    side = lp.p.n // 10 + 1

    def rhs(t, k):
        ck = -((-9 * k) // 10)  # ceil(9k/10)
        return max(0, ck * (side**k - w * 2**k * side ** (ck - 1)))

    return _growth(lp, "box", profile, rhs, "growth-parallel")


def audit_final_parallel(
    lp: LabeledRobp,
    profile: PotentialProfile | None = None,
    verified: bool | None = None,
) -> AuditReport:
    """Single-row check Phi_n <= (floor(n/10)+1)**k * 2kn/3 for programs
    solving the parallel problem at error n/3."""
    k, t0 = _family(lp, "box", profile)
    n = lp.p.n
    rhs = (t0 + 1) ** k * Fraction(2 * k * n, 3)
    return _final(lp, "box", profile, verified, Fraction(n, 3), "n/3", rhs, "final-parallel")
