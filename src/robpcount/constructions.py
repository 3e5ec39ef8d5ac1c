"""Explicit program constructions.

* exact_counter -- the trivial exact k-symbol counter (width C(n+k-1, k-1)).
* tribes -- the small-width binary counter: AND of per-segment thresholds.
* rounded_counter -- the small-error k-counter: exact counting, one rounding
  step near the end, exact counting on top of the rounded tuple.
* constant_program -- the width-1 baseline.

Layer vertices of counting phases are count vectors with a fixed sum,
indexed by a combinatorial rank so that edges are computed arithmetically
(no per-vertex hashing); for k = 2 the index of a vector equals its second
coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import isqrt_ceil_rational, isqrt_floor_rational, RationalTable
from .robp import Alphabet, Robp, binary_alphabet, counter_alphabet

DEFAULT_MAX_WIDTH = 2_000_000


class WidthBudgetError(ValueError):
    """Construction would exceed the configured width budget."""


def _binom_table(max_s: int, max_i: int) -> np.ndarray:
    """tab[s, i] = C(s, i) for 0 <= s <= max_s, 0 <= i <= max_i."""
    tab = np.zeros((max_s + 1, max_i + 1), dtype=np.int64)
    tab[:, 0] = 1
    for i in range(1, max_i + 1):
        tab[i:, i] = np.cumsum(tab[i - 1 : max_s, i - 1])
    return tab


# Count vectors (c_1..c_k) with a fixed sum are indexed by the colex rank of
# the partial-sum set of the reversed vector: with d = (c_k..c_1) and
# S_i = d_1+..+d_i + (i-1), the index is sum_i C(S_i, i). The rank formula
# does not mention the layer sum, so rank(c + e_z) indexes the next layer
# directly, and rank(c + e_z) - rank(c) telescopes to sum_{i >= k+1-z}
# C(S_i, i-1) by Pascal's rule. The counting phases therefore carry the
# S-columns from layer to layer and never re-derive them from the vectors.


class _ColexCounter:
    """Shared machinery for layers of fixed-sum count vectors."""

    def __init__(self, k: int, max_s: int):
        tab = _binom_table(max_s + k + 2, k)
        self.k = k
        self.cols = [np.ascontiguousarray(tab[:, i]) for i in range(k)]
        # step[sym][i] = 1 iff letter sym+1 bumps partial sum i+1
        self.steps = [
            np.array([1 if i + 1 >= k - sym else 0 for i in range(k - 1)], np.int32)
            for sym in range(k)
        ]

    def symbol_targets(self, s_arr: np.ndarray) -> list[np.ndarray]:
        """Per-symbol next-layer indices for every vector (int64 arrays)."""
        k = self.k
        rank = self.cols[1][s_arr[:, 0]]
        for i in range(2, k):
            rank = rank + self.cols[i][s_arr[:, i - 1]]
        suffix = self.cols[k - 2][s_arr[:, k - 2]] if k >= 2 else None
        targets = [None] * k
        targets[0] = rank
        running = suffix
        for sym in range(1, k):
            targets[sym] = rank + running
            if sym < k - 1:
                running = running + self.cols[k - 2 - sym][s_arr[:, k - 2 - sym]]
        return targets

    def advance(
        self, s_arr: np.ndarray, targets: list[np.ndarray], next_size: int
    ) -> np.ndarray:
        """Scatter the S-columns of c + e_sym into the next layer."""
        nxt = np.empty((next_size, self.k - 1), dtype=np.int32)
        for sym in range(self.k):
            nxt[targets[sym]] = s_arr + self.steps[sym]
        return nxt

    def vectors(self, s_arr: np.ndarray, total: int) -> np.ndarray:
        """Recover count vectors from S-columns (layer sum is `total`)."""
        k = self.k
        v = len(s_arr)
        d = np.empty((v, k), dtype=np.int32)
        d[:, 0] = s_arr[:, 0]
        for i in range(1, k - 1):
            d[:, i] = s_arr[:, i] - s_arr[:, i - 1] - 1
        d[:, k - 1] = total - (s_arr[:, k - 2] - (k - 2))
        return d[:, ::-1].copy()

    def s_columns(self, vecs: np.ndarray, total: int) -> np.ndarray:
        k = self.k
        out = np.empty((len(vecs), k - 1), dtype=np.int32)
        prefix = np.zeros(len(vecs), dtype=np.int32)
        # S_i = total - (c_1+..+c_{k-i}) + i - 1
        prefixes = []
        for j in range(k - 1):
            prefix = prefix + vecs[:, j]
            prefixes.append(prefix)
        for i in range(1, k):
            out[:, i - 1] = total - prefixes[k - i - 1] + (i - 1)
        return out


def _stack_targets(targets: list[np.ndarray]) -> np.ndarray:
    out = np.empty((len(targets[0]), len(targets)), dtype=np.int32)
    for sym, col in enumerate(targets):
        out[:, sym] = col
    return out


def exact_counter(n: int, k: int, *, max_width: int = DEFAULT_MAX_WIDTH) -> Robp:
    """Exact k-symbol counter: layer t is all count vectors summing to t."""
    if k < 2:
        raise ValueError("exact_counter needs k >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    width = math.comb(n + k - 1, k - 1)
    if width > max_width:
        raise WidthBudgetError(f"width {width} exceeds budget {max_width}")
    cx = _ColexCounter(k, n)
    s_arr = np.zeros((1, k - 1), dtype=np.int32)
    s_arr[0] = np.arange(k - 1)
    edges = []
    for t in range(n):
        targets = cx.symbol_targets(s_arr)
        edges.append(_stack_targets(targets))
        s_arr = cx.advance(s_arr, targets, math.comb(t + k, k - 1))
    vecs = cx.vectors(s_arr, n)
    outputs = RationalTable(vecs.astype(np.int64), np.ones(vecs.shape, np.int64))
    return Robp.build(counter_alphabet(k), edges, outputs)


def constant_program(n: int, outputs, alphabet: Alphabet | None = None) -> Robp:
    """Width-1 program: every input reaches the single final vertex."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    alphabet = alphabet or binary_alphabet()
    if not isinstance(outputs, (tuple, list)):
        outputs = (outputs,)
    row = [[0] * alphabet.size]
    return Robp.build(alphabet, [row] * n, [tuple(Fraction(v) for v in outputs)])


# ---------------------------------------------------------------------------
# tribes: AND of per-segment threshold clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TribesPlan:
    """Segment layout and threshold for the small-width counter."""

    n: int
    w: int
    l: int
    breakpoints: tuple[int, ...]  # p_0 = 0 < p_1 < ... < p_l = n
    threshold: int  # ones required per segment (w - 2)

    def __post_init__(self):
        lens = [b - a for a, b in zip(self.breakpoints, self.breakpoints[1:])]
        if max(lens) - min(lens) > 1:
            raise ValueError("segment lengths must differ by at most 1")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if min(lens) < self.threshold:
            raise ValueError("every segment must be at least threshold long")

    @property
    def min_segment(self) -> int:
        return min(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    @property
    def accept_ones(self) -> int:
        """Every accepted input has at least this many 1s."""
        return self.l * self.threshold

    @property
    def reject_zeros(self) -> int:
        """Every rejected input has at least this many 0s."""
        return self.min_segment - self.threshold + 1

    @property
    def gap(self) -> int:
        return min(self.accept_ones, self.reject_zeros)


def tribes_plan(n: int, w: int) -> TribesPlan:
    if not (n >= 1 and 3 <= w and 10 * w <= n):
        raise ValueError("tribes needs 3 <= w <= n/10")
    l = isqrt_floor_rational(Fraction(n, w))
    long_segments = n % l
    base = n // l
    points = [0]
    for j in range(l):
        points.append(points[-1] + base + (1 if j < long_segments else 0))
    return TribesPlan(n=n, w=w, l=l, breakpoints=tuple(points), threshold=w - 2)


def tribes(n: int, w: int, outputs: str = "symmetric") -> Robp:
    """Small-width approximate counter over bits.

    Computes the AND over segments of "segment contains >= w-2 ones" with a
    reject sink plus w-1 saturating in-segment count states. Output mode
    "symmetric" assigns n/2 +- gap/2, where gap = min(l*(w-2), floor(n/l)-w+3)
    is the smaller of the construction's integer guarantees on accepted and
    rejected inputs; "optimal" assigns the interval midpoints found by the
    verifier.
    """
    if outputs not in ("symmetric", "optimal"):
        raise ValueError("outputs must be 'symmetric' or 'optimal'")
    plan = tribes_plan(n, w)
    thr = plan.threshold
    interior_ends = set(plan.breakpoints[1:-1])

    def layer_states(t: int) -> tuple[bool, int]:
        """(sink present, max in-segment count) at layer t >= 1."""
        seg_start = max(b for b in plan.breakpoints if b < t)
        return seg_start > 0, min(t - seg_start, thr)

    edges = []
    for t in range(n):
        if t == 0:
            states = [("count", 0)]
        else:
            sink, top = layer_states(t)
            states = ([("sink", -1)] if sink else []) + [
                ("count", i) for i in range(top + 1)
            ]
        next_sink, _ = layer_states(t + 1)
        offset = 1 if next_sink else 0
        rolling = t in interior_ends  # reading the first bit of a new segment
        rows = []
        for kind, i in states:
            if kind == "sink":
                rows.append([0, 0])
            elif rolling:
                if i < thr:
                    rows.append([0, 0])  # finished segment failed its clause
                else:
                    rows.append([offset + 0, offset + 1])
            else:
                rows.append([offset + min(i, thr), offset + min(i + 1, thr)])
        edges.append(rows)

    sink, top = layer_states(n)
    final = ([("sink", -1)] if sink else []) + [("count", i) for i in range(top + 1)]
    accept = Fraction(n) / 2 + Fraction(plan.gap, 2)
    reject = Fraction(n) / 2 - Fraction(plan.gap, 2)
    out_rows = [(accept,) if st == ("count", thr) else (reject,) for st in final]
    p = Robp.build(binary_alphabet(), edges, out_rows)
    if outputs == "optimal":
        from .labeling import minimal_error

        _, best = minimal_error(p, binary_alphabet())
        p = Robp.build(binary_alphabet(), edges, best)
    return p


# ---------------------------------------------------------------------------
# rounded_counter: exact counting with one rounding step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundingPlan:
    """Parameters of the rounding construction for (n, k, delta)."""

    n: int
    k: int
    delta: Fraction
    l: int  # rounding ratio is (l-1)/l
    m: int  # suffix length counted exactly on top of the rounded tuple
    target_sum: int  # floor((l-1)/l * (n-m)); every rounded tuple sums to this


def rounding_plan(n: int, k: int, delta) -> RoundingPlan:
    delta = Fraction(delta)
    if k < 2 or n < 10 * k or delta < 10 or delta > Fraction(n, 10):
        raise ValueError("rounded_counter needs k >= 2, n >= 10k, 10 <= delta <= n/10")
    l = isqrt_ceil_rational(Fraction(n) / (delta - 1)) + 1
    m = isqrt_floor_rational(Fraction(n) * (delta - 1)) - 1
    target = (l - 1) * (n - m) // l
    return RoundingPlan(n=n, k=k, delta=delta, l=l, m=m, target_sum=target)


def rounded_counter_width_bound(n: int, k: int, delta) -> int:
    """Explicit width bound: the wider of the two counting phases."""
    plan = rounding_plan(n, k, delta)
    return max(
        math.comb(n - plan.m + k - 1, k - 1),
        math.comb(plan.target_sum + plan.m + k - 1, k - 1),
    )


def _round_vectors(avecs: np.ndarray, l: int, target_sum: int) -> np.ndarray:
    """Deterministic rounding of each row a to (l-1)/l * a: all floors, then
    bump the earliest coordinates with a fractional part until the row sums
    to target_sum."""
    scaled = avecs.astype(np.int64) * (l - 1)
    b = scaled // l
    fractional = (scaled % l) != 0
    deficit = target_sum - b.sum(axis=1)
    bump = fractional & (fractional.cumsum(axis=1) <= deficit[:, None])
    out = b + bump
    if not (out.sum(axis=1) == target_sum).all():
        raise AssertionError("rounding failed to hit the target sum")
    return out.astype(np.int32)


def rounded_counter(n: int, k: int, delta, *, max_width: int = DEFAULT_MAX_WIDTH) -> Robp:
    """Small-error k-counter.

    Counts the first n-m symbols exactly, rounds the count tuple to one
    summing to floor((l-1)/l * (n-m)) on the next transition, counts the
    last m symbols exactly on top, and outputs l/(l-1) times the final
    tuple. Verifies at the requested delta with width at most
    rounded_counter_width_bound(n, k, delta).
    """
    plan = rounding_plan(n, k, delta)
    l, m, s = plan.l, plan.m, plan.target_sum
    if rounded_counter_width_bound(n, k, delta) > max_width:
        raise WidthBudgetError(
            f"width bound {rounded_counter_width_bound(n, k, delta)} exceeds "
            f"budget {max_width}"
        )
    cx = _ColexCounter(k, n)
    edges = []

    # phase 1: exact counting through layer n-m
    s_arr = np.zeros((1, k - 1), dtype=np.int32)
    s_arr[0] = np.arange(k - 1)
    for t in range(n - m):
        targets = cx.symbol_targets(s_arr)
        edges.append(_stack_targets(targets))
        s_arr = cx.advance(s_arr, targets, math.comb(t + k, k - 1))

    # rounding transition out of layer n-m; phase 2 runs over the full
    # fixed-sum layers first and prunes unreachable vertices afterwards
    avecs = cx.vectors(s_arr, n - m)
    b = _round_vectors(avecs, l, s)
    full_sizes = [math.comb(s + j + k - 1, k - 1) for j in range(1, m + 1)]
    sb = cx.s_columns(b, s)
    tb = cx.symbol_targets(sb)
    trans = _stack_targets(tb)
    phase2 = []
    s_arr = cx.advance(sb, tb, full_sizes[0])
    for j in range(1, m):
        targets = cx.symbol_targets(s_arr)
        phase2.append(_stack_targets(targets))
        s_arr = cx.advance(s_arr, targets, full_sizes[j])
    vecs = cx.vectors(s_arr, s + m)

    # reachability over the full phase-2 layers
    masks = [np.zeros(full_sizes[0], dtype=bool)]
    masks[0][trans] = True
    for j in range(1, m):
        nxt = np.zeros(full_sizes[j], dtype=bool)
        nxt[phase2[j - 1][masks[j - 1]]] = True
        masks.append(nxt)
    remaps = [np.cumsum(mk, dtype=np.int64).astype(np.int32) - 1 for mk in masks]
    edges.append(remaps[0][trans])
    for j in range(1, m):
        edges.append(remaps[j][phase2[j - 1][masks[j - 1]]])
    vecs = vecs[masks[-1]]

    num = vecs.astype(np.int64) * l
    den = np.full(vecs.shape, l - 1, dtype=np.int64)
    return Robp.build(counter_alphabet(k), edges, RationalTable(num, den))
