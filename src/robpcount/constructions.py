"""Explicit program constructions.

* exact_counter -- the trivial exact k-symbol counter (width C(n+k-1, k-1)).
* tribes -- the small-width binary counter: AND of per-segment thresholds.
* rounded_counter -- the small-error k-counter: exact counting, one rounding
  step near the end, exact counting on top of the rounded tuple.
* constant_program -- the width-1 baseline.

Layer vertices of counting phases are count vectors with a fixed sum,
indexed by a combinatorial rank that does not depend on the sum, so the
layer of sum t and its edges are the first C(t+k-1, k-1) rows of one
shared, read-only table built once per program; for k = 2 the index of a
vector equals its second coordinate. Every counting layer is such a
prefix, rounded_counter's phase 2 included: its one rounding transition
is the only edge layer that is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import as_integer, as_rational, isqrt_ceil_rational, isqrt_floor_rational
from .robp import Alphabet, RationalTable, Robp, binary_alphabet, counter_alphabet

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


# Count vectors (c_1..c_k) with sum t are indexed by the colex rank of the
# partial-sum set of the reversed vector: with d = (c_k..c_1) and
# S_i = d_1+..+d_i + (i-1), {S_1 < .. < S_{k-1}} is a (k-1)-subset of
# range(t+k-1) and the index is sum_i C(S_i, i). Colex order lists every
# subset of range(t+k-1) before any subset that reaches t+k-1, and the rank
# formula does not mention t, so the layer of sum t is the first
# C(t+k-1, k-1) rows of the colex table of a wider layer. The same holds
# for the edges: rank(c + e_z) - rank(c) telescopes to
# sum_{i >= k+1-z} C(S_i, i-1) by Pascal's rule, again without t. So every
# counting layer is a row prefix of one table of S-columns and one table
# of edges.


def _colex_subsets(r: int, size: int, binom: np.ndarray) -> np.ndarray:
    """The S-columns of all count vectors of sum size - r over r + 1
    letters: the r-subsets of range(size) as sorted int32 rows, in colex
    order."""
    out = np.zeros((1, 0), dtype=np.int32)
    for j in range(1, r + 1):
        # the j-subsets with largest element x are the first C(x, j-1)
        # (j-1)-subsets, each followed by x, after the C(x, j) j-subsets
        # of range(x)
        last = np.repeat(np.arange(size - r + j, dtype=np.int32), binom[: size - r + j, j - 1])
        rows = np.arange(len(last)) - binom[last, j]
        out = np.column_stack([out[rows], last])
    return out


def _rank(s_cols: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Layer index of each count vector from its S-columns (int64)."""
    rank = np.zeros(len(s_cols), dtype=np.int64)
    for i in range(1, s_cols.shape[1] + 1):
        rank += binom[s_cols[:, i - 1], i]
    return rank


def _symbol_targets(s_cols: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Next-layer index of c + e_z for each row's vector c and letter z, as
    a (rows, k) int32 table."""
    k = s_cols.shape[1] + 1
    out = np.empty((len(s_cols), k), dtype=np.int32)
    target = _rank(s_cols, binom)
    out[:, 0] = target
    for z in range(1, k):
        # letter z+1 bumps S_i for every i >= k-z
        target += binom[s_cols[:, k - z - 1], k - z - 1]
        out[:, z] = target
    return out


def _vectors(s_cols: np.ndarray, total: int) -> np.ndarray:
    """Recover count vectors from S-columns (layer sum is `total`)."""
    v, r = s_cols.shape
    d = np.empty((v, r + 1), dtype=np.int32)
    d[:, 0] = s_cols[:, 0]
    d[:, 1:r] = np.diff(s_cols, axis=1) - 1
    d[:, r] = total - (s_cols[:, r - 1] - (r - 1))
    return d[:, ::-1].copy()


def _s_columns(vecs: np.ndarray, total: int) -> np.ndarray:
    """S-columns of count vectors with sum `total`: S_i = total -
    (c_1+..+c_{k-i}) + i - 1."""
    r = vecs.shape[1] - 1
    prefixes = np.cumsum(vecs[:, :r], axis=1, dtype=np.int64)
    return (total - prefixes[:, ::-1] + np.arange(r)).astype(np.int32)


def _counting_tables(k: int, max_sum: int):
    """(binom, S, E) for one program's counting layers. S holds the
    S-columns of the count vectors of sum at most max_sum, so the layer of
    sum t is S[:C(t+k-1, k-1)]; E is the read-only edge table of those of
    sum below max_sum, so that layer's edges are E[:C(t+k-1, k-1)]."""
    size = max_sum + k - 1
    binom = _binom_table(size, k - 1)
    s_cols = _colex_subsets(k - 1, size, binom)
    table = _symbol_targets(s_cols[: math.comb(size - 1, k - 1)], binom)
    table.flags.writeable = False
    return binom, s_cols, table


def exact_counter(n: int, k: int, *, max_width: int = DEFAULT_MAX_WIDTH) -> Robp:
    """Exact k-symbol counter: layer t is all count vectors summing to t."""
    if k < 2:
        raise ValueError("exact_counter needs k >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    width = math.comb(n + k - 1, k - 1)
    if width > max_width:
        raise WidthBudgetError(f"width {width} exceeds budget {max_width}")
    _, s_cols, table = _counting_tables(k, n)
    edges = [table[: math.comb(t + k - 1, k - 1)] for t in range(n)]
    vecs = _vectors(s_cols, n)
    # integer outputs: in lowest terms over 1 already
    outputs = RationalTable._reduced(vecs.astype(np.int64), np.ones(vecs.shape, np.int64))
    return Robp.build(counter_alphabet(k), edges, outputs)


def constant_program(n: int, outputs, alphabet: Alphabet | None = None) -> Robp:
    """Width-1 program: every input reaches the single final vertex."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    alphabet = alphabet or binary_alphabet()
    if not isinstance(outputs, (tuple, list)):
        outputs = (outputs,)
    row = [[0] * alphabet.size]
    return Robp.build(alphabet, [row] * n, [tuple(map(as_rational, outputs))])


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

    @property
    def error(self) -> Fraction:
        """The error tribes certifies with symmetric outputs: n/2 - gap/2."""
        return Fraction(self.n - self.gap, 2)


def tribes_plan(n: int, w: int) -> TribesPlan:
    w = as_integer(w, "w")
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
    out_rows = [(n - plan.error,) if st == ("count", thr) else (plan.error,) for st in final]
    p = Robp.build(binary_alphabet(), edges, out_rows)
    if outputs == "optimal":
        from .labeling import minimal_error

        _, best = minimal_error(p, binary_alphabet())
        p = p._with_outputs(best)
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

    @property
    def width_bound(self) -> int:
        """The wider of the two counting phases."""
        n, k, m = self.n, self.k, self.m
        return max(math.comb(n - m + k - 1, k - 1), math.comb(self.target_sum + m + k - 1, k - 1))


def rounding_plan(n: int, k: int, delta) -> RoundingPlan:
    delta = as_rational(delta)
    if k < 2 or n < 10 * k or delta < 10 or delta > Fraction(n, 10):
        raise ValueError("rounded_counter needs k >= 2, n >= 10k, 10 <= delta <= n/10")
    l = isqrt_ceil_rational(Fraction(n) / (delta - 1)) + 1
    m = isqrt_floor_rational(Fraction(n) * (delta - 1)) - 1
    target = (l - 1) * (n - m) // l
    return RoundingPlan(n=n, k=k, delta=delta, l=l, m=m, target_sum=target)


def rounded_counter_width_bound(n: int, k: int, delta) -> int:
    """Explicit width bound: the wider of the two counting phases."""
    return rounding_plan(n, k, delta).width_bound


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
    tuple. Verifies at the requested delta with width equal to
    rounded_counter_width_bound(n, k, delta).
    """
    plan = rounding_plan(n, k, delta)
    l, m, s = plan.l, plan.m, plan.target_sum
    if plan.width_bound > max_width:
        raise WidthBudgetError(f"width bound {plan.width_bound} exceeds budget {max_width}")
    # phase 1 counts exactly through the layer of sum n-m; phase 2 counts
    # on top of the rounded tuples (sum s) through the layer of sum s+m
    first = n - m
    binom, s_cols, table = _counting_tables(k, max(first, s + m))
    edges = [table[: math.comb(t + k - 1, k - 1)] for t in range(first)]
    b = _round_vectors(_vectors(s_cols[: math.comb(first + k - 1, k - 1)], first), l, s)

    # The rounding transition goes where the rounded tuple's own edges go.
    # Rounding maps the vectors of sum N = n-m onto those of sum s, so every
    # phase-2 layer is full. With q = l-1, b_i rounds from b_i + floor(b_i/q)
    # + 1 unbumped, b_i + ceil(b_i/q) - 1 bumped (b_i >= 1) and b_i + b_i/q
    # exactly (q | b_i). Take coordinates 1..p bumped or exact, the rest
    # unbumped, as _round_vectors bumps the earliest fractional ones. As p
    # falls from k to 0 the preimage sum steps by 1, or by 2 with an exact
    # coordinate between, from all bumped to all unbumped; those bracket N,
    # as ceil(N/l) = N - s is floor(s/q) or floor(s/q) + 1.
    rounding = table.take(_rank(_s_columns(b, s), binom), axis=0)
    rounding.flags.writeable = False  # so Robp keeps it without a copy
    edges.append(rounding)
    edges += [table[: math.comb(s + j + k - 1, k - 1)] for j in range(1, m)]
    vecs = _vectors(s_cols[: math.comb(s + m + k - 1, k - 1)], s + m)

    return Robp.build(counter_alphabet(k), edges, _scaled_outputs(vecs, l))


def _scaled_outputs(vecs: np.ndarray, l: int) -> RationalTable:
    """The table of l * v / (l - 1) over the nonnegative counts v of vecs, in
    lowest terms: gcd(l * v, l - 1) = gcd(v, l - 1), as l and l - 1 are
    coprime, and is read from a table of gcd(r, l - 1) at r = v mod (l - 1)
    (gcd(0, l - 1) = l - 1, so a zero count is 0 over 1)."""
    q = l - 1
    g = np.gcd(np.arange(q, dtype=np.int64), q).take(vecs % q)
    return RationalTable._reduced(vecs.astype(np.int64) * l // g, q // g)
