"""Per-vertex rectangle labels and the exact verifier built on them.

The label of a vertex is the coordinatewise min/max of the tracked
counts over all input prefixes reaching it. Labels propagate forward:
the label of v is the min/max hull of label(u) + shift(z) over incoming
edges (u, z), where shift(z) is row z of the program's alphabet.shifts.
Every endpoint is achieved by a concrete prefix, which is what makes
verify() an exact decision procedure rather than a bound:
a program computes its counting problem within delta iff every final
vertex's output sits within delta of both ends of its label, coordinate
by coordinate.

Label modes:
  full       one coordinate per tracked count -- what verification needs.
  potential  the first k-1 columns of the full labels for counter-family
             programs (the last letter's count is fixed by the others; for
             binary programs the two modes coincide) -- what the potential
             audits consume. Both modes run the one DP over the full shift
             table; the mode only chooses which columns are copied out.

Each layer of the DP is one scatter-min of packed (lo, -hi) rows,
_kernel.label_step (in C, or in numpy without a C compiler). Labels leave
the DP in two ways:
  - compute_labels copies each layer's lo and hi columns out with
    _kernel.label_split right after its step, while the packed layer is
    still in cache, into two fresh arrays per layer.
  - A program cannot change, so every DP over it (compute_labels's in
    either mode, or the one verify or minimal_error runs on a program that
    has none) leaves its last packed layer on the program, read-only.
    verify, minimal_error and the final audits (through verify) read that
    layer, so each program's last label layer is computed once for all
    three, and a program rebuilt with other outputs on the same edges
    (Robp._with_outputs) takes it along. minimal_error writes its midpoint
    table from it directly in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernel
from .exact import as_rational
from .robp import Alphabet, RationalTable, Robp, _frozen, _require_valid


@dataclass(frozen=True)
class RectLabel:
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("malformed rectangle")

    @property
    def dims(self) -> int:
        return len(self.lo)

    def contains(self, x) -> bool:
        return all(a <= v <= b for a, v, b in zip(self.lo, x, self.hi))


def _potential_k(alphabet: Alphabet) -> int:
    return 2 if alphabet.kind == "binary" else alphabet.k


def _label_arrays(lo, hi):
    """One layer's lo and hi as read-only C-contiguous arrays of one dtype:
    int16 when both are int16, else int32. An array that already is one and
    that _frozen says nothing can write is kept as is; any other is copied,
    so the caller's array keeps its flags and cannot change the labels
    afterwards. Non-integer labels, or labels outside int32, raise
    ValueError."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    dtype = np.int16 if lo.dtype == hi.dtype == np.int16 else np.int32
    out = []
    for a in (lo, hi):
        if a.dtype == dtype and a.flags.c_contiguous and _frozen(a):
            out.append(a)
            continue
        if a.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, not {a.dtype}")
        if a.size and not np.can_cast(a.dtype, dtype) and (
            a.min() < np.iinfo(dtype).min or a.max() > np.iinfo(dtype).max
        ):
            raise ValueError("labels must fit int32")
        a = np.array(a, dtype=dtype, order="C")
        a.flags.writeable = False
        out.append(a)
    return tuple(out)


class LabeledRobp:
    """A program plus its per-vertex rectangle labels for every layer.

    The constructor checks that every layer holds rectangles: lo and hi
    2-d, of one shape, with one column count across layers, 0 <= lo <= hi.
    It keeps them as tuples of read-only arrays (see _label_arrays), and a
    LabeledRobp refuses changes to its fields, so the labels stay as
    checked."""

    __slots__ = ("p", "dims", "potential_k", "lo", "hi")

    def __init__(self, p: Robp, lo: list[np.ndarray], hi: list[np.ndarray]):
        if len(lo) != p.n + 1 or len(hi) != p.n + 1:
            raise ValueError(
                f"malformed rectangle arrays: {len(lo)} lo and {len(hi)} hi layers"
                f" for {p.n + 1} program layers"
            )
        lo, hi = zip(*(_label_arrays(a, b) for a, b in zip(lo, hi)))
        for t, (a, b) in enumerate(zip(lo, hi)):
            if a.ndim != 2 or a.shape != b.shape or a.shape[1] != lo[0].shape[1]:
                raise ValueError(
                    f"malformed rectangle arrays in layer {t}: lo {a.shape}, hi {b.shape}"
                )
            if len(a) and (a.min() < 0 or (b < a).any()):
                raise ValueError(f"malformed rectangle in layer {t}: need 0 <= lo <= hi")
        self._set(p, lo, hi)

    def _set(self, p: Robp, lo: tuple, hi: tuple) -> None:
        fields = (p, lo[0].shape[1], _potential_k(p.alphabet), lo, hi)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    @classmethod
    def _built(cls, p: Robp, lo: list[np.ndarray], hi: list[np.ndarray]) -> "LabeledRobp":
        """Labels that compute_labels has built from the DP, kept as given
        without the constructor's checks: one lo and one hi per layer of p,
        read-only C-contiguous arrays of one dtype that own their memory, of
        one column count, and 0 <= lo <= hi by construction."""
        lp = object.__new__(cls)
        lp._set(p, tuple(lo), tuple(hi))
        return lp

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a LabeledRobp is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LabeledRobp, (self.p, self.lo, self.hi)

    def label(self, t: int, v: int) -> RectLabel:
        return RectLabel(
            tuple(int(x) for x in self.lo[t][v]),
            tuple(int(x) for x in self.hi[t][v]),
        )

    def layer_rectangles(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        return self.lo[t], self.hi[t]


def _shifts(p: Robp) -> np.ndarray:
    """p.alphabet.shifts, or a table with no rows when p has no edge layer
    to read it: a program of n = 0 over 2**k parallel symbols needs none of
    its 2**k rows."""
    return p.alphabet.shifts if p.n else np.zeros((0, p.alphabet.arity), np.int32)


def _label_layers(p: Robp, shifts: np.ndarray):
    """Forward DP over layers; exact by induction on achieved prefixes.

    Validates p, then yields each layer's labels as one packed array whose
    first d columns are lo and last d columns are -hi (d = shifts columns),
    layer 0 first. Each yielded array is fresh; the DP keeps only the last.
    """
    _require_valid(p)
    d = shifts.shape[1]
    # counts fit int16 at desk scale; sentinel is the dtype max
    dtype = np.int16 if p.n <= 30_000 else np.int32
    sentinel = np.iinfo(dtype).max
    # lo and negated hi ride in one array so every step is a scatter-min
    shifts2 = np.concatenate([shifts, -shifts], axis=1).astype(dtype)
    state = np.zeros((1, 2 * d), dtype=dtype)
    yield state
    for t in range(p.n):
        nxt = np.full((p.layer_sizes[t + 1], 2 * d), sentinel, dtype=dtype)
        _kernel.label_step(state, p.edge_array(t), shifts2, nxt)
        state = nxt
        yield state


def _keep_last_layer(p: Robp, state: np.ndarray) -> None:
    """Keep the last layer _label_layers yielded for p's own shift table on
    p, read-only, for _final_labels."""
    state.flags.writeable = False
    object.__setattr__(p, "_last_labels", state)


def compute_labels(p: Robp, mode: str = "full") -> LabeledRobp:
    """Labels of every layer; "potential" keeps the first k-1 columns."""
    shifts = _shifts(p)
    d = shifts.shape[1]
    if mode == "potential":
        if p.alphabet.kind == "parallel":
            raise ValueError("parallel programs have only the full labeling")
        d = _potential_k(p.alphabet) - 1
    elif mode != "full":
        raise ValueError(f"unknown label mode {mode!r}")
    lo, hi = [], []
    for state in _label_layers(p, shifts):
        # copied out while the layer is in cache; LabeledRobp keeps these
        # read-only arrays, which own their memory, uncopied
        a, b = _kernel.label_split(state, d)
        a.flags.writeable = b.flags.writeable = False
        lo.append(a)
        hi.append(b)
    _keep_last_layer(p, state)
    return LabeledRobp._built(p, lo, hi)


def _final_labels(p: Robp) -> tuple[np.ndarray, np.ndarray]:
    """Full labels of the final layer, in the DP's int16 or int32 dtype: from
    the last layer kept on p, or from a DP run here that holds one layer at
    a time and keeps it."""
    _require_valid(p)
    if p._last_labels is None:
        for state in _label_layers(p, _shifts(p)):
            pass
        _keep_last_layer(p, state)
    state = p._last_labels
    d = state.shape[1] // 2
    return state[:, :d], -state[:, d:]


def edge_monotone(lp: LabeledRobp) -> bool:
    """Per-edge label containment: label(u) + shift(z) inside label(v)."""
    p = lp.p
    shifts = _shifts(p)[:, : lp.dims]
    for t in range(p.n):
        edges = p.edge_array(t)
        for sym in range(p.alphabet.size):
            tgt = edges[:, sym]
            if (lp.lo[t] + shifts[sym] < lp.lo[t + 1][tgt]).any():
                return False
            if (lp.hi[t] + shifts[sym] > lp.hi[t + 1][tgt]).any():
                return False
    return True


@dataclass(frozen=True)
class VerifyCertificate:
    valid: bool
    delta: Fraction
    max_halfwidth: Fraction
    worst: tuple[int, int, Fraction] | None = None  # (final vertex, coord, excess)


def _check_problem(p: Robp, problem: Alphabet):
    if not isinstance(problem, Alphabet):
        raise ValueError(f"problem must be an Alphabet, not {type(problem).__name__}")
    if p.alphabet != problem:
        raise ValueError(
            f"program alphabet {p.alphabet.kind}/{p.alphabet.k} does not match "
            f"problem {problem.kind}/{problem.k}"
        )


def verify(p: Robp, problem: Alphabet, delta) -> VerifyCertificate:
    """Exact decision: does p solve the counting problem within delta?

    valid iff for every final vertex v and coordinate j both
    hi_j - out_j <= delta and out_j - lo_j <= delta; label endpoints are
    achieved, so this is equivalent to correctness on every input.
    """
    delta = as_rational(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    _check_problem(p, problem)
    lo, hi = _final_labels(p)
    out = p.outputs_table
    num, den = out.num, out.den
    if num.size and (
        int(den.max()) > 2**15 or int(np.abs(num).max()) > 2**30 or p.n > 2**15
    ):
        # oversized rationals: do the arithmetic on Python ints
        num, den = num.astype(object), den.astype(object)
        lo, hi = lo.astype(object), hi.astype(object)
    # halfwidth numerators over per-element denominators
    m = np.maximum(hi * den - num, num - lo * den)
    # the distinct denominators; on the int64 path each is at most 2**15
    qs = set(den.flat) if den.dtype == object else np.flatnonzero(np.bincount(den.ravel()))
    max_hw = Fraction(0)
    for q in qs:
        mq = m if len(qs) == 1 else m[den == q]
        max_hw = max(max_hw, Fraction(int(mq.max()), int(q)))
    valid = max_hw <= delta
    worst = None
    if not valid:
        hit = m * max_hw.denominator == max_hw.numerator * den
        v, j = np.argwhere(hit)[0]
        worst = (int(v), int(j), max_hw - delta)
    return VerifyCertificate(valid=valid, delta=delta, max_halfwidth=max_hw, worst=worst)


def minimal_error(p: Robp, problem: Alphabet):
    """Best achievable additive error for p's structure, with the outputs
    that achieve it: the interval midpoints, as a RationalTable. Existing
    outputs are ignored."""
    _check_problem(p, problem)
    lo, hi = _final_labels(p)
    length = (hi - lo).max() if lo.size else 0
    delta_star = Fraction(int(length), 2)
    # (lo + hi) / 2 in lowest terms: s >> 1 over 1 for an even s, s over 2
    # for an odd one (labels are nonnegative, so s >= 0); the int64 sum is
    # what _reduced keeps, and an int16 one would wrap past n = 16383
    s = lo.astype(np.int64) + hi
    den = (s & 1) + 1
    return delta_star, RationalTable._reduced(s >> (2 - den), den)
