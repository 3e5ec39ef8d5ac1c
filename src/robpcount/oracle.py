"""Ground truth at desk scale.

* exhaustive_verify -- evaluate every input (chunked, a layer at a time).
* random_robp -- seeded program generator for property tests.
* frontier -- exact minimal binary-counting error at width w, by layered
  search over interval systems (sound and complete for the two-symbol
  case: programs induce systems, and systems convert back to programs).
* frontier_column -- frontier(n, w) for every n up to n_max, from one search.
* frontier_brute_force -- the same quantity by exhaustive enumeration of
  program behaviors, one mirror orbit at a time (_brute_force_orbits); the
  independent cross-check for the frontier.
* system_to_robp -- the converse construction, one vertex per interval.

Every search state, ((0, 0),) and each tuple of run hulls _runs yields, is
an antichain sorted by both endpoints: a_0 < a_1 < ... and b_0 < b_1 < ... .
So obligations take one pass. _runs makes only the finest splits, as each
coarser one has a refinement inside it.

The search takes no limit on interval lengths, and its layers give the whole
column of optima at once. It keeps, within any limit L, exactly the states and
parents that a search pruning every interval longer than L keeps:
* A child is never shorter than its parent, so an over-limit parent has only
  over-limit children, and the first parent recorded for a within-limit child
  is the same with or without the limit.
* A dominator is never longer than the state it dominates, so the pruner drops
  the same within-limit states.
* By induction, the limit-L survivors are exactly the survivors whose longest
  interval is at most L. So the smallest longest interval among the layer-n
  survivors is twice Delta*(n, w), and the witness is the survivor smallest by
  (longest interval, state), backtracked through the parents.

The pruner compares down-sets: D(S) has one bit for every interval inside one
of S's, and B lies inside A exactly when D(B) is a subset of D(A). A down-set
strictly inside another has fewer bits, so visiting states smallest D(S) first
puts every dominator first. A state is kept unless a kept down-set lies inside
its own, and "inside" is transitive, so nothing needs removing afterwards.

Swapping the symbols 0 and 1 maps a width-w program to another of the same
width and error; on a layer-t state it sends each [a, b] to [t - b, t - a]
(_mirror). The mirror commutes with every step: the mirror of R + 1 at layer
t + 1 is the mirror of R at layer t, and the mirror of R is that plus 1, so
obligations map to obligations; it reverses the sorted order, so runs map to
runs; and it maps the intervals inside [a, b] one to one onto those inside
the image, so it keeps down-set inclusion and bit counts. So each layer is
closed under the mirror, and the search keeps one member of each orbit,
min(S, mirror(S)): only those generate children, and the pruner checks one
mask per candidate against both masks of every kept orbit. The states of a
layer are those representatives and their mirrors, each with the parent the
search without the quotient records, its smallest generator: r generates c
exactly when mirror(r) generates mirror(c), so each child c of a
representative r offers r to c and mirror(r) to mirror(c), and every state
keeps its smallest offer.

The brute force shares none of that. From each state it takes every
partition of the 2|S| obligation slots into at most w blocks (not only the
runs of sorted obligations), labels each block by its hull, and keeps every
child, with no dominance and no pruning. For speed, each state first
tabulates the hull of every nonempty subset of its slots, at most 2^(2w)
entries, and each partition is a tuple of block bitmasks, so a child is a
sorted lookup. Each entry is its block's min and max, so the enumeration is
unchanged; the table is rebuilt for every state, and nothing is kept between
calls. A hull is a coordinatewise min/max, so the same table serves boxes.
It uses the mirror only as a quotient, which is exact because the mirror
maps slots to slots and hulls to hulls: it expands one configuration of
each orbit per layer, sorting each mirror again since a configuration may
hold nested or repeated hulls, and still uses no runs lemma, no dominance
and no pruning. frontier_brute_force reads the longest block of every
partition straight off the layer n - 1 tables, without building layer n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from operator import or_
from typing import TYPE_CHECKING

from .exact import as_integer, as_rational, is_integer

# The interval search and the brute force are pure Python; numpy and the
# program modules are imported by the functions that build or run programs,
# so the frontier starts without them.
if TYPE_CHECKING:
    from .robp import Alphabet, Robp

DEFAULT_MAX_INPUTS = 2**24
DEFAULT_FRONTIER_N = 12
DEFAULT_FRONTIER_W = 4


class BudgetError(ValueError):
    """Requested computation exceeds the configured search budget."""


def exhaustive_verify(
    p: Robp, problem: Alphabet, delta, *, max_inputs: int = DEFAULT_MAX_INPUTS
) -> bool:
    """Evaluate every input; True iff every output is within delta of the
    true counts. Inputs go lexicographically in chunks; a chunk walks the
    program one layer at a time, taking only that position's symbols."""
    import numpy as np

    from .labeling import _check_problem, _shifts
    from .robp import _require_valid

    delta = as_rational(delta)
    _check_problem(p, problem)
    size = p.alphabet.size
    total = size**p.n
    if total > max_inputs:
        raise BudgetError(f"{total} inputs exceed budget {max_inputs}")
    _require_valid(p)
    out = p.outputs_table
    num, den = out.num, out.den
    dn, dd = delta.numerator, delta.denominator
    if num.size and (
        int(den.max()) > 2**15
        or int(np.abs(num).max()) > 2**30
        or dd > 2**15
        or dn > 2**30
        or p.n > 2**15
    ):
        num, den = num.astype(object), den.astype(object)
    shifts = _shifts(p)
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        states = np.zeros(len(idx), dtype=np.int64)
        counts = np.zeros((len(idx), problem.arity), dtype=np.int64)
        for t in range(p.n):
            sym = idx // size ** (p.n - 1 - t) % size
            states = p.edge_array(t)[states, sym]
            counts += shifts[sym]
        n_v, d_v = num[states], den[states]
        # |num/den - c| <= delta  <=>  |num - c*den| * dd <= dn * den
        if (np.abs(n_v - counts * d_v) * dd > dn * d_v).any():
            return False
    return True


def random_robp(n: int, alphabet: Alphabet, w: int, seed: int) -> Robp:
    """Seeded random valid program: random layer sizes (30% of layers forced
    to width 1 to exercise label merging), random edges, unreachable
    vertices pruned, outputs set to the label midpoints."""
    from .labeling import minimal_error
    from .robp import Robp

    if not is_integer(n) or n < 0:
        raise ValueError(f"random_robp needs an integer n >= 0, not {n!r}")
    if as_integer(w, "w") < 1:
        raise ValueError("w >= 1 required")
    rng = random.Random(seed)
    sizes = [1] + [
        1 if rng.random() < 0.3 else rng.randint(1, w) for _ in range(n)
    ]
    size = alphabet.size
    edges = [
        [[rng.randrange(sizes[t + 1]) for _ in range(size)] for _ in range(sizes[t])]
        for t in range(n)
    ]
    # prune unreachable vertices layer by layer, remapping targets
    reach = [0]
    for t in range(n):
        hit = sorted({edges[t][u][z] for u in reach for z in range(size)})
        remap = {old: new for new, old in enumerate(hit)}
        edges[t] = [[remap[edges[t][u][z]] for z in range(size)] for u in reach]
        if t + 1 < n:
            edges[t + 1] = [edges[t + 1][old] for old in hit]
        reach = list(range(len(hit)))
        sizes[t + 1] = len(hit)
    placeholder = [(Fraction(0),) * alphabet.arity] * sizes[n]
    p = Robp.build(alphabet, edges, placeholder)
    _, midpoints = minimal_error(p, alphabet)
    return Robp.build(alphabet, edges, midpoints)


# ---------------------------------------------------------------------------
# Interval systems and the exact width/error frontier (binary problem)
# ---------------------------------------------------------------------------

Interval = tuple[int, int]


@dataclass(frozen=True)
class IntervalSystem:
    """Per-layer antichains of intervals with containment witnesses.

    Layer 0 is {[0,0]}; each interval R in layer t names the layer-(t+1)
    interval containing R (witness0) and the one containing R+1 (witness1).
    """

    n: int
    layers: tuple[tuple[Interval, ...], ...]
    witness0: tuple[tuple[int, ...], ...]
    witness1: tuple[tuple[int, ...], ...]

    def check(self):
        """Raise ValueError unless layer 0 is {[0,0]}, every layer t is an
        antichain inside [0, t], and every interval of layers 0..n-1 has both
        witnesses, each an index into the next layer of an interval that
        contains its obligation. n, every endpoint and every witness must be
        an int; a bool or a float is refused, not read as one. The tables,
        their rows and the intervals are tuples or lists, each interval a pair."""
        if not is_integer(self.n) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, not {self.n!r}")
        seq, tables = (tuple, list), (self.layers, self.witness0, self.witness1)
        # each table is checked, as a row of tables, before its rows are iterated
        if not (
            all(isinstance(row, seq) for table in (tables, *tables) for row in table)
            and all(isinstance(r, seq) and len(r) == 2 for layer in self.layers for r in layer)
        ):
            raise ValueError("layers must hold pairs (a, b) and witnesses tuples of indices")
        if len(self.layers) != self.n + 1 or self.layers[0] != ((0, 0),):
            raise ValueError("layer 0 must be exactly {[0,0]}")
        if not len(self.witness0) == len(self.witness1) == self.n:
            raise ValueError(f"need {self.n} witness tuples of each kind")
        for t, layer in enumerate(self.layers):
            for i, (a, b) in enumerate(layer):
                if not (is_integer(a) and is_integer(b) and 0 <= a <= b <= t):
                    raise ValueError(f"interval [{a},{b}] invalid at layer {t}")
                if any(j != i and c <= a and b <= d for j, (c, d) in enumerate(layer)):
                    raise ValueError(f"layer {t} is not an antichain")
        for t in range(self.n):
            nxt = self.layers[t + 1]
            for shift, wits in ((0, self.witness0[t]), (1, self.witness1[t])):
                in_next = all(is_integer(j) and 0 <= j < len(nxt) for j in wits)
                if len(wits) != len(self.layers[t]) or not in_next:
                    raise ValueError(f"layer {t} needs one witness in layer {t + 1} per interval")
                for i, ((a, b), j) in enumerate(zip(self.layers[t], wits)):
                    if not (nxt[j][0] <= a + shift and b + shift <= nxt[j][1]):
                        raise ValueError(
                            f"unwitnessed obligation at layer {t}, interval {i}, shift {shift}"
                        )

    @property
    def max_final_length(self) -> int:
        return max(b - a for a, b in self.layers[-1])


@dataclass(frozen=True)
class FrontierPoint:
    n: int
    w: int
    delta_star: Fraction
    witness: IntervalSystem


def _maximal_obligations(state: tuple[Interval, ...]) -> list[Interval]:
    """R and R+1 for every interval R of the state, less the nested ones, in
    sorted order. Of the intervals R_i+1 and R_{i+1}, the first lies inside
    the second when a_{i+1} = a_i + 1, the second inside the first when
    b_{i+1} = b_i + 1; no other two can nest."""
    obs: list[Interval] = []
    for a, b in state:
        if obs and obs[-1][0] == a:  # the last, R_{i-1}+1, lies inside [a, b]
            obs[-1] = (a, b)
        elif not obs or obs[-1][1] != b:  # unless [a, b] lies inside the last
            obs.append((a, b))
        obs.append((a + 1, b + 1))
    return obs


@cache
def _interval_down_set(x: int, y: int) -> int:
    """One bit for every interval [c, d] inside [x, y], at d(d+1)/2 + c: for
    each d, the bits c = x..d form one run."""
    return sum(((1 << (d - x + 1)) - 1) << (d * (d + 1) // 2 + x) for d in range(x, y + 1))


def _down_set(state: tuple[Interval, ...]) -> int:
    """D(state): one bit for every interval inside one of the state's."""
    return reduce(or_, (_interval_down_set(x, y) for x, y in state), 0)


def _mirror(state: tuple[Interval, ...], t: int) -> tuple[Interval, ...]:
    """The state at layer t with the symbols 0 and 1 swapped: each [a, b]
    becomes [t - b, t - a]. Sorted again, as a configuration may hold nested
    or repeated intervals; on a sorted antichain the sort only reverses."""
    return tuple(sorted([(t - b, t - a) for a, b in state]))


def _prune_dominated(states, mirror) -> set:
    """Keep states not dominated by another: B dominates A when every
    interval of B fits inside some interval of A (smaller is never worse),
    that is, when D(B) & ~D(A) == 0. A dominator has fewer bits, so it comes
    first, and each state is checked against the kept ones.

    states holds one member of each mirror orbit, and both members of every
    orbit that survives are returned. The mirror keeps bit counts and
    inclusion, so with both masks of each kept orbit on the kept list, one
    check per candidate decides for its mirror too."""
    masks = {s: _down_set(s) for s in states}
    kept: dict[tuple[Interval, ...], int] = {}
    for a, mask in sorted(masks.items(), key=lambda item: item[1].bit_count()):
        outside = ~mask
        if all(b & outside for b in kept.values()):
            kept[a] = mask
            image = mirror(a)
            kept[image] = _down_set(image)
    return set(kept)


def _runs(obs: list[Interval], w: int):
    """Hulls of every split of obs into exactly min(w, len(obs)) contiguous runs."""
    m = len(obs)
    # Splits into fewer runs would always be pruned, so none is generated:
    # - Refining a split gives hulls that each lie inside a hull of the
    #   coarser split. The result is a different antichain, so the coarser
    #   state is dominated.
    # - "Inside" is transitive, and two antichains that lie inside each other
    #   are equal, so every state the coarser split pruned is still pruned
    #   by the refinement.
    # - A surviving state is never a coarse split of any parent, so the parent
    #   recorded for it, and hence the witness chain, do not change.
    for cuts in combinations(range(1, m), min(w, m) - 1):
        bounds = (0, *cuts, m)
        yield tuple((obs[i][0], obs[j - 1][1]) for i, j in zip(bounds, bounds[1:]))


def _search(n: int, w: int, max_n: int, max_w: int) -> list[dict]:
    """Layers 0..n of surviving states, each mapped to its parent.

    Contiguous runs of the sorted obligations are enough: they form an
    antichain sorted by both endpoints, so sending each to the first maximal
    hull of any partition that contains it is monotone, and the runs' hulls
    fit inside that partition's hulls. Only splits into min(w, m) runs are
    made, since each coarser one is always pruned: the pruned states are the same.

    Only one member of each mirror orbit generates children (see the module
    docstring); both members are kept, each with its smallest generator as
    parent, as the search without the quotient records: a child c of the
    representative r offers r to c and mirror(r) to mirror(c)."""
    if n > max_n or w > max_w:
        raise BudgetError(f"frontier({n},{w}) over budget ({max_n},{max_w})")
    if n < 0 or w < 1:
        raise ValueError("need n >= 0, w >= 1")
    layers: list[dict] = [{((0, 0),): None}]
    orbits = [(((0, 0),), ((0, 0),))]  # (representative, its mirror)
    for t in range(1, n + 1):
        parent: dict[tuple, tuple] = {}
        mirror: dict[tuple, tuple] = {}
        for s, m in orbits:
            for c in _runs(_maximal_obligations(s), w):
                if (image := mirror.get(c)) is None:
                    mirror[c] = image = _mirror(c, t)
                    mirror[image] = c
                if parent.get(c, s) >= s:
                    parent[c] = s
                if parent.get(image, m) >= m:
                    parent[image] = m
        kept = _prune_dominated({min(pair) for pair in mirror.items()}, mirror.__getitem__)
        layers.append({s: parent[s] for s in kept})
        orbits = [(s, mirror[s]) for s in kept if s <= mirror[s]]
    return layers


def _system_from_chain(n: int, chain: list[tuple[Interval, ...]]) -> IntervalSystem:
    """Each obligation's witness is the first next-layer interval containing
    it, or -1, which check refuses, if none does."""
    w0, w1 = [], []
    for cur, nxt in zip(chain, chain[1:]):

        def first_containing(a, b):
            return next((i for i, (c, d) in enumerate(nxt) if c <= a and b <= d), -1)

        w0.append(tuple(first_containing(a, b) for a, b in cur))
        w1.append(tuple(first_containing(a + 1, b + 1) for a, b in cur))
    return IntervalSystem(n=n, layers=tuple(chain), witness0=tuple(w0), witness1=tuple(w1))


def _point(layers: list[dict], n: int, w: int) -> FrontierPoint:
    """The optimum at layer n and its witness, backtracked through the parents."""
    length, state = min((max(b - a for a, b in s), s) for s in layers[n])
    chain = [state]
    for t in range(n, 0, -1):
        chain.append(layers[t][chain[-1]])
    chain.reverse()
    system = _system_from_chain(n, chain)
    system.check()
    return FrontierPoint(n=n, w=w, delta_star=Fraction(length, 2), witness=system)


def frontier(
    n: int,
    w: int,
    *,
    max_n: int = DEFAULT_FRONTIER_N,
    max_w: int = DEFAULT_FRONTIER_W,
) -> FrontierPoint:
    """Exact minimum of minimal_error over width-<=w binary programs.

    Any program induces an interval system of its width, and system_to_robp
    converts systems back, so the system optimum equals the program optimum.
    """
    w = as_integer(w, "w")
    return _point(_search(n, w, max_n, max_w), n, w)


def frontier_column(
    n_max: int,
    w: int,
    *,
    max_n: int = DEFAULT_FRONTIER_N,
    max_w: int = DEFAULT_FRONTIER_W,
) -> list[FrontierPoint]:
    """frontier(n, w) for every n = 0..n_max, from one search."""
    w = as_integer(w, "w")
    layers = _search(n_max, w, max_n, max_w)
    return [_point(layers, n, w) for n in range(n_max + 1)]


def system_to_robp(s: IntervalSystem) -> Robp:
    """One vertex per interval; symbol z routes to the witness for R+z.
    The program's reachable counts stay inside the intervals, so its
    minimal error is at most half the longest final interval."""
    from .robp import Robp, binary_alphabet

    s.check()
    edges = [
        [[int(s.witness0[t][i]), int(s.witness1[t][i])] for i in range(len(s.layers[t]))]
        for t in range(s.n)
    ]
    outputs = [(Fraction(a + b, 2),) for a, b in s.layers[-1]]
    return Robp.build(binary_alphabet(), edges, outputs)


# ---------------------------------------------------------------------------
# Independent cross-check: exhaustive enumeration of program behaviors
# ---------------------------------------------------------------------------


def _set_partitions(slots: int, w: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of range(slots) into at most w blocks, once each:
    slot i joins a block so far or opens the next one."""
    parts: list[tuple[tuple[int, ...], ...]] = [()]
    for i in range(slots):
        parts = [
            p[:j] + ((*p[j], i),) + p[j + 1 :] if j < len(p) else (*p, (i,))
            for p in parts
            for j in range(min(len(p) + 1, w))
        ]
    return parts


def _brute_force_tables(states, w: int, parts_cache: dict):
    """For each state, the hull of every nonempty subset of its 2|S|
    obligation slots, R and R+1 for each interval R, and its partitions into
    at most w blocks, as tuples of block bitmasks. hull[m] is the hull of the
    slots in bitmask m: slot i adds bit 1 << i, and the hull of bit | s
    merges hull[bit] with hull[s]. parts_cache maps a state size to its
    partitions, built on first use."""
    for state in states:
        if len(state) not in parts_cache:
            parts_cache[len(state)] = [
                tuple(sum(1 << i for i in block) for block in blocks)
                for blocks in _set_partitions(2 * len(state), w)
            ]
        hull: list = [None]
        for lo, hi in ((lo + z, hi + z) for lo, hi in state for z in (0, 1)):
            hull += [(lo, hi)] + [(min(lo, a), max(hi, b)) for a, b in hull[1:]]
        yield hull, parts_cache[len(state)]


def _brute_force_orbits(n: int, w: int, parts_cache: dict) -> set[tuple[Interval, ...]]:
    """One member, the smaller, of each mirror orbit of the label
    configurations a width-<=w binary program reaches at layer n. Each
    partition gives a child, its blocks' table entries sorted. The children
    of a configuration's mirror are the mirrors of its children, so only one
    member of each orbit is expanded."""
    if w < 1 or n < 0:
        raise ValueError("need n >= 0, w >= 1")
    states = {((0, 0),)}
    for t in range(1, n + 1):
        nxt = {
            tuple(sorted(map(hull.__getitem__, masks)))
            for hull, parts in _brute_force_tables(states, w, parts_cache)
            for masks in parts
        }
        states = {min(c, _mirror(c, t)) for c in nxt}
    return states


def frontier_brute_force(n: int, w: int) -> Fraction:
    """Minimal binary-counting error over ALL width-<=w programs, by direct
    enumeration of label configurations (every reachable configuration is
    realized by a program, and programs with the same configuration have the
    same minimal error). The mirror keeps lengths, so the last layer is read
    off the layer n - 1 representatives' tables: each partition's longest
    block, with no set of layer n built."""
    if as_integer(w, "w") < 1 or n < 0:
        raise ValueError("need n >= 0, w >= 1")
    if n == 0:
        return Fraction(0)
    parts_cache: dict = {}
    states = _brute_force_orbits(n - 1, w, parts_cache)
    best = n
    for hull, parts in _brute_force_tables(states, w, parts_cache):
        lengths = [0] + [b - a for a, b in hull[1:]]
        best = min(best, min(max(map(lengths.__getitem__, masks)) for masks in parts))
    return Fraction(best, 2)
