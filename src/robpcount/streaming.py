"""Misra-Gries heavy-hitters summary and its reduction to approximate counts.

The summary keeps at most k counters (k, not the textbook k-1: the output
contract wants a k-element list, and k counters give the slightly stronger
decrement bound n/(k+1)). For every element u,
    true_freq(u) - n_seen/k  <=  stored(u)  <=  true_freq(u),
with stored(u) = 0 when absent: each global decrement removes k+1 from the
total mass (k counters plus the discarded arrival), so at most n/(k+1)
decrements ever happen.

Querying: a listed element's frequency is estimated by its stored count
plus n/(2k); an unlisted element's by n/(2k) alone. Both carry additive
error at most n/(2k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .exact import as_integer


@dataclass
class MgSummary:
    k: int
    U: int
    counters: dict[int, int] = field(default_factory=dict)
    n_seen: int = 0

    def __post_init__(self):
        self.k = as_integer(self.k, "k")
        self.U = as_integer(self.U, "U")
        if self.k < 1 or self.U < 1:
            raise ValueError("k >= 1 and U >= 1 required")

    def stored(self, element: int) -> int:
        return self.counters.get(element, 0)


def mg_update(s: MgSummary, element: int) -> MgSummary:
    """Feed one element (updates in place and returns the summary). An
    element that is not an integer raises ValueError: 1.5 would be stored as
    a key, and True merged with 1."""
    if type(element) is not int:
        element = as_integer(element, "element")
    if not 0 <= element < s.U:
        raise ValueError(f"element {element} outside universe [0, {s.U})")
    s.n_seen += 1
    if element in s.counters:
        s.counters[element] += 1
    elif len(s.counters) < s.k:
        s.counters[element] = 1
    else:
        dead = []
        for key in s.counters:
            s.counters[key] -= 1
            if s.counters[key] == 0:
                dead.append(key)
        for key in dead:
            del s.counters[key]
    return s


def mg_run(stream: Iterable[int], k: int, U: int) -> MgSummary:
    s = MgSummary(k=k, U=U)
    for element in stream:
        mg_update(s, element)
    return s


@dataclass(frozen=True)
class HeavyHittersOutput:
    elements: tuple[int, ...]  # exactly k distinct elements
    estimates: tuple[int, ...]
    n: int
    k: int
    U: int

    def estimate_of(self, element: int) -> int | None:
        try:
            return self.estimates[self.elements.index(element)]
        except ValueError:
            return None


def mg_finalize(s: MgSummary) -> HeavyHittersOutput:
    """Emit exactly k distinct elements with their stored counts, padding
    with the smallest unused universe elements at estimate 0. Padding is
    safe: anything with frequency >= n/k survives in the counters, so a
    padded element's true frequency is below n/k and 0 is a valid estimate.
    """
    if s.U < s.k:
        raise ValueError("universe smaller than k; cannot list k distinct elements")
    listed = sorted(s.counters)
    estimates = [s.counters[u] for u in listed]
    pad = 0
    while len(listed) < s.k:
        while pad in s.counters:
            pad += 1
        listed.append(pad)
        estimates.append(0)
        pad += 1
    return HeavyHittersOutput(
        elements=tuple(listed),
        estimates=tuple(estimates),
        n=s.n_seen,
        k=s.k,
        U=s.U,
    )


def to_approx_counts(o: HeavyHittersOutput, query: int) -> Fraction:
    """Frequency estimate for any universe element, additive error <= n/(2k).

    Listed elements: stored + n/(2k) (stored undershoots by at most n/k).
    Unlisted elements: n/(2k) (their frequency is below n/k)."""
    query = as_integer(query, "query")
    if not 0 <= query < o.U:
        raise ValueError(f"query {query} outside universe [0, {o.U})")
    half_window = Fraction(o.n, 2 * o.k)
    est = o.estimate_of(query)
    if est is None:
        return half_window
    return est + half_window
