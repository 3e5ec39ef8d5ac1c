import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robpcount import (
    HeavyHittersOutput,
    MgSummary,
    mg_finalize,
    mg_run,
    mg_update,
    to_approx_counts,
)


def test_update_basics():
    s = mg_run([0, 0, 0], 2, 10)
    assert s.counters == {0: 3} and s.n_seen == 3
    s = mg_run([0, 1, 2], 2, 10)
    assert s.counters == {} and s.n_seen == 3
    s = mg_run([5] * 40, 3, 10)
    assert s.stored(5) == 40


def test_update_range_check():
    s = MgSummary(k=2, U=4)
    with pytest.raises(ValueError):
        mg_update(s, 4)


@pytest.mark.parametrize(
    "k, U",
    [(2.5, 10), (True, 10), (2, 10.0), (2, True), (np.float64(2), 10)],
    ids=["float-k", "bool-k", "float-U", "bool-U", "numpy-float-k"],
)
def test_summary_sizes_must_be_integers(k, U):
    # mg_run([1, 2, 3], 2.5, 10) once listed 3 elements, and k=True acted as 1
    with pytest.raises(ValueError, match="is not an integer"):
        mg_run([1, 2, 3], k, U)


@pytest.mark.parametrize(
    "element",
    [1.5, 1.0, True, np.True_, np.float64(1)],
    ids=["float", "whole-float", "bool", "numpy-bool", "numpy-float"],
)
def test_elements_and_queries_must_be_integers(element):
    # 1.5 was once stored as a key, and True merged with 1 and listed as True
    s = mg_run([1], 2, 10)
    with pytest.raises(ValueError, match="is not an integer"):
        mg_update(s, element)
    assert s.counters == {1: 1} and s.n_seen == 1
    with pytest.raises(ValueError, match="is not an integer"):
        to_approx_counts(mg_finalize(s), element)


def test_numpy_integers_are_read_as_ints():
    s = mg_run([np.int64(1), 1, np.int32(2)], np.int64(2), np.int32(10))
    assert (type(s.k), type(s.U)) == (int, int)
    assert s.counters == {1: 2, 2: 1} and all(type(u) is int for u in s.counters)
    assert to_approx_counts(mg_finalize(s), np.int64(1)) == 2 + Fraction(3, 4)


def check_contract(stream, k, U):
    truth = Counter(stream)
    n = len(stream)
    s = mg_run(stream, k, U)
    assert len(s.counters) <= k
    assert sum(s.counters.values()) <= n
    out = mg_finalize(s)
    assert len(out.elements) == k == len(set(out.elements))
    for u, est in zip(out.elements, out.estimates):
        f = truth.get(u, 0)
        assert f - Fraction(n, k) <= est <= f
    for u in truth:
        if truth[u] * k >= n:
            assert u in out.elements
    for u in range(U):
        err = abs(to_approx_counts(out, u) - truth.get(u, 0))
        assert err <= Fraction(n, 2 * k), (u, err)
    return out


def test_contract_random_streams():
    rng = random.Random(0)
    for trial in range(60):
        k = rng.choice([2, 5, 10])
        U = rng.randint(k, 40)
        n = rng.randint(0, 400)
        stream = [rng.randrange(U) for _ in range(n)]
        check_contract(stream, k, U)


def test_contract_adversarial_families():
    # all equal
    check_contract([7] * 1000, 5, 50)
    # all distinct (cycling universe)
    check_contract([i % 50 for i in range(1000)], 5, 50)
    # zipf-ish
    rng = random.Random(1)
    stream = []
    for i in range(1000):
        r = rng.random()
        stream.append(0 if r < 0.5 else 1 if r < 0.75 else rng.randrange(50))
    check_contract(stream, 5, 50)
    # k+1 balanced heavy elements
    stream = [i % 6 for i in range(996)]
    check_contract(stream, 5, 50)


def test_element_at_exact_threshold_is_listed():
    # one element at exactly ceil(n/k) occurrences, the rest spread out
    rng = random.Random(2)
    k, U, n = 4, 30, 200
    hot = 9
    hot_count = -(-n // k)
    stream = [hot] * hot_count + [rng.randrange(U) for _ in range(n - hot_count)]
    rng.shuffle(stream)
    out = check_contract(stream, k, U)
    assert hot in out.elements


def test_finalize_pads_with_smallest_unused():
    out = mg_finalize(mg_run([0] * 12, 3, 10))
    assert out.elements == (0, 1, 2)
    assert out.estimates == (12, 0, 0)
    # survivors come first, then the smallest unused indices
    out = mg_finalize(mg_run([3] * 5, 3, 10))
    assert out.elements == (3, 0, 1)
    assert out.estimates == (5, 0, 0)


def test_finalize_needs_large_universe():
    with pytest.raises(ValueError):
        mg_finalize(MgSummary(k=3, U=2))


def test_query_examples():
    out = mg_finalize(mg_run([0] * 12, 3, 10))
    assert to_approx_counts(out, 0) == 14  # 12 + 12/(2*3)
    assert to_approx_counts(out, 5) == 2
    with pytest.raises(ValueError):
        to_approx_counts(out, 10)


def test_twelve_distinct_with_three_counters():
    out = check_contract(list(range(12)), 3, 12)
    assert len(out.elements) == 3


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 14), max_size=120),
    st.integers(1, 6),
)
def test_summary_invariants_shadow_counter(stream, k):
    s = MgSummary(k=k, U=15)
    truth = Counter()
    for x in stream:
        mg_update(s, x)
        truth[x] += 1
        assert len(s.counters) <= k
        assert sum(s.counters.values()) <= s.n_seen
        for u in range(15):
            stored = s.stored(u)
            assert stored <= truth.get(u, 0)
            assert truth.get(u, 0) - stored <= Fraction(s.n_seen, k)


def test_estimate_of():
    out = HeavyHittersOutput(elements=(3, 5), estimates=(7, 0), n=10, k=2, U=9)
    assert out.estimate_of(3) == 7
    assert out.estimate_of(4) is None
