import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robpcount import (
    FrontierPoint,
    IntervalSystem,
    minimal_error,
    binary_alphabet,
    constant_program,
    counter_alphabet,
    evaluate,
    exact_counter,
    exhaustive_verify,
    frontier,
    frontier_brute_force,
    lb_small_w,
    parallel_alphabet,
    random_robp,
    system_to_robp,
    thm_main_feasible,
    validate,
    verify,
)
from robpcount import oracle
from robpcount.oracle import (
    BudgetError,
    _brute_force_configurations,
    _down_set,
    _interval_down_set,
    _maximal_obligations,
    _mirror,
    _prune_dominated,
    _runs,
    _set_partitions,
    frontier_column,
)


def test_exhaustive_verify_examples():
    assert exhaustive_verify(exact_counter(4, 2), counter_alphabet(2), 0)
    assert not exhaustive_verify(
        constant_program(4, Fraction(1)), binary_alphabet(), 1
    )
    assert exhaustive_verify(constant_program(4, Fraction(2)), binary_alphabet(), 2)


def test_exhaustive_verify_budget():
    p = constant_program(30, Fraction(15))
    with pytest.raises(BudgetError):
        exhaustive_verify(p, binary_alphabet(), 15, max_inputs=1000)


def test_random_robp_deterministic():
    a = random_robp(5, binary_alphabet(), 3, 1)
    b = random_robp(5, binary_alphabet(), 3, 1)
    assert a == b
    c = random_robp(5, binary_alphabet(), 3, 2)
    assert a != c


def test_random_robp_always_valid():
    rng = random.Random(0)
    for seed in range(300):
        alphabet = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        n, w = rng.randint(0, 9), rng.randint(1, 5)
        p = random_robp(n, alphabet, w, seed)
        rep = validate(p)
        assert rep.valid, (seed, rep.violations[:3])
        assert rep.width <= w


def set_partitions(items, max_blocks):
    """All partitions of items into at most max_blocks nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        if len(part) < max_blocks:
            yield part + [[first]]


def antichain(intervals):
    uniq = sorted(set(intervals))
    return tuple(
        i for i in uniq if not any(j != i and j[0] <= i[0] and i[1] <= j[1] for j in uniq)
    )


def random_state(rng, t, size):
    """A sorted antichain of at most size intervals inside [0, t]."""
    return antichain(
        tuple(sorted(rng.randint(0, t) for _ in range(2))) for _ in range(rng.randint(1, size))
    )


def minimal(states, limit):
    return _prune_dominated({h for h in states if all(b - a <= limit for a, b in h)})


# The search helpers and the brute force as they were before they relied on
# sorted antichains: states as unordered sets, O(m^2) filters, and every
# surjective map of a layer's slots. They are the references for the
# one-pass, down-set and one-map-per-partition versions. reference_layers
# and reference_frontier are the search before it dropped its length limit:
# one search per limit, and a binary search over the limits.
# reference_brute_force_configurations is the brute force before its
# subset-hull table: each block's hull by its own min and max.


def reference_maximal_obligations(state):
    obs = set()
    for a, b in state:
        obs.add((a, b))
        obs.add((a + 1, b + 1))
    return sorted(
        o for o in obs if not any(p != o and p[0] <= o[0] and o[1] <= p[1] for p in obs)
    )


def reference_inside(b, a):
    return all(any(c <= x and y <= d for c, d in a) for x, y in b)


def reference_prune_dominated(states):
    items = sorted(states)
    return {a for a in items if not any(b != a and reference_inside(b, a) for b in items)}


def reference_runs(obs, w):
    """Hulls of every split of obs into 1..w contiguous runs, the coarser
    splits that the pruner always drops included."""
    m = len(obs)
    for blocks in range(1, min(w, m) + 1):
        for cuts in itertools.combinations(range(1, m), blocks - 1):
            bounds = (0, *cuts, m)
            yield tuple((obs[i][0], obs[j - 1][1]) for i, j in zip(bounds, bounds[1:]))


def reference_layers(n, w, limit):
    """Each layer's survivors mapped to their parents, from a search that
    drops every interval longer than limit, up to its first empty layer."""
    layers = [{((0, 0),): None}]
    for _ in range(n):
        nxt = {}
        for state in sorted(layers[-1]):
            for hulls in reference_runs(reference_maximal_obligations(state), w):
                if hulls not in nxt and all(b - a <= limit for a, b in hulls):
                    nxt[hulls] = state
        layers.append({s: nxt[s] for s in reference_prune_dominated(set(nxt))})
        if not layers[-1]:
            break
    return layers


def reference_feasible(n, w, limit):
    """The chain of states of an interval system with every length <= limit,
    or None."""
    layers = reference_layers(n, w, limit)
    if not layers[-1]:
        return None
    chain = [min(layers[n])]
    for t in range(n, 0, -1):
        chain.append(layers[t][chain[-1]])
    chain.reverse()
    return chain


def reference_frontier(n, w):
    """frontier by binary search on the length limit, searching limit n only
    when the binary search never tried it."""
    lo, hi, chain = 0, n, None
    while lo < hi:
        mid = (lo + hi) // 2
        if found := reference_feasible(n, w, mid):
            hi, chain = mid, found
        else:
            lo = mid + 1
    if chain is None:
        chain = reference_feasible(n, w, n)
    system = oracle._system_from_chain(n, chain)
    return FrontierPoint(n=n, w=w, delta_star=Fraction(lo, 2), witness=system)


def reference_unquotiented_search(n, w):
    """oracle._search before the mirror quotient: every state of a layer
    generates its children, and each child's parent is the first state, in
    sorted order, that generates it."""
    layers = [{((0, 0),): None}]
    for _ in range(n):
        nxt = {}
        for state in sorted(layers[-1]):
            for hulls in _runs(_maximal_obligations(state), w):
                nxt.setdefault(hulls, state)
        layers.append({s: nxt[s] for s in _prune_dominated(nxt)})
    return layers


def reference_brute_force(n, w):
    maps = {
        (a, b): [m for m in itertools.product(range(b), repeat=2 * a) if len(set(m)) == b]
        for a in range(1, w + 1)
        for b in range(1, w + 1)
    }
    states = {((0, 0),)}
    for _ in range(n):
        nxt = set()
        for state in states:
            a = len(state)
            slots = [(state[v][0] + z, state[v][1] + z) for v in range(a) for z in (0, 1)]
            for b in range(1, w + 1):
                for m in maps[(a, b)]:
                    labels = []
                    for tgt in range(b):
                        los = [slots[i][0] for i in range(2 * a) if m[i] == tgt]
                        his = [slots[i][1] for i in range(2 * a) if m[i] == tgt]
                        labels.append((min(los), max(his)))
                    nxt.add(tuple(sorted(labels)))
        states = nxt
    return Fraction(min(max(b - a for a, b in s) for s in states), 2)


def reference_brute_force_configurations(n, w):
    """The layer-n configurations with each block's hull taken by its own
    min and max, one partition table per state size."""
    parts_cache = {}
    states = {((0, 0),)}
    for _ in range(n):
        nxt = set()
        for state in states:
            if len(state) not in parts_cache:
                parts_cache[len(state)] = _set_partitions(2 * len(state), w)
            los, his = zip(*((lo + z, hi + z) for lo, hi in state for z in (0, 1)))
            for blocks in parts_cache[len(state)]:
                hulls = ((min(los[i] for i in b), max(his[i] for i in b)) for b in blocks)
                nxt.add(tuple(sorted(hulls)))
        states = nxt
    return states


# every sorted antichain of at most 4 intervals inside [0, 6]
SMALL_ANTICHAINS = [
    obs
    for size in range(1, 5)
    for obs in itertools.combinations([(a, b) for a in range(7) for b in range(a, 7)], size)
    if all(p[0] < q[0] and p[1] < q[1] for p, q in zip(obs, obs[1:]))
]


# sorted antichains of up to 6 intervals inside [0, 10]: small enough that
# nested obligations and dominated states come up often
sorted_antichains = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 3)), min_size=1, max_size=6
).map(lambda pairs: antichain((a, a + length) for a, length in pairs))


@settings(max_examples=400, deadline=None)
@given(sorted_antichains)
def test_obligations_equal_the_reference(state):
    obs = _maximal_obligations(state)
    assert obs == reference_maximal_obligations(state)
    assert tuple(obs) == antichain(obs)


@settings(max_examples=400, deadline=None)
@given(sorted_antichains, sorted_antichains)
def test_down_set_inclusion_equals_the_reference(b, a):
    assert (_down_set(b) & ~_down_set(a) == 0) == reference_inside(b, a)


@settings(max_examples=300, deadline=None)
@given(st.sets(sorted_antichains, max_size=12))
def test_prune_equals_the_reference(states):
    assert _prune_dominated(states) == reference_prune_dominated(states)


def test_down_set_bits_are_the_intervals_inside():
    """The pruner's order rests on this: a down-set strictly inside another
    has fewer bits, because each bit is one interval."""
    for x, y in itertools.combinations_with_replacement(range(13), 2):
        mask = _interval_down_set(x, y)
        bits = {i for i in range(mask.bit_length()) if mask >> i & 1}
        inside = {d * (d + 1) // 2 + c for c in range(x, y + 1) for d in range(c, y + 1)}
        assert bits == inside, (x, y)


def test_set_partitions_give_each_partition_once():
    for slots in range(7):
        for w in range(1, 5):
            got = sorted(tuple(sorted(p)) for p in _set_partitions(slots, w))
            expected = sorted(
                tuple(sorted(tuple(sorted(blk)) for blk in p))
                for p in set_partitions(list(range(slots)), w)
            )
            assert got == expected


# the point sets of the benchmark's frontier workload
FRONTIER_POINTS = [(n, w) for w in range(1, 5) for n in range(13 if w < 4 else 10)]
BRUTE_FORCE_POINTS = [(n, w) for w in range(1, 4) for n in range(7)]


def test_frontier_equals_the_reference_search():
    points = [frontier(n, w) for n, w in FRONTIER_POINTS]
    reference = [reference_frontier(n, w) for n, w in FRONTIER_POINTS]
    assert points == reference
    columns = [p for w in range(1, 5) for p in frontier_column(12 if w < 4 else 9, w)]
    assert columns == reference


def test_the_search_keeps_what_every_limited_search_keeps():
    """Within any limit, the unlimited search's survivors and their parents
    are those of the search that drops every longer interval."""
    for n, w in [(12, 3), (8, 4)]:
        layers = oracle._search(n, w, n, w)
        for limit in range(n + 1):
            expected = reference_layers(n, w, limit)
            within = [
                {s: p for s, p in layer.items() if max(b - a for a, b in s) <= limit}
                for layer in layers[: len(expected)]
            ]
            assert within == expected, (n, w, limit)


def test_every_search_layer_is_an_antichain_of_states():
    """No survivor lies inside another: a pruner that keeps a few dominated
    states still finds every optimum, so only this sees it."""
    layers = oracle._search(9, 5, 9, 5)
    for t, layer in enumerate(layers):
        for a in layer:
            inner = [b for b in layer if b != a and reference_inside(b, a)]
            assert not inner, (t, a, inner[:3])


def test_brute_force_equals_the_surjective_map_reference():
    for n, w in BRUTE_FORCE_POINTS:
        assert frontier_brute_force(n, w) == reference_brute_force(n, w), (n, w)


def test_brute_force_configurations_equal_the_per_block_reference():
    for n, w in BRUTE_FORCE_POINTS + [(n, 4) for n in range(5)]:
        expected = reference_brute_force_configurations(n, w)
        assert _brute_force_configurations(n, w) == expected, (n, w)


def test_brute_force_builds_only_the_partition_tables_it_uses():
    # building every table up to w intervals would list 9.4e9 partitions
    assert frontier_brute_force(2, 8) == 0
    assert frontier_brute_force(3, 8) == 0


def test_runs_give_only_the_finest_splits_and_each_coarser_one_holds_one():
    for w in range(1, 5):
        for obs in SMALL_ANTICHAINS:
            m, k = len(obs), min(w, len(obs))
            finest = list(_runs(list(obs), w))
            assert len(finest) == math.comb(m - 1, k - 1), (obs, w)
            assert finest == [h for h in reference_runs(obs, w) if len(h) == k], (obs, w)
            for coarse in reference_runs(obs, w):
                if len(coarse) < k:
                    assert any(reference_inside(h, coarse) for h in finest), (obs, w, coarse)


def test_runs_give_the_minimal_successors_of_all_set_partitions():
    rng = random.Random(4)
    for _ in range(150):
        w = rng.randint(1, 4)
        state = random_state(rng, rng.randint(0, 8), w)
        obs = _maximal_obligations(state)
        runs = list(_runs(obs, w))
        assert all(antichain(h) == h for h in runs)
        partitions = {
            antichain((min(a for a, _ in blk), max(b for _, b in blk)) for blk in part)
            for part in set_partitions(obs, w)
        }
        for limit in (0, 1, 2, 4, 8):
            assert minimal(runs, limit) == minimal(partitions, limit), (state, w, limit)


def test_the_mirror_is_an_involution_on_sorted_antichains():
    known = set(SMALL_ANTICHAINS)
    for state in SMALL_ANTICHAINS:
        image = _mirror(state, 6)
        assert image in known and _mirror(image, 6) == state, state


def test_obligations_and_runs_commute_with_the_mirror():
    """The mirrors, at layer t + 1, of a state's obligations are its
    mirror's obligations, and likewise for the runs' hulls, so the children
    of a mirror are the mirrors of the children."""
    for state in SMALL_ANTICHAINS:
        obs, image_obs = _maximal_obligations(state), _maximal_obligations(_mirror(state, 6))
        assert image_obs == list(_mirror(obs, 7)), state
        for w in range(1, 5):
            runs = {_mirror(hulls, 7) for hulls in _runs(obs, w)}
            assert set(_runs(image_obs, w)) == runs, (state, w)


def test_the_mirror_keeps_down_set_inclusion_and_bit_counts():
    """So one check per candidate, against both masks of every kept orbit,
    decides for the candidate's whole orbit."""
    masks = {s: _down_set(s) for s in SMALL_ANTICHAINS}
    images = {s: masks[_mirror(s, 6)] for s in SMALL_ANTICHAINS}
    for s in SMALL_ANTICHAINS:
        assert masks[s].bit_count() == images[s].bit_count(), s
    for b, a in itertools.product(SMALL_ANTICHAINS, repeat=2):
        assert (masks[b] & ~masks[a] == 0) == (images[b] & ~images[a] == 0), (b, a)


def test_reference_layers_and_configurations_are_closed_under_the_mirror():
    for n, w in [(12, 3), (8, 4), (7, 5)]:
        for t, layer in enumerate(reference_layers(n, w, n)):
            assert {_mirror(s, t) for s in layer} == set(layer), (n, w, t)
    for w, n_max in [(1, 6), (2, 6), (3, 5), (4, 3)]:
        for t in range(n_max + 1):
            configurations = reference_brute_force_configurations(t, w)
            assert {_mirror(c, t) for c in configurations} == configurations, (t, w)


def test_the_search_equals_the_unquotiented_search():
    """The same states and the same parents, at sizes past the limited
    reference searches' reach, with thousands of states per layer."""
    for n, w in [(16, 4), (12, 5), (30, 3), (12, 2), (46, 3), (9, 6), (8, 7)]:
        assert oracle._search(n, w, n, w) == reference_unquotiented_search(n, w), (n, w)


def test_frontier_base_cases():
    assert frontier(2, 2).delta_star == Fraction(1, 2)
    for n in range(1, 11):
        assert frontier(n, 1).delta_star == Fraction(n, 2)
    assert frontier(3, 4).delta_star == 0  # w = n+1: all-singleton system
    assert frontier(4, 4).delta_star == Fraction(1, 2)  # one merge forced


def test_frontier_laws_at_widths_two_and_three():
    two, three = (frontier_column(40, w, max_n=40) for w in (2, 3))
    for n in range(1, 41):
        assert two[n].delta_star == Fraction(n - 1, 2), n
    for n in range(2, 41):
        j = max(j for j in range(n) if j * j + j + 2 <= n)
        assert three[n].delta_star == Fraction(n, 2) - 1 - Fraction(j, 2), n


def test_frontier_law_at_width_four():
    """The gap n/2 - Delta*(n, 4) steps up by 1/2 at n = 1, 2, 3, 5, 7, 10 and
    14 and stays level elsewhere, to n = 16: past the reference search's reach."""
    four = frontier_column(16, 4, max_n=16)
    gaps = [Fraction(n, 2) - point.delta_star for n, point in enumerate(four)]
    steps = {1, 2, 3, 5, 7, 10, 14}
    for n in range(1, 17):
        assert gaps[n] - gaps[n - 1] == (Fraction(1, 2) if n in steps else 0), n


def test_frontier_budget_guard():
    with pytest.raises(BudgetError):
        frontier(50, 2)


def test_frontier_witness_is_sound():
    for n, w in [(2, 2), (5, 2), (6, 3), (8, 3)]:
        point = frontier(n, w)
        point.witness.check()
        assert point.witness.max_final_length == 2 * point.delta_star
        p = system_to_robp(point.witness)
        rep = validate(p)
        assert rep.valid and rep.width <= w
        assert verify(p, binary_alphabet(), point.delta_star).valid


def test_frontier_monotonicity():
    values = {(n, w): frontier(n, w).delta_star for n in range(1, 9) for w in (1, 2, 3)}
    for n in range(1, 9):
        for w in (1, 2):
            assert values[(n, w)] >= values[(n, w + 1)]
    for n in range(1, 8):
        for w in (1, 2, 3):
            assert values[(n + 1, w)] >= values[(n, w)]


def test_frontier_matches_brute_force_tiny():
    for n in range(1, 5):
        for w in (1, 2):
            assert frontier(n, w).delta_star == frontier_brute_force(n, w)


def test_frontier_matches_brute_force_at_width_four():
    for n in range(1, 6):
        assert frontier(n, 4).delta_star == frontier_brute_force(n, 4), n


def enumerate_all_programs_delta(n, w):
    """Direct product enumeration over every edge map (tiny sizes only)."""
    best = Fraction(n, 2) + 1
    size_options = list(range(1, w + 1))
    for sizes in itertools.product(size_options, repeat=n):
        layer_sizes = [1] + list(sizes)
        maps_per_layer = []
        for t in range(n):
            a, b = layer_sizes[t], layer_sizes[t + 1]
            maps_per_layer.append(
                [m for m in itertools.product(range(b), repeat=2 * a)
                 if len(set(m)) == b]
            )
        for combo in itertools.product(*maps_per_layer):
            labels = [(0, 0)]
            ok = True
            for t in range(n):
                nxt = [None] * layer_sizes[t + 1]
                for u in range(layer_sizes[t]):
                    for z in (0, 1):
                        tgt = combo[t][2 * u + z]
                        lo, hi = labels[u][0] + z, labels[u][1] + z
                        if nxt[tgt] is None:
                            nxt[tgt] = (lo, hi)
                        else:
                            nxt[tgt] = (min(nxt[tgt][0], lo), max(nxt[tgt][1], hi))
                labels = nxt
            best = min(best, Fraction(max(b - a for a, b in labels), 2))
    return best


def test_brute_force_matches_product_enumeration():
    for n in range(1, 4):
        for w in (1, 2):
            assert frontier_brute_force(n, w) == enumerate_all_programs_delta(n, w)


def test_frontier_consistent_with_feasibility():
    for n in range(1, 9):
        for w in (1, 2, 3):
            delta = frontier(n, w).delta_star
            assert not thm_main_feasible(n, 2, w, delta).ruled_out
            if w >= 3:
                assert lb_small_w(n, 2, w) <= delta


def test_system_to_robp_width_one():
    layers = tuple(((0, t),) for t in range(5))
    sys_ = IntervalSystem(
        n=4,
        layers=layers,
        witness0=((0,),) * 4,
        witness1=((0,),) * 4,
    )
    p = system_to_robp(sys_)
    q = constant_program(4, Fraction(2))
    assert p == q


def test_system_to_robp_exact_counter():
    n = 3
    layers = tuple(tuple((i, i) for i in range(t + 1)) for t in range(n + 1))
    w0 = tuple(tuple(range(t + 1)) for t in range(n))
    w1 = tuple(tuple(range(1, t + 2)) for t in range(n))
    p = system_to_robp(IntervalSystem(n=n, layers=layers, witness0=w0, witness1=w1))
    assert validate(p).valid
    for x in itertools.product((0, 1), repeat=n):
        out, _ = evaluate(p, x)
        assert out == (Fraction(sum(x)),)


def test_interval_system_check_rejects():
    bad = IntervalSystem(
        n=1,
        layers=(((0, 0),), ((0, 0),)),
        witness0=((0,),),
        witness1=((0,),),  # [1,1] not inside [0,0]
    )
    with pytest.raises(ValueError, match="obligation"):
        bad.check()
    not_antichain = IntervalSystem(
        n=0,
        layers=(((0, 0),),),
        witness0=(),
        witness1=(),
    )
    not_antichain.check()  # single layer, fine
    with pytest.raises(ValueError):
        IntervalSystem(
            n=0, layers=(((0, 1),),), witness0=(), witness1=()
        ).check()  # layer-0 must be [0,0]
    # witnesses that do not exist: negative indices would wrap, and a
    # missing or surplus tuple or entry would be indexed past or ignored
    layers = (((0, 0),), ((0, 0), (1, 1)))
    IntervalSystem(n=1, layers=layers, witness0=((0,),), witness1=((1,),)).check()
    for witness0, witness1 in [
        (((-2,),), ((-1,),)),
        (((0,),), ((2,),)),
        (((),), ((1,),)),
        (((0, 0),), ((1, 1),)),
        ((), ((1,),)),
        (((0,), (0,)), ((1,), (1,))),
    ]:
        bad = IntervalSystem(n=1, layers=layers, witness0=witness0, witness1=witness1)
        with pytest.raises(ValueError, match="witness"):
            bad.check()
        with pytest.raises(ValueError, match="witness"):
            system_to_robp(bad)
    # a bool or a float is no index and no endpoint, and n is never negative
    for witness0, witness1 in [(((0.0,),), ((1,),)), (((0,),), ((True,),)), (((False,),), ((1,),))]:
        bad = IntervalSystem(n=1, layers=layers, witness0=witness0, witness1=witness1)
        with pytest.raises(ValueError, match="witness"):
            bad.check()
        with pytest.raises(ValueError, match="witness"):
            system_to_robp(bad)
    for last in [((0.0, 1),), ((0, True),), ((0, 1.0),)]:
        bad = IntervalSystem(n=1, layers=(((0, 0),), last), witness0=((0,),), witness1=((0,),))
        with pytest.raises(ValueError, match="invalid"):
            bad.check()
        with pytest.raises(ValueError, match="invalid"):
            system_to_robp(bad)
    with pytest.raises(ValueError, match="invalid"):
        IntervalSystem(n=0, layers=(((0.0, 0),),), witness0=(), witness1=()).check()
    for n in (-1, 1.0, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            IntervalSystem(n=n, layers=(), witness0=(), witness1=()).check()
    # a system of the wrong shape is refused before anything is unpacked
    for layers, witness0 in [
        ((((0, 0),), (5,)), ((0,),)),  # an interval that is not a pair
        ((((0, 0),), ((0, 1, 1),)), ((0,),)),
        ((((0, 0),), None), ((0,),)),  # a layer of None
        ((((0, 0),), ((0, 1),)), (0,)),  # a witness tuple that is not a sequence
        ((((0, 0),), ((0, 1),)), None),
        (None, ((0,),)),
    ]:
        bad = IntervalSystem(n=1, layers=layers, witness0=witness0, witness1=((0,),))
        with pytest.raises(ValueError, match="layers must hold pairs"):
            bad.check()
        with pytest.raises(ValueError, match="layers must hold pairs"):
            system_to_robp(bad)


def test_no_random_program_beats_the_frontier():
    rng = random.Random(23)
    best = {}
    for seed in range(400):
        n, w = rng.randint(1, 8), rng.randint(1, 3)
        p = random_robp(n, binary_alphabet(), w, seed)
        delta_star, _ = minimal_error(p, binary_alphabet())
        key = (n, p.width)
        best[key] = min(best.get(key, delta_star), delta_star)
    for (n, w), delta in best.items():
        assert delta >= frontier(n, w).delta_star, (n, w)


def test_verifier_agrees_with_exhaustive_on_systems():
    rng = random.Random(19)
    for seed in range(20):
        n, w = rng.randint(2, 7), rng.randint(1, 3)
        point = frontier(n, w)
        p = system_to_robp(point.witness)
        assert exhaustive_verify(p, binary_alphabet(), point.delta_star)
