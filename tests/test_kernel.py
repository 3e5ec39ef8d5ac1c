"""The compiled kernels against their numpy references (the painter, the
label DP step, the label copy-out and validate's reachability step), and
their loader."""

import copy
import json
import ctypes
import math
import random
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robpcount import (
    LabeledRobp,
    Robp,
    binary_alphabet,
    compute_labels,
    constant_program,
    counter_alphabet,
    exact_counter,
    frontier,
    minimal_error,
    parallel_alphabet,
    profile_counter,
    profile_parallel,
    random_robp,
    rounded_counter,
    system_to_robp,
    tribes,
    verify,
)
from robpcount import _kernel, labeling
from robpcount import robp as robp_module
from robpcount.robp import RationalTable

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
REPO = Path(__file__).resolve().parents[1]


def compiled():
    if _kernel.library() is None:
        pytest.skip("C library not built; test_kernel_loads_here says why")


def _both_paths(numpy_kernels):
    """Run the caller's loop body on the C library, when it loaded, then on
    the numpy code."""
    if _kernel.library() is not None:
        yield "C"
    numpy_kernels()
    yield "numpy"


@st.composite
def layer_cases(draw):
    """One layer's labels, int16 or int32 with d from 1 to 5, and the counter
    profile's cap (t, also the coordinate-sum limit) or the parallel
    profile's clip (side - 1, no limit): overlaps, nesting, exact
    duplicates, single cells, empty layers and layers with nothing kept,
    at an offset from the origin that passes the int16 range on int32."""
    d = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.int16, np.int32]))
    offset = draw(st.sampled_from([0, 3] if dtype == np.int16 else [0, 3, 40_000]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["box", "duplicate", "cell"]))
        if kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
            continue
        lo = [offset + draw(st.integers(0, 5)) for _ in range(d)]
        hi = lo if kind == "cell" else [a + draw(st.integers(0, 4)) for a in lo]
        rows.append((lo, hi))
    lo = np.array([r[0] for r in rows], dtype=dtype).reshape(-1, d)
    hi = np.array([r[1] for r in rows], dtype=dtype).reshape(-1, d)
    if draw(st.booleans()):
        t = draw(st.integers(offset * d - 2, offset * d + 9 * d + 2))
        return lo, hi, t, None, t
    return lo, hi, None, offset + draw(st.integers(-1, 9)), None


@given(layer_cases())
@example(  # nothing kept: every box is one cell, so no value exceeds its lo sum
    (np.array([[1, 2], [0, 0]], np.int16), np.array([[1, 2], [0, 0]], np.int16), 5, None, 5)
)
@example(  # one box over its whole grid, capped inside it
    (np.array([[2, 0]], np.int32), np.array([[4, 3]], np.int32), 4, None, 4)
)
# the C painter paints a box's last two axes as one slab (one row at d = 1)
# per odometer step over the axes before them: overlapping boxes several
# cells wide on every axis, at each d
@example((np.array([[0], [2]], np.int16), np.array([[3], [5]], np.int16), 4, None, 4))
@example(
    (np.array([[0, 1, 0], [1, 0, 2]], np.int32), np.array([[2, 3, 4], [3, 2, 3]], np.int32), None, 3, None)
)
@example(
    (np.array([[0, 0, 1, 0], [1, 1, 0, 2]], np.int16), np.array([[2, 1, 3, 2], [2, 3, 2, 4]], np.int16), 9, None, 9)
)
@example(
    (
        np.array([[0, 1, 0, 1, 0], [1, 0, 2, 0, 1]], np.int32),
        np.array([[1, 2, 2, 3, 4], [2, 2, 3, 2, 3]], np.int32),
        None,
        2,
        None,
    )
)
@settings(max_examples=400, deadline=None)
def test_kernel_paints_and_sums_like_numpy(case):
    compiled()
    lo, hi, cap, clip, t = case
    limits = [_kernel._limit(x) for x in (cap, clip, t)]
    kept, base, top, volume = _kernel.layer_boxes(lo, hi, cap, clip)
    expected = _kernel._boxes_numpy(lo, hi, *limits[:2])
    assert (kept, volume) == (expected[0], expected[3])
    assert np.array_equal(base, expected[1]) and np.array_equal(top, expected[2])
    if not kept:
        return
    shape = top - base + 1
    grid = np.zeros(math.prod(shape), dtype=np.int32)  # painting fills it first
    reference = grid.copy()
    total = _kernel.layer_paint(lo, hi, cap, clip, base, shape, t, grid)
    assert total == _kernel._paint_layer_numpy(lo, hi, *limits[:2], base, shape, limits[2], reference)
    assert np.array_equal(grid, reference)


def _counter_cases():
    rng = random.Random(23)
    for seed in range(30):
        problem = [binary_alphabet(), counter_alphabet(2), counter_alphabet(3)][seed % 3]
        n = rng.randint(1, 8)
        yield compute_labels(random_robp(n, problem, rng.randint(1, 5), seed), "potential")
    yield compute_labels(rounded_counter(100, 3, 10), "potential")


def _parallel_cases():
    rng = random.Random(37)
    for seed in range(25):
        n = rng.randint(20, 30)
        p = random_robp(n, parallel_alphabet(2), rng.randint(1, 8), seed)
        yield compute_labels(p, "full")
    p = constant_program(20, (Fraction(10),), alphabet=parallel_alphabet(1))
    yield compute_labels(p, "full")


@pytest.mark.parametrize(
    "profile, cases", [(profile_counter, _counter_cases), (profile_parallel, _parallel_cases)]
)
def test_profiles_equal_on_both_paint_paths(numpy_kernels, profile, cases):
    compiled()
    labels = list(cases())
    fast = [profile(lp).phi_values for lp in labels]
    numpy_kernels()
    assert [profile(lp).phi_values for lp in labels] == fast


def _wide_labels(p, rng, lo_max, reach):
    """Hand-built labels for p: per layer t, up to 6 random boxes with lo
    columns in 0..lo_max and hi columns up to reach(t) past lo. The profiles
    only read the rectangles, and the label DP over the 2**17 symbols of a
    k = 17 parallel program is too slow for a unit test."""
    d = p.alphabet.k - (p.alphabet.kind == "counter")
    lo, hi = [], []
    for t in range(p.n + 1):
        rows = rng.integers(1, 7)
        layer_lo = rng.integers(0, lo_max + 1, size=(rows, d))
        lo.append(layer_lo.astype(np.int16))
        hi.append((layer_lo + rng.integers(0, reach(t) + 1, size=(rows, d))).astype(np.int16))
    return LabeledRobp(p, lo, hi)


@pytest.mark.parametrize("seed", range(3))
def test_profiles_equal_on_both_paint_paths_past_16_columns(numpy_kernels, seed):
    compiled()
    rng = np.random.default_rng(seed)
    # counter k = 18: 17 label columns, each layer's grid within 2**17 cells
    p = constant_program(6, (Fraction(0),) * 18, alphabet=counter_alphabet(18))
    counter = _wide_labels(p, rng, 0, lambda t: 1)
    # parallel k = 17, n = 12: a 2**17-cell box, audited from layer 1
    p = constant_program(12, (Fraction(6),) * 17, alphabet=parallel_alphabet(17))
    parallel = _wide_labels(p, rng, 1, lambda t: t)
    fast = (profile_counter(counter).phi_values, profile_parallel(parallel).phi_values)
    assert any(fast[0]) and any(fast[1])
    numpy_kernels()
    assert (profile_counter(counter).phi_values, profile_parallel(parallel).phi_values) == fast


def test_kernel_guards_reject_what_the_c_code_cannot_take(numpy_kernels):
    lo = np.array([[0, 1]], dtype=np.int16)
    hi = np.array([[1, 2]], dtype=np.int16)
    base, shape = np.array([0, 1]), (2, 2)
    big = np.iinfo(np.int32).max
    for path in _both_paths(numpy_kernels):
        grid = np.full(4, 7, dtype=np.int32)
        bad_labels = [
            (lo.astype(np.int64), hi.astype(np.int64)),  # not int16 or int32
            (lo, hi.astype(np.int32)),  # dtypes differ
            (np.array([[0, 9, 1, 9]], dtype=np.int16)[:, ::2], hi),  # strided
            (lo[0], hi[0]),  # not 2-d
            (lo, np.array([[1, 2, 3]], dtype=np.int16)),  # shapes differ
            (np.zeros((1, 0), np.int16), np.zeros((1, 0), np.int16)),  # d >= 1
        ]
        for lo_, hi_ in bad_labels:
            with pytest.raises(ValueError, match="layer boxes"):
                _kernel.layer_boxes(lo_, hi_, 9)
            with pytest.raises(ValueError, match="layer paint"):
                _kernel.layer_paint(lo_, hi_, 9, None, base, shape, 9, grid)
        read_only = grid.copy()
        read_only.flags.writeable = False
        bad_grids = [
            (base, shape, grid[:3]),  # grid size
            (base, shape, grid.astype(np.int64)),  # not int32
            (base, shape, np.full(8, 7, dtype=np.int32)[::2]),  # strided
            (base, shape, read_only),
            (base[:1], shape, grid),  # base of length d
            (base, (2, 2, 1), grid),  # shape of length d
            (base, (-2, -2), grid),  # shape >= 1
            (base - 2**40, shape, grid),  # base within int32
        ]
        for base_, shape_, grid_ in bad_grids:
            with pytest.raises(ValueError, match="layer paint"):
                _kernel.layer_paint(lo, hi, 9, None, base_, shape_, 9, grid_)
        assert (grid == 7).all(), path  # rejected calls wrote nothing
        # a kept box off the grid, or with a value past int32, is never painted
        off_grid = [
            (lo, hi, base + [0, 1]),  # lo below the base
            (lo, hi, base - [0, 1]),  # hi past the shape
            (lo.astype(np.int32) + big - 3, hi.astype(np.int32) + big - 3, base + big - 3),
        ]
        for lo_, hi_, base_ in off_grid:
            with pytest.raises(ValueError, match="outside the grid or its value exceeds int32"):
                _kernel.layer_paint(lo_, hi_, None, None, base_, shape, 9, grid)
            assert (grid == -1).all(), path
        # one box kept, with value min(1 + 2, 9) = 3 over cells of sum 1, 2, 2, 3
        kept, base_, top, volume = _kernel.layer_boxes(lo, hi, 9)
        assert (kept, base_.tolist(), top.tolist(), volume) == (1, [0, 1], [1, 2], 4), path
        assert _kernel.layer_paint(lo, hi, 9, None, base, shape, 9, grid) == 2 + 1 + 1 + 0, path
        # the cap keeps the box only while it exceeds the lo sum 1
        assert _kernel.layer_boxes(lo, hi, 1)[0] == 0, path
        # the clip cuts the box to its first column, and nothing is kept past lo
        assert _kernel.layer_boxes(lo, hi, None, 1)[2].tolist() == [1, 1], path
        assert _kernel.layer_boxes(lo, hi, None, 0)[0] == 0, path
        # a volume past int64 is reported as the int64 maximum
        wide = np.full((2, 4), big, dtype=np.int32)
        assert _kernel.layer_boxes(wide * 0, wide, None)[3] == 2**63 - 1, path
        # a kept box with hi < lo has no cells, and is never painted
        # kept, since the lo sum 3 is below min(6, 9)
        flipped = (np.array([[0, 3]], np.int16), np.array([[5, 1]], np.int16))
        assert _kernel.layer_boxes(*flipped, 9)[::3] == (1, 0), path
        with pytest.raises(ValueError, match="outside the grid"):
            _kernel.layer_paint(*flipped, 9, None, [0, 1], (6, 3), 9, np.empty(18, np.int32))


def _one_program():
    return compute_labels(random_robp(8, counter_alphabet(3), 4, 5), "potential")


@needs_cc
def test_kernel_loads_here(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load_library() is not None
    cache = tmp_path / "robpcount"
    assert [f.name for f in cache.iterdir()] == [_kernel.library_name()]
    assert cache.stat().st_mode & 0o777 == 0o700


@needs_cc
def test_second_load_reuses_the_cached_library(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load_library() is not None

    def fail(directory, path):
        raise OSError("the compiler ran on a cache hit")

    monkeypatch.setattr(_kernel, "_build", fail)
    assert _kernel.load_library() is not None


def test_no_compiler_runs_the_numpy_painter(monkeypatch, tmp_path):
    lp = _one_program()
    expected = profile_counter(lp).phi_values
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    assert _kernel.load_library() is None
    assert list(tmp_path.rglob("*.so")) == []
    calls = []
    numpy_painter = _kernel._paint_numpy
    monkeypatch.setattr(
        _kernel, "_paint_numpy", lambda *a: calls.append(1) or numpy_painter(*a)
    )
    monkeypatch.setattr(_kernel, "library", _kernel.load_library)
    assert profile_counter(lp).phi_values == expected
    assert calls


@needs_cc
def test_cold_load_writes_nothing_under_the_repository(monkeypatch, tmp_path):
    def tree():
        return {
            str(p): p.stat().st_mtime_ns
            for p in REPO.rglob("*")
            if ".git" not in p.parts and p.is_file()
        }

    before = tree()
    # a relative XDG_CACHE_HOME is ignored in favour of ~/.cache
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("XDG_CACHE_HOME", "relative-cache")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _kernel.load_library() is not None
    assert (tmp_path / ".cache" / "robpcount" / _kernel.library_name()).is_file()
    assert tree() == before


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    # the shipped command, so a warning that only shows at its -O level fails
    proc = subprocess.run(
        [*_kernel.COMPILE, "-Wall", "-Wextra", "-Werror",
         "-x", "c", "-", "-o", str(tmp_path / "kernels.so")],
        input=_kernel.SOURCE.encode(),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


@needs_cc
def test_a_library_lacking_a_declared_kernel_loads_as_none(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load_library() is not None
    kernels = {**_kernel._KERNELS, "no_such_kernel": ((ctypes.c_int64,), None, False)}
    monkeypatch.setattr(_kernel, "_KERNELS", kernels)
    assert _kernel.load_library() is None


@needs_cc
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on PATH")
def test_the_kernel_table_names_exactly_the_exported_functions(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load_library() is not None
    path = tmp_path / "robpcount" / _kernel.library_name()
    listing = subprocess.run(
        ["nm", "-D", "--defined-only", str(path)], capture_output=True, text=True, check=True
    ).stdout
    exported = {fields[2] for fields in map(str.split, listing.splitlines()) if fields[1] == "T"}
    declared = {
        symbol
        for name, (_, _, per_dtype) in _kernel._KERNELS.items()
        for symbol in ([f"{name}_i16", f"{name}_i32"] if per_dtype else [name])
    }
    assert exported == declared


def _label_cases():
    """(program, shift table) pairs: seeded random programs in the full and
    the potential column slice (parallel programs have only the full one),
    and a 3-counter rounded program with merging layers."""
    rng = random.Random(41)
    problems = [counter_alphabet(2), counter_alphabet(3), binary_alphabet(), parallel_alphabet(2)]
    for seed in range(40):
        problem = problems[seed % 4]
        p = random_robp(rng.randint(1, 12), problem, rng.randint(1, 6), seed)
        shifts = problem.shifts
        yield p, shifts
        if problem.kind != "parallel":
            yield p, shifts[:, : labeling._potential_k(problem) - 1]
    p = rounded_counter(100, 3, 10)
    shifts = p.alphabet.shifts
    yield p, shifts
    yield p, shifts[:, :2]


def _int32_program(n=30_001, seed=3):
    """A width-2 2-counter program deep enough for the DP's int32 labels."""
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(n):
        # vertex 0 reaches both next vertices; vertex 1 goes anywhere
        layer = np.array([rng.permutation(2), rng.integers(0, 2, size=2)], dtype=np.int32)
        edges.append(layer)
    edges[0] = edges[0][:1]
    outputs = [(Fraction(n, 2), Fraction(n, 2))] * 2
    return Robp(n, counter_alphabet(2), [1] + [2] * n, edges, outputs)


def _layers(p, shifts):
    return [(a.dtype, a.shape, a.tobytes()) for a in labeling._label_layers(p, shifts)]


def test_label_step_equals_the_numpy_dp(numpy_kernels):
    compiled()
    cases = list(_label_cases())
    fast = [_layers(p, shifts) for p, shifts in cases]
    finals = [(verify(p, p.alphabet, 1), minimal_error(p, p.alphabet)) for p, _ in cases]
    numpy_kernels()
    assert [_layers(p, shifts) for p, shifts in cases] == fast
    # fresh copies, which do not carry the last layer the C DP kept
    copies = [copy.copy(p) for p, _ in cases]
    assert [(verify(p, p.alphabet, 1), minimal_error(p, p.alphabet)) for p in copies] == finals


def test_label_step_equals_the_numpy_dp_on_int32_labels(numpy_kernels):
    compiled()
    p = _int32_program()
    shifts = p.alphabet.shifts
    fast = _layers(p, shifts)
    assert fast[-1][0] == np.int32
    # the all-zeros input reaches a final hi of n in the first coordinate
    assert -p.n in np.frombuffer(fast[-1][2], dtype=np.int32)
    numpy_kernels()
    # verify and minimal_error read only the final layer compared here
    assert _layers(p, shifts) == fast


def test_label_step_guards_reject_what_the_c_code_cannot_take(numpy_kernels):
    state = np.array([[0, 0], [1, -1]], dtype=np.int16)
    edges = np.array([[0, 1], [1, 2]], dtype=np.int32)
    shifts2 = np.array([[0, 0], [1, -1]], dtype=np.int16)
    untouched = np.full((3, 2), np.iinfo(np.int16).max, dtype=np.int16)
    for path in _both_paths(numpy_kernels):
        nxt = untouched.copy()
        bad = [
            (state.astype(np.int64), edges, shifts2.astype(np.int64), nxt.astype(np.int64)),
            (state.astype(np.int32), edges, shifts2, nxt),  # dtypes differ
            (state, edges.astype(np.int64), shifts2, nxt),  # edges not int32
            (np.array([[0, 9, 0, 9], [1, 9, -1, 9]], dtype=np.int16)[:, ::2], edges, shifts2, nxt),
            (state, np.asfortranarray(edges), shifts2, nxt),  # strided edges
            (state, edges, np.zeros((2, 4), np.int16), nxt),  # columns differ
            (state[:, :1].copy(), edges, shifts2[:, :1].copy(), nxt),  # odd columns
            (state, edges[:, :1].copy(), shifts2, nxt),  # one edge column per symbol
            (state, np.array([[-1, 1], [1, 2]], np.int32), shifts2, nxt),  # negative target
            (state, np.array([[0, 1], [1, 3]], np.int32), shifts2, nxt),  # past the next layer
            (state[0], edges, shifts2, nxt),  # not 2-d
        ]
        for args in bad:
            with pytest.raises(ValueError, match="label step"):
                _kernel.label_step(*args)
            assert np.array_equal(nxt, untouched), path  # rejected calls wrote nothing
        _kernel.label_step(state, edges, shifts2, nxt)
        assert nxt.tolist() == [[0, 0], [1, -1], [2, -2]], path


def test_label_step_mins_into_what_nxt_holds(numpy_kernels):
    # one symbol whose targets are distinct, into an nxt not filled with the sentinel
    state = np.array([[5, -5]], dtype=np.int16)
    edges = np.array([[0]], dtype=np.int32)
    shifts2 = np.array([[0, 0]], dtype=np.int16)
    for path in _both_paths(numpy_kernels):
        nxt = np.array([[0, 0]], dtype=np.int16)
        _kernel.label_step(state, edges, shifts2, nxt)
        assert nxt.tolist() == [[0, -5]], path


def test_no_compiler_runs_the_numpy_label_dp(monkeypatch, tmp_path):
    compiled()
    p = random_robp(10, counter_alphabet(3), 4, 7)
    problem = p.alphabet

    def results():
        # each call on its own copy: a program keeps its DP's last layer, and
        # verify and minimal_error run no DP on a program that has one
        full, pot = compute_labels(copy.copy(p), "full"), compute_labels(copy.copy(p), "potential")
        labels = [[a.tobytes() for a in lp.lo + lp.hi] for lp in (full, pot)]
        return labels, verify(copy.copy(p), problem, 1), minimal_error(copy.copy(p), problem)

    expected = results()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    assert _kernel.load_library() is None
    calls = []
    numpy_step = _kernel._step_numpy
    monkeypatch.setattr(_kernel, "_step_numpy", lambda *a: calls.append(1) or numpy_step(*a))
    monkeypatch.setattr(_kernel, "library", _kernel.load_library)
    assert results() == expected
    assert len(calls) == 4 * p.n  # two label modes, verify and minimal_error
    assert list(tmp_path.rglob("*.so")) == []


def _label_split_cases():
    """Packed int16 and int32 layers with 2k columns (k of 1 to 4, and 9)
    and 0, 1 or 7 rows, with every d from 0 to k: values across each
    dtype's range but for its minimum, whose negation wraps."""
    rng = np.random.default_rng(8)
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        for k in (1, 2, 3, 4, 9):
            for vertices in (0, 1, 7):
                state = rng.integers(info.min + 1, info.max, (vertices, 2 * k), dtype=dtype)
                for d in range(k + 1):
                    yield state, d


def test_label_split_equals_the_old_slicing(numpy_kernels):
    for path in _both_paths(numpy_kernels):
        for state, d in _label_split_cases():
            k = state.shape[1] // 2
            lo, hi = _kernel.label_split(state, d)
            for got, want in ((lo, state[:, :d].copy()), (hi, -state[:, k : k + d])):
                assert got.dtype == want.dtype and got.shape == want.shape, path
                assert got.flags.c_contiguous and got.flags.owndata, path
                assert np.array_equal(got, want), path


def test_label_split_guards_reject_what_the_c_code_cannot_take(numpy_kernels):
    state = np.array([[1, 2, -3, -4], [5, 6, -7, -8]], dtype=np.int16)
    for path in _both_paths(numpy_kernels):
        bad = [
            (state.astype(np.int64), 1),  # not int16 or int32
            (state[:, :3].copy(), 1),  # odd columns
            (np.asfortranarray(state), 1),  # strided
            (state[0], 1),  # not 2-d
            (state, 3),  # d > k
            (state, -1),
        ]
        for args in bad:
            with pytest.raises(ValueError, match="label split"):
                _kernel.label_split(*args)
        lo, hi = _kernel.label_split(state, 2)
        assert lo.tolist() == [[1, 2], [5, 6]] and hi.tolist() == [[3, 4], [7, 8]], path


def _programs():
    """Every construction, a frontier witness, and seeded counter, parallel
    and binary random_robp programs."""
    programs = [
        exact_counter(6, 3),
        constant_program(5, Fraction(5, 2)),
        tribes(100, 4),
        tribes(100, 4, "optimal"),
        rounded_counter(100, 3, 10),
        system_to_robp(frontier(9, 3).witness),
    ]
    rng = random.Random(17)
    problems = [counter_alphabet(2), counter_alphabet(3), parallel_alphabet(2), binary_alphabet()]
    for seed in range(24):
        problem = problems[seed % 4]
        programs.append(random_robp(rng.randint(1, 12), problem, rng.randint(1, 6), seed))
    return programs


def test_compute_labels_equal_the_old_slicing_on_both_paths(numpy_kernels):
    programs = _programs()
    results = []
    for path in _both_paths(numpy_kernels):
        result = []
        for p in programs:
            shifts = p.alphabet.shifts
            k = shifts.shape[1]
            layers = list(labeling._label_layers(p, shifts))
            modes = ["full"] if p.alphabet.kind == "parallel" else ["full", "potential"]
            for mode in modes:
                d = k if mode == "full" else labeling._potential_k(p.alphabet) - 1
                lp = compute_labels(copy.copy(p), mode)
                assert [a.tobytes() for a in lp.lo] == [s[:, :d].tobytes() for s in layers], path
                assert [a.tobytes() for a in lp.hi] == [(-s[:, k : k + d]).tobytes() for s in layers]
                assert all(a.dtype == layers[0].dtype and a.shape[1] == d for a in lp.lo + lp.hi)
                result.append([(a.dtype, a.shape, a.tobytes()) for a in lp.lo + lp.hi])
        results.append(result)
    assert all(r == results[0] for r in results)


def _edited(p, rng):
    """p with one vertex of a random layer made unreachable (every edge into
    it redirected to its neighbour), and p with one target past the next
    layer and one negative."""
    layers = [t for t in range(1, p.n + 1) if p.layer_sizes[t] > 1]
    if layers:
        t = rng.choice(layers)
        v = rng.randrange(p.layer_sizes[t])
        edges = [np.array(e) for e in p.edges]
        edges[t - 1][edges[t - 1] == v] = (v + 1) % p.layer_sizes[t]
        yield Robp(p.n, p.alphabet, p.layer_sizes, edges, p.outputs)
    if p.n:
        edges = [np.array(e) for e in p.edges]
        t = rng.randrange(p.n)
        edges[t][rng.randrange(len(edges[t])), 0] = p.layer_sizes[t + 1]
        t = rng.randrange(p.n)
        edges[t][rng.randrange(len(edges[t])), -1] = -1
        yield Robp(p.n, p.alphabet, p.layer_sizes, edges, p.outputs)


def _unreachable_reference(p):
    """(layer, vertex, "unreachable") for every vertex no path reaches,
    layer by layer in vertex order, by plain forward search."""
    found, reached = [], {0}
    for t in range(p.n + 1):
        found += [(t, u, "unreachable") for u in range(p.layer_sizes[t]) if u not in reached]
        if t < p.n:
            reached = {int(z) for u in reached for z in p.edges[t][u]}
    return found


def _validate_cases():
    """Valid programs, the same with unreachable vertices or with targets
    outside the next layer, a start layer of three vertices, and a ragged
    layer of list rows."""
    rng = random.Random(23)
    for p in _programs():
        yield p
        yield from _edited(p, rng)
    binary = binary_alphabet()
    yield Robp(1, binary, [3, 2], [[[0, 0], [1, 1], [0, 1]]], [(Fraction(0),)] * 2)
    yield Robp(2, binary, [1, 3, 2], [[[0, 2]], [[0, 0], [1], [0, 0]]], [(Fraction(0),)] * 2)


def test_validate_reports_equal_on_both_paths(numpy_kernels):
    cases = list(_validate_cases())
    results = []
    for path in _both_paths(numpy_kernels):
        results.append([robp_module._build_report(p) for p in cases])
    assert all(r == results[0] for r in results)
    found = {v[2] for report in results[0] for v in report.violations}
    assert {"unreachable", "edge target outside next layer"} <= found
    for p, report in zip(cases, results[0]):
        if not any("outside" in v[2] or "out-degree" in v[2] for v in report.violations):
            assert [v for v in report.violations if v[2] == "unreachable"] == (
                _unreachable_reference(p)
            )


def test_reach_mark_equals_a_plain_search(numpy_kernels):
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(300):
        vertices, symbols, size = rng.integers(0, 12), rng.integers(1, 5), rng.integers(1, 12)
        edges = rng.integers(0, size, (vertices, symbols), dtype=np.int32)
        cases.append((edges, rng.random(vertices) < rng.random(), int(size)))
    for path in _both_paths(numpy_kernels):
        for edges, reached, size in cases:
            nxt = rng.random(size) < 0.5  # overwritten, whatever it held
            marked = _kernel.reach_mark(edges, reached, nxt)
            want = {int(z) for row in edges[reached] for z in row}
            assert nxt.tolist() == [v in want for v in range(size)], path
            assert marked == len(want), path


def test_reach_mark_refuses_what_the_c_code_cannot_take(numpy_kernels):
    edges = np.array([[0, 1], [1, 2]], dtype=np.int32)
    reached = np.array([True, False])
    for path in _both_paths(numpy_kernels):
        nxt = np.array([False, True, True])
        untouched = nxt.copy()
        read_only = nxt.copy()
        read_only.flags.writeable = False
        i32 = np.int32
        bad = [
            (np.array([[-1, 1], [1, 2]], i32), reached, nxt),  # negative target
            (np.array([[0, 1], [1, 3]], i32), reached, nxt),  # past the next layer, unreached row
            (np.array([[0, 1], [-(2**31), 2]], i32), reached, nxt),  # int32's minimum
            (np.array([[0, 1], [1, 2**31 - 1]], i32), reached, nxt),  # int32's maximum
            (edges.astype(np.int64), reached, nxt),  # edges not int32
            (np.asfortranarray(edges), reached, nxt),  # strided edges
            (edges[0], reached, nxt),  # not 2-d
            (edges, reached[:1], nxt),  # a reached flag per edge row
            (edges, reached.astype(np.uint8), nxt),  # not bool
            (edges, reached, np.zeros(6, dtype=bool)[::2]),  # strided nxt
            (edges, reached, read_only),
        ]
        for args in bad:
            with pytest.raises(ValueError, match="reach mark"):
                _kernel.reach_mark(*args)
            assert np.array_equal(nxt, untouched), path  # rejected calls wrote nothing
        assert _kernel.reach_mark(edges, reached, nxt) == 2
        assert nxt.tolist() == [True, True, False], path


def _all_ones_program(n):
    """Width 2 over bits: vertex 0 holds the inputs of all ones, whose final
    label [n, n] has lo + hi = 2n, past int16 for n > 16383 while the DP
    still runs in int16."""
    first = np.array([[1, 0]], dtype=np.int32)
    layer = np.array([[1, 0], [1, 1]], dtype=np.int32)
    outputs = [(Fraction(n),), (Fraction(0),)]
    return Robp(n, binary_alphabet(), [1] + [2] * n, [first] + [layer] * (n - 1), outputs)


def test_minimal_error_table_equals_the_normalized_one(numpy_kernels):
    # past the small programs, an int16 DP whose lo + hi passes int16 and an
    # int32 DP
    programs = _programs() + [_all_ones_program(20_000), _int32_program()]
    for path in _both_paths(numpy_kernels):
        for p in programs:
            p = copy.copy(p)
            best, table = minimal_error(p, p.alphabet)
            lo, hi = labeling._final_labels(p)
            assert lo.dtype == hi.dtype == p._last_labels.dtype, path
            want = RationalTable(lo.astype(np.int64) + hi, np.full(lo.shape, 2))
            for got, ref in ((table.num, want.num), (table.den, want.den)):
                assert got.dtype == ref.dtype == np.int64 and got.shape == ref.shape, path
                assert np.array_equal(got, ref) and not got.flags.writeable, path
            assert table == want and best == Fraction(int((hi - lo).max()), 2)


# ---------------------------------------------------------------------------
# the JSON transport: edge_format, table_format, edge_scan and table_scan
# ---------------------------------------------------------------------------

_I32 = np.iinfo(np.int32)
_I64 = np.iinfo(np.int64)


def _edge_layer_cases():
    """Lists of edge layers: seeded random layers with 0, negative targets
    and int32's ends mixed in, empty layers, and 1,000 thin layers."""
    rng = np.random.default_rng(8)
    ends = np.array([0, -1, 1, 9, 10, -10, _I32.max, -_I32.max, _I32.min], np.int32)
    cases = [[], [np.zeros((0, 2), np.int32)], [np.zeros((0, 3), np.int32)] * 3]
    for _ in range(40):
        symbols = int(rng.integers(1, 9))
        layers = []
        for _ in range(int(rng.integers(1, 6))):
            rows = int(rng.choice([0, 1, 3, 40, 300]))
            scale = int(rng.choice([10, 10**4, 2**31]))
            layer = rng.integers(-scale, scale, (rows, symbols), dtype=np.int64)
            layer = np.clip(layer, _I32.min, _I32.max).astype(np.int32)
            layer.ravel()[rng.random(layer.size) < 0.2] = rng.choice(ends)
            layers.append(layer)
        cases.append(layers)
    cases.append([np.array([[t % 7, -t]], np.int32) for t in range(1000)])
    cases.append([np.resize(ends, (600, 3)).astype(np.int32)])  # past the twin's 256 switch
    return cases


def _reference_edges(layers):
    """The edge layers as json.dumps spells them, joined by commas."""
    return ",".join(json.dumps(a.tolist(), separators=(",", ":")) for a in layers)


def test_edge_format_writes_the_json_text_on_both_paths(numpy_kernels):
    cases = _edge_layer_cases()
    for path in _both_paths(numpy_kernels):
        for layers in cases:
            text = _kernel.edge_format(layers)
            assert text == _reference_edges(layers), path
            assert text == _kernel._edge_format_numpy(layers), path


def test_edge_format_takes_list_rows_through_the_twin():
    layers = [np.array([[0, 1]], np.int32), [[0, 1, 2], [2**40, -3]], np.array([[5, 6]], np.int32)]
    assert _kernel.edge_format(layers) == "[[0,1]],[[0,1,2],[1099511627776,-3]],[[5,6]]"
    # arrays the C code cannot take, formatted the same
    wide = np.arange(-6, 6, dtype=np.int64).reshape(4, 3)
    for layers in ([wide], [np.asfortranarray(wide.astype(np.int32))], [wide.astype(np.int32), wide[:, :2]]):
        assert _kernel.edge_format(layers) == _reference_edges(layers)


def _table_cases():
    """(num, den) int64 pairs: p/q cells, negative cells, 18- and 19-digit
    cells, int64's ends, and tables with no rows or no columns."""
    rng = np.random.default_rng(9)
    cases = [(np.zeros((0, 2), np.int64), np.ones((0, 2), np.int64)),
             (np.zeros((3, 0), np.int64), np.ones((3, 0), np.int64))]
    wide = [0, 1, -1, 10**17, -(10**17) + 3, 10**18 - 1, -(10**18) + 1, _I64.max, _I64.min]
    for _ in range(30):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        scale = int(rng.choice([10, 10**6, 10**18]))
        num = rng.integers(-scale, scale, (rows, cols), dtype=np.int64)
        den = np.where(rng.random((rows, cols)) < 0.5, 1, rng.integers(1, scale, (rows, cols)))
        num.ravel()[rng.random(num.size) < 0.2] = rng.choice(wide)
        den.ravel()[rng.random(den.size) < 0.1] = rng.choice([_I64.max, 10**18 - 1, 2])
        cases.append((num, den.astype(np.int64)))
    return cases


def _reference_table(num, den):
    rows = [[str(a) if b == 1 else f"{a}/{b}" for a, b in zip(r, s)] for r, s in zip(num.tolist(), den.tolist())]
    return json.dumps(rows, separators=(",", ":"))


def test_table_format_writes_the_json_text_on_both_paths(numpy_kernels):
    cases = _table_cases()
    for path in _both_paths(numpy_kernels):
        for num, den in cases:
            assert _kernel.table_format(num, den) == _reference_table(num, den), path
            # a table of Python ints, past int64, goes through the twin
            big = num.astype(object) * 2**70
            assert _kernel.table_format(big, den) == _reference_table(big, den), path


def test_table_format_refuses_tables_of_two_shapes():
    for num, den in [(np.zeros((2, 2), np.int64), np.ones((2, 3), np.int64)),
                     (np.zeros(2, np.int64), np.ones(2, np.int64))]:
        with pytest.raises(ValueError, match="table format"):
            _kernel.table_format(num, den)


def test_edge_scan_reads_what_edge_format_writes_on_both_paths(numpy_kernels):
    cases = [layers for layers in _edge_layer_cases() if layers]
    for path in _both_paths(numpy_kernels):
        for layers in cases:
            text = b"xx" + _kernel.edge_format(layers).encode() + b"yy"
            symbols = layers[0].shape[1]
            sizes = [len(a) for a in layers] + [5]
            got = _kernel.edge_scan(text, 2, len(text) - 2, symbols, sizes)
            if got is None and path == "numpy" and any(len(a) == 0 for a in layers):
                # the twin splits its batches at "]],[[", which an empty
                # layer lacks, so it may refuse such text: the walk reads it
                continue
            assert got is not None and len(got) == len(layers), path
            for a, b in zip(got, layers):
                assert a.dtype == np.int32 and not a.flags.writeable, path
                assert np.array_equal(a, b), path


def _scan_edges(text: bytes, symbols: int, sizes):
    return _kernel.edge_scan(text, 0, len(text), symbols, sizes)


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(b"[[0,1]],[[0,1],[1,2]]", [[[0, 1]], [[0, 1], [1, 2]]], id="two-layers"),
        pytest.param(b"", [], id="no-layers"),
        pytest.param(b"[[2147483647,-2147483648]]", [[[_I32.max, _I32.min]]], id="int32-ends"),
        pytest.param(b"[[0,2147483648]]", None, id="target-2**31"),
        pytest.param(b"[[-2147483649,0]]", None, id="target-below-int32"),
        pytest.param(b"[[0,99999999999]]", None, id="eleven-digits"),
        pytest.param(b"[[0,18446744073709551617]]", None, id="2**64+1"),  # 1, wrapped in int64
        pytest.param(b"[[-0,1]]", None, id="minus-zero"),
        pytest.param(b"[[01,1]]", None, id="leading-zero"),
        pytest.param(b"[[00,1]]", None, id="double-zero"),
        pytest.param(b"[[+1,1]]", None, id="plus-sign"),
        pytest.param(b"[[-,1]]", None, id="bare-minus"),
        pytest.param(b"[[1 ,1]]", None, id="space"),
        pytest.param(b"[[1,1],]", None, id="trailing-comma"),
        pytest.param(b"[[0,1]],", None, id="trailing-layer-comma"),
        pytest.param(b"[[0,1]]]", None, id="extra-bracket"),
        pytest.param(b"[[0,1,2]]", None, id="long-row"),
        pytest.param(b"[[0]]", None, id="short-row"),
        pytest.param(b"[[0,1],[1,2]]", None, id="long-layer"),
        pytest.param(b"[]", None, id="empty-layer-of-one-row"),
        pytest.param(b"[[0,1]],[[0,1],[1,2]],[[0,1],[1,2],[2,3]]", None, id="more-layers-than-sizes"),
        pytest.param(b"[[0,1]],[[0,1],[1,2]],[]", None, id="empty-layer-past-the-sizes"),
    ],
)
def test_edge_scan_takes_the_one_spelling(text, expected, numpy_kernels):
    for path in _both_paths(numpy_kernels):
        got = _scan_edges(text, 2, [1, 2])
        if expected is None:
            assert got is None, path
        else:
            assert [a.tolist() for a in got] == expected, path


def test_edge_scan_takes_empty_layers_the_sizes_declare():
    compiled()
    got = _scan_edges(b"[[0,0]],[],[[1,1]]", 2, [1, 0, 1])
    assert [a.shape for a in got] == [(1, 2), (0, 2), (1, 2)]


def test_edge_scan_allocates_nothing_for_sizes_the_text_cannot_back(numpy_kernels):
    import tracemalloc

    text = b"[[0,0]],[[0,0]]"
    for path in _both_paths(numpy_kernels):
        for sizes in ([10**9, 1], [1, 2**40], [2**62, 2**62], [1, 1, 10**12]):
            tracemalloc.start()
            try:
                got = _scan_edges(text, 2, sizes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (path, sizes, peak)
            if sizes[:2] == [1, 1]:
                assert [a.tolist() for a in got] == [[[0, 0]], [[0, 0]]], path
            else:
                assert got is None, path


def test_edge_scan_reads_only_its_slice(numpy_kernels):
    text = b"[[0,1]],[[0,1],[1,2]]"
    for path in _both_paths(numpy_kernels):
        # cut one byte short, the last layer is refused rather than read on
        assert _kernel.edge_scan(text, 0, len(text) - 1, 2, [1, 2]) is None, path
        # every prefix but the empty one (no layers) and the first layer's
        for end in range(len(text)):
            got = _kernel.edge_scan(text, 0, end, 2, [1, 2])
            assert (got is None) == (end not in (0, 7)), (path, end)


def test_edge_scan_refuses_arguments_it_cannot_take():
    for args in [
        (bytearray(b"[[0,1]]"), 0, 7, 2, [1]),
        ("[[0,1]]", 0, 7, 2, [1]),
        (b"[[0,1]]", 0, 8, 2, [1]),
        (b"[[0,1]]", 3, 2, 2, [1]),
        (b"[[0,1]]", -1, 7, 2, [1]),
        (b"[[0,1]]", 0, 7, 0, [1]),
        (b"[[0,1]]", 0, 7, 2, [-1]),
        (b"[[0,1]]", 0, 7, 2, [True]),
    ]:
        with pytest.raises(ValueError, match="edge scan"):
            _kernel.edge_scan(*args)


def _scan_table(text: bytes):
    return _kernel.table_scan(text, 0)


def test_table_scan_reads_what_table_format_writes():
    compiled()
    for num, den in _table_cases():
        table = RationalTable(num.clip(-(10**18) + 1, 10**18 - 1), den.clip(1, 10**18 - 1))
        if not len(table) or not table.shape[1]:
            continue
        text = _kernel.table_format(table.num, table.den).encode() + b"}"
        got_num, got_den, stop, reduced = _scan_table(text)
        assert stop == len(text) - 1 and reduced
        assert np.array_equal(got_num, table.num) and np.array_equal(got_den, table.den)


def test_table_scan_takes_exactly_the_cells_bulk_outputs_takes():
    compiled()
    rng = random.Random(5)
    pieces = ["0", "7", "12", "9" * 17, "9" * 18, "-", "/", "+", " ", "\\u0031", "a", "1/0"]
    cells = ["-0", "007", "0/5", "2/4", "-3/6", "1/01", "1/0", "9" * 19, "1/" + "9" * 19]
    cells += ["".join(rng.choices(pieces, k=rng.randint(0, 5))) for _ in range(4000)]
    accepted = 0
    for cell in cells:
        for rows in ([[cell]], [["1", cell], [cell, "-2/3"]]):
            text = json.dumps(rows, separators=(",", ":")).encode()
            got = _scan_table(text)
            want = robp_module._bulk_outputs(json.loads(text))
            assert (got is None) == (want is None), cell
            if got is not None:
                num, den, stop, reduced = got
                table = RationalTable(num, den)
                assert table == want and stop == len(text), cell
                assert reduced == (np.array_equal(num, want.num) and np.array_equal(den, want.den)), cell
                accepted += 1
    assert accepted > 500


@pytest.mark.parametrize(
    "text",
    [b"[]", b"[[]]", b'[["1"],[]]', b'[["1"],["1","2"]]', b'[["1","2"],["1"]]', b'[["1"]', b'[["1"],',
     b'[["1"] ]', b'[[ "1"]]', b'[["1",]]', b'[[1]]', b'[["1\\n"]]', b'[["1"]],', b'[["1"', b""],
)
def test_table_scan_refuses_other_tables(text):
    compiled()
    got = _scan_table(text)
    if text == b'[["1"]],':  # the table ends before the comma
        assert got is not None and got[2] == len(text) - 1
    else:
        assert got is None


def test_table_scan_needs_a_library_and_bytes(numpy_kernels):
    with pytest.raises(ValueError, match="table scan"):
        _kernel.table_scan(bytearray(b'[["1"]]'), 0)
    with pytest.raises(ValueError, match="table scan"):
        _kernel.table_scan(b'[["1"]]', 8)
    numpy_kernels()
    assert _kernel.table_scan(b'[["1"]]', 0) is None
