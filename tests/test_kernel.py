"""The compiled kernels against their numpy references (the painter and the
label DP step), and their loader."""

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
    minimal_error,
    parallel_alphabet,
    profile_counter,
    profile_parallel,
    random_robp,
    rounded_counter,
    verify,
)
from robpcount import _kernel, labeling

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
def paint_cases(draw):
    """Rectangles on a small grid at a nonzero base: overlaps, nesting,
    exact duplicates, single cells and boxes reaching the far corner, with
    a cap t below, inside or above the grid's coordinate sums."""
    d = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(d))
    base = np.array([draw(st.integers(0, 4)) for _ in range(d)], dtype=np.int64)
    rects = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["box", "duplicate", "cell", "far corner"]))
        if kind == "duplicate" and rects:
            rects.append(draw(st.sampled_from(rects)))
            continue
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        if kind == "cell":
            hi = lo
        elif kind == "far corner":
            hi = [s - 1 for s in shape]
        else:
            hi = [draw(st.integers(a, s - 1)) for a, s in zip(lo, shape)]
        rects.append((tuple(lo), tuple(hi), draw(st.integers(0, 30))))
    lo = np.array([r[0] for r in rects], dtype=np.int64).reshape(-1, d) + base
    hi = np.array([r[1] for r in rects], dtype=np.int64).reshape(-1, d) + base
    vals = np.array([r[2] for r in rects], dtype=np.int64)
    s0 = int(base.sum())
    t = draw(st.integers(s0 - 3, s0 + sum(shape) - d + 3))
    return lo, hi, vals, base, shape, t


@given(paint_cases())
@example(  # one box over the whole grid, capped inside it
    (np.array([[2, 0]]), np.array([[4, 3]]), np.array([9]), np.array([2, 0]), (3, 4), 4)
)
@settings(max_examples=300, deadline=None)
def test_kernel_paints_and_sums_like_numpy(case):
    compiled()
    lo, hi, vals, base, shape, t = case
    args = (lo - base, hi - base, vals, shape, int(base.sum()), t)
    grid = np.full(math.prod(shape), -1, dtype=np.int64)
    expected = grid.copy()
    total = _kernel.paint_sum(*args, grid)
    assert total == _kernel._paint_numpy(*args, expected)
    assert np.array_equal(grid, expected)


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
    lo = np.array([[0, 1]], dtype=np.int64)
    hi = np.array([[1, 2]], dtype=np.int64)
    vals = np.array([5], dtype=np.int64)
    for path in _both_paths(numpy_kernels):
        grid = np.full(9, -1, dtype=np.int64)
        bad = [
            (lo.astype(np.int32), hi, vals, (3, 3), grid),  # not int64
            (lo, np.array([[1, 9, 2]], dtype=np.int64)[:, ::2], vals, (3, 3), grid),  # strided
            (lo, hi, vals[:0], (3, 3), grid),  # one value per rectangle
            (lo, hi, vals, (3, 3, 1), grid),  # shape of length d
            (lo, hi, vals, (3, 4), grid),  # grid size
            (lo - 1, hi, vals, (3, 3), grid),  # lo >= 0
            (lo, lo - [[0, 1]], vals, (3, 3), grid),  # hi >= lo
            (lo, hi + 1, vals, (3, 3), grid),  # hi < shape
            (np.zeros((1, 0), np.int64), np.zeros((1, 0), np.int64), vals, (), grid[:1]),  # d >= 1
        ]
        for lo_, hi_, vals_, shape, grid_ in bad:
            with pytest.raises(ValueError, match="paint kernel"):
                _kernel.paint_sum(lo_, hi_, vals_, shape, 0, 9, grid_)
        assert (grid == -1).all(), path  # rejected calls wrote nothing
        # cells (0,1), (0,2), (1,1), (1,2) each give 5 - coordinate sum
        assert _kernel.paint_sum(lo, hi, vals, (3, 3), 0, 9, grid) == 4 + 3 + 3 + 2, path


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


def _label_cases():
    """(program, shift table) pairs: seeded random programs in the full and
    the potential column slice (parallel programs have only the full one),
    and a 3-counter rounded program with merging layers."""
    rng = random.Random(41)
    problems = [counter_alphabet(2), counter_alphabet(3), binary_alphabet(), parallel_alphabet(2)]
    for seed in range(40):
        problem = problems[seed % 4]
        p = random_robp(rng.randint(1, 12), problem, rng.randint(1, 6), seed)
        shifts = labeling._shift_table(problem)
        yield p, shifts
        if problem.kind != "parallel":
            yield p, shifts[:, : labeling._potential_k(problem) - 1]
    p = rounded_counter(100, 3, 10)
    shifts = labeling._shift_table(p.alphabet)
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
    assert [(verify(p, p.alphabet, 1), minimal_error(p, p.alphabet)) for p, _ in cases] == finals


def test_label_step_equals_the_numpy_dp_on_int32_labels(numpy_kernels):
    compiled()
    p = _int32_program()
    shifts = labeling._shift_table(p.alphabet)
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
            (state, edges - [[1, 0], [0, 0]], shifts2, nxt),  # negative target
            (state, edges + [[0, 0], [0, 1]], shifts2, nxt),  # target past the next layer
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
        full, pot = compute_labels(p, "full"), compute_labels(p, "potential")
        labels = [[a.tobytes() for a in lp.lo + lp.hi] for lp in (full, pot)]
        return labels, verify(p, problem, 1), minimal_error(p, problem)

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
