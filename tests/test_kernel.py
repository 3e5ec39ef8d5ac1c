"""The compiled paint-and-sum kernel against the numpy painter, and its loader."""

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
    binary_alphabet,
    compute_labels,
    constant_program,
    counter_alphabet,
    parallel_alphabet,
    profile_counter,
    profile_parallel,
    random_robp,
    rounded_counter,
)
from robpcount import _kernel, potential

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
REPO = Path(__file__).resolve().parents[1]


def compiled():
    paint = _kernel.kernel()
    if paint is None:
        pytest.skip("paint kernel not built; test_kernel_loads_here says why")
    return paint


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
    paint = compiled()
    lo, hi, vals, base, shape, t = case
    flat = potential._paint(lo, hi, vals, base, shape, [10**9])
    sums = potential._coord_sums(base, shape)
    covered = (flat >= 0) & (sums <= t)
    grid = np.full(flat.size, -1, dtype=np.int64)
    total = paint(lo - base, hi - base, vals, shape, int(base.sum()), t, grid)
    assert np.array_equal(grid, flat)
    assert total == int((flat[covered] - sums[covered]).sum())


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
def test_profiles_equal_on_both_paint_paths(monkeypatch, profile, cases):
    compiled()
    labels = list(cases())
    fast = [profile(lp).phi_values for lp in labels]
    monkeypatch.setattr(_kernel, "kernel", lambda: None)
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
def test_profiles_equal_on_both_paint_paths_past_16_columns(monkeypatch, seed):
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
    monkeypatch.setattr(_kernel, "kernel", lambda: None)
    assert (profile_counter(counter).phi_values, profile_parallel(parallel).phi_values) == fast


def test_kernel_guards_reject_what_the_c_code_cannot_take():
    paint = compiled()
    lo = np.array([[0, 1]], dtype=np.int64)
    hi = np.array([[1, 2]], dtype=np.int64)
    vals = np.array([5], dtype=np.int64)
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
            paint(lo_, hi_, vals_, shape, 0, 9, grid_)
    assert (grid == -1).all()  # rejected calls wrote nothing
    # cells (0,1), (0,2), (1,1), (1,2) each give 5 - coordinate sum
    assert paint(lo, hi, vals, (3, 3), 0, 9, grid) == 4 + 3 + 3 + 2


def _one_program():
    return compute_labels(random_robp(8, counter_alphabet(3), 4, 5), "potential")


@needs_cc
def test_kernel_loads_here(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load_kernel() is not None
    cache = tmp_path / "robpcount"
    assert [f.name for f in cache.iterdir()] == [_kernel.library_name()]
    assert cache.stat().st_mode & 0o777 == 0o700


@needs_cc
def test_second_load_reuses_the_cached_library(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load_kernel() is not None

    def fail(target):
        raise OSError("the compiler ran on a cache hit")

    monkeypatch.setattr(_kernel, "compile_library", fail)
    assert _kernel.load_kernel() is not None


def test_no_compiler_runs_the_numpy_painter(monkeypatch, tmp_path):
    lp = _one_program()
    expected = profile_counter(lp).phi_values
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    assert _kernel.load_kernel() is None
    assert list(tmp_path.rglob("*.so")) == []
    calls = []
    numpy_painter = potential._paint_numpy
    monkeypatch.setattr(
        potential, "_paint_numpy", lambda *a: calls.append(1) or numpy_painter(*a)
    )
    monkeypatch.setattr(_kernel, "kernel", _kernel.load_kernel)
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
    assert _kernel.load_kernel() is not None
    assert (tmp_path / ".cache" / "robpcount" / _kernel.library_name()).is_file()
    assert tree() == before


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
         "-x", "c", "-", "-o", str(tmp_path / "paint.so")],
        input=_kernel.SOURCE.encode(),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
