"""The kernels behind the potential profiles and the label DP.

layer_boxes and layer_paint measure, then paint and sum, one layer of a
potential profile, and label_step runs one layer of the label DP. Each
checks its arguments, then runs the C source below if its library loaded,
and otherwise the same computation in numpy (_boxes_numpy,
_paint_layer_numpy, _step_numpy; also the references the tests compare the
C code against). Both paths give identical results, so callers never ask
which one ran.

The C source holds the three kernels, each in an int16 and an int32 body
for the two label dtypes. It is compiled once per machine with the system
C compiler (`cc`) into $XDG_CACHE_HOME/robpcount/ (default
~/.cache/robpcount/) and loaded with ctypes, once per process; ctypes
releases the GIL while a kernel runs, so layers can be painted on several
threads at once. The library's file name is a 64-bit checksum of the
source, the compile command and the machine type, so a cache hit costs a
stat and a dlopen. When no compiler is found, the compile fails or the
cache cannot be written, library() returns None.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import platform
import shutil
import tempfile
import zlib

import numpy as np

# -O3: GCC 12 vectorizes label_step's inner loop, whose length is only
# known at run time, at -O3 and not at -O2 (about 4x faster on 8-column
# int16 rows)
COMPILE = ("cc", "-O3", "-shared", "-fPIC")

SOURCE = r"""
#include <stdint.h>

/* A layer's label row (p = lo, q = hi, d columns) widened to int64 into a
   (lo) and h (hi clipped at clip). The row is kept, and 1 returned, when its
   value *v = min(sum hi, cap) exceeds sum lo and every lo <= clip. */
#define LOAD_ROW(NAME, T)                                                   \
static inline int NAME(int64_t d, const T *p, const T *q, int64_t cap,     \
                       int64_t clip, int64_t *a, int64_t *h, int64_t *v)    \
{                                                                           \
    int64_t slo = 0, shi = 0, pmax = p[0];                                  \
    for (int64_t j = 0; j < d; j++) {                                       \
        slo += p[j];                                                        \
        shi += q[j];                                                        \
        pmax = p[j] > pmax ? p[j] : pmax;                                   \
    }                                                                       \
    *v = shi < cap ? shi : cap;                                             \
    if (*v <= slo || pmax > clip)                                           \
        return 0;                                                           \
    for (int64_t j = 0; j < d; j++) {                                       \
        a[j] = p[j];                                                        \
        h[j] = q[j] < clip ? q[j] : clip;                                   \
    }                                                                       \
    return 1;                                                               \
}

LOAD_ROW(load_row_i16, int16_t)
LOAD_ROW(load_row_i32, int32_t)

/* One pass over a layer's n label rows: the number of kept rows, and over
   them the least lo (base) and the largest clipped hi (top) per column and
   the summed volume of the boxes [lo, clipped hi] (a box with hi < lo has
   none), saturated at INT64_MAX.
   With no row kept, base holds INT64_MAX and top INT64_MIN. */
#define LAYER_BOXES(NAME, T, LOAD)                                          \
int64_t NAME(int64_t n, int64_t d, const T *lo, const T *hi, int64_t cap,   \
             int64_t clip, int64_t *base, int64_t *top, int64_t *volume)    \
{                                                                           \
    int64_t a[d], h[d], v, kept = 0;                                        \
    uint64_t total = 0;                                                     \
    for (int64_t j = 0; j < d; j++) {                                       \
        base[j] = INT64_MAX;                                                \
        top[j] = INT64_MIN;                                                 \
    }                                                                       \
    for (int64_t r = 0; r < n; r++) {                                       \
        if (!LOAD(d, lo + r * d, hi + r * d, cap, clip, a, h, &v))          \
            continue;                                                       \
        kept++;                                                             \
        uint64_t cells = 1;                                                 \
        for (int64_t j = 0; j < d; j++) {                                   \
            base[j] = a[j] < base[j] ? a[j] : base[j];                      \
            top[j] = h[j] > top[j] ? h[j] : top[j];                         \
            const int64_t w = h[j] >= a[j] ? h[j] - a[j] + 1 : 0;            \
            if (__builtin_mul_overflow(cells, (uint64_t)w, &cells))         \
                cells = UINT64_MAX;                                         \
        }                                                                   \
        if (__builtin_add_overflow(total, cells, &total))                   \
            total = UINT64_MAX;                                             \
    }                                                                       \
    *volume = total > INT64_MAX ? INT64_MAX : (int64_t)total;               \
    return kept;                                                            \
}

LAYER_BOXES(layer_boxes_i16, int16_t, load_row_i16)
LAYER_BOXES(layer_boxes_i32, int32_t, load_row_i32)

/* Max-paint v over the box [a, b] of the row-major grid with the given
   strides; idx is scratch of d entries. The box's last two axes form a slab
   of rows of width cells (one row when d = 1), painted by two plain loops,
   and the odometer steps over axes d-3 .. 0 only, one slab per step. On
   layers 80-100 of rounded_counter(100, 4, 10), whose box rows hold 2-8
   cells and boxes about 120, an odometer step per row painted about 8%
   slower (2-vCPU x86-64 guest, GCC 12). */
static void paint_box(int64_t d, const int64_t *a, const int64_t *b, int32_t v,
                      const int64_t *stride, int64_t *idx, int32_t *grid)
{
    const int64_t width = b[d - 1] - a[d - 1] + 1;
    const int64_t rows = d > 1 ? b[d - 2] - a[d - 2] + 1 : 1;
    const int64_t pitch = d > 1 ? stride[d - 2] : 0;
    int64_t off = 0;
    for (int64_t j = 0; j < d; j++) {
        idx[j] = a[j];
        off += a[j] * stride[j];
    }
    for (;;) {
        for (int64_t r = 0; r < rows; r++) {
            int32_t *row = grid + off + r * pitch;
            /* an unconditional store: a data-dependent branch here
               mispredicts often and paints about 30% slower */
            for (int64_t c = 0; c < width; c++) {
                const int32_t x = row[c];
                row[c] = x < v ? v : x;
            }
        }
        /* next slab of the box: an odometer over axes d-3 .. 0 */
        int64_t j = d - 3;
        while (j >= 0 && idx[j] == b[j]) {
            off -= (b[j] - a[j]) * stride[j];
            idx[j] = a[j];
            j--;
        }
        if (j < 0)
            break;
        idx[j]++;
        off += stride[j];
    }
}

/* The sum of cell - (s0 + coordinate sum) over the cells >= 0 of the grid
   whose s0 + coordinate sum is at most t, where s0 is the coordinate sum of
   the grid origin; idx is scratch of d entries. */
static int64_t grid_sum(int64_t d, const int64_t *shape, const int64_t *stride,
                        int64_t s0, int64_t t, int64_t *idx, const int32_t *grid)
{
    const int64_t last = shape[d - 1];
    int64_t total = 0, rowsum = 0, off = 0;
    for (int64_t j = 0; j < d; j++)
        idx[j] = 0;
    for (;;) {
        /* cells c of this row have coordinate sum s0 + rowsum + c */
        int64_t m = t - s0 - rowsum + 1;
        if (m > last)
            m = last;
        const int32_t *row = grid + off;
        for (int64_t c = 0; c < m; c++)
            if (row[c] >= 0)
                total += row[c] - (s0 + rowsum + c);
        int64_t j = d - 2;
        while (j >= 0 && idx[j] == shape[j] - 1) {
            rowsum -= idx[j];
            off -= idx[j] * stride[j];
            idx[j] = 0;
            j--;
        }
        if (j < 0)
            break;
        idx[j]++;
        rowsum++;
        off += stride[j];
    }
    return total;
}

/* Fill the row-major int32 grid of the given shape, whose origin is base,
   with -1; max-paint the box [lo, clipped hi] of every row layer_boxes
   keeps under the same cap and clip with the row's value; then store
   grid_sum's sum up to t in *sum and return 0. A kept box that does not lie
   inside the grid, or whose value does not fit int32, is never painted: the
   call returns 1 at once. The caller guarantees d >= 1, shape >= 1 and a
   grid of prod(shape) cells. */
#define LAYER_PAINT(NAME, T, LOAD)                                          \
int64_t NAME(int64_t n, int64_t d, const T *lo, const T *hi, int64_t cap,   \
             int64_t clip, const int64_t *base, const int64_t *shape,       \
             int64_t t, int32_t *grid, int64_t *sum)                        \
{                                                                           \
    int64_t stride[d], idx[d], a[d], h[d], v;                               \
    int64_t cells = 1, s0 = 0;                                              \
    for (int64_t j = d - 1; j >= 0; j--) {                                  \
        stride[j] = cells;                                                  \
        cells *= shape[j];                                                  \
        s0 += base[j];                                                      \
    }                                                                       \
    for (int64_t c = 0; c < cells; c++)                                     \
        grid[c] = -1;                                                       \
    for (int64_t r = 0; r < n; r++) {                                       \
        if (!LOAD(d, lo + r * d, hi + r * d, cap, clip, a, h, &v))          \
            continue;                                                       \
        int bad = v > INT32_MAX;                                            \
        for (int64_t j = 0; j < d; j++) {                                   \
            a[j] -= base[j];                                                \
            h[j] -= base[j];                                                \
            bad |= a[j] < 0 || h[j] < a[j] || h[j] >= shape[j];             \
        }                                                                   \
        if (bad)                                                            \
            return 1;                                                       \
        paint_box(d, a, h, (int32_t)v, stride, idx, grid);                  \
    }                                                                       \
    *sum = grid_sum(d, shape, stride, s0, t, idx, grid);                    \
    return 0;                                                               \
}

LAYER_PAINT(layer_paint_i16, int16_t, load_row_i16)
LAYER_PAINT(layer_paint_i32, int32_t, load_row_i32)

/* One layer of the label DP: for every vertex u < vertices and symbol
   z < symbols, min the packed row state[u] + shifts2[z] (cols entries)
   into nxt[edges[u * symbols + z]]. The caller guarantees every edge
   target indexes a row of nxt. */
#define LABEL_STEP(NAME, T)                                                 \
void NAME(int64_t vertices, int64_t symbols, int64_t cols,                  \
          const T *restrict state, const int32_t *restrict edges,           \
          const T *restrict shifts2, T *restrict nxt)                       \
{                                                                           \
    for (int64_t u = 0; u < vertices; u++) {                                \
        const T *s = state + u * cols;                                      \
        for (int64_t z = 0; z < symbols; z++) {                             \
            const T *sh = shifts2 + z * cols;                               \
            T *row = nxt + (int64_t)edges[u * symbols + z] * cols;          \
            for (int64_t c = 0; c < cols; c++) {                            \
                const T x = (T)(s[c] + sh[c]);                              \
                row[c] = x < row[c] ? x : row[c];                           \
            }                                                               \
        }                                                                   \
    }                                                                       \
}

LABEL_STEP(label_step_i16, int16_t)
LABEL_STEP(label_step_i32, int32_t)
"""

# a cap, clip or t of None: above every label sum, and far enough inside
# int64 that no sum the C code forms with it overflows
_NO_LIMIT = 2**62


def _limit(x) -> int:
    return _NO_LIMIT if x is None else max(-_NO_LIMIT, min(int(x), _NO_LIMIT))


def _check_labels(kernel: str, lo, hi) -> None:
    if not all(
        isinstance(a, np.ndarray) and a.ndim == 2 and a.flags.c_contiguous for a in (lo, hi)
    ):
        raise ValueError(f"{kernel} needs 2-d C-contiguous label arrays")
    if lo.dtype not in (np.int16, np.int32) or hi.dtype != lo.dtype:
        raise ValueError(f"{kernel} needs int16 or int32 lo and hi of one dtype")
    if lo.shape != hi.shape or lo.shape[1] < 1:
        raise ValueError(f"{kernel} needs lo and hi of one shape (n, d) with d >= 1")


def layer_boxes(lo, hi, cap=None, clip=None) -> tuple[int, np.ndarray, np.ndarray, int]:
    """One pass over a layer's label rows lo, hi (int16 or int32, shape
    (n, d)). A row is kept when min(sum hi, cap) > sum lo and every lo <=
    clip; its box runs from lo to min(hi, clip). Returns the number of kept
    rows, the least lo (base) and the largest clipped hi (top) per column
    over them, and their boxes' summed volume (none for a box with hi < lo),
    capped at the int64 maximum.
    With no row kept, base holds the int64 maximum and top its minimum.

    The arguments are checked for what the C code relies on, then the C
    code runs, or _boxes_numpy without a library."""
    _check_labels("layer boxes", lo, hi)
    cap, clip = _limit(cap), _limit(clip)
    lib = library()
    if lib is None:
        return _boxes_numpy(lo, hi, cap, clip)
    n, d = lo.shape
    base = np.empty(d, dtype=np.int64)
    top = np.empty(d, dtype=np.int64)
    volume = ctypes.c_int64()
    fn = lib.layer_boxes_i16 if lo.dtype == np.int16 else lib.layer_boxes_i32
    kept = fn(n, d, lo.ctypes.data, hi.ctypes.data, cap, clip, base.ctypes.data,
              top.ctypes.data, ctypes.byref(volume))
    return kept, base, top, volume.value


_OUTSIDE = "layer paint: a kept box lies outside the grid or its value exceeds int32"


def layer_paint(lo, hi, cap, clip, base, shape, t, grid) -> int:
    """Max-paint the box of every row layer_boxes(lo, hi, cap, clip) keeps,
    with the row's value min(sum hi, cap), onto grid: the flat int32 grid
    over shape whose origin is base, first filled with -1. Returns the sum
    of cell - coordinate sum over the painted cells whose coordinate sum is
    at most t (None: every cell).

    A kept box outside the grid, or whose value does not fit int32, raises
    ValueError and is never painted. The other arguments are checked for
    what the C code relies on, then the C code runs, or _paint_layer_numpy
    without a library."""
    _check_labels("layer paint", lo, hi)
    cap, clip, t = _limit(cap), _limit(clip), _limit(t)
    n, d = lo.shape
    base = np.ascontiguousarray(base, dtype=np.int64)
    shape = np.ascontiguousarray(shape, dtype=np.int64)
    if (
        base.shape != (d,)
        or shape.shape != (d,)
        or (shape < 1).any()
        or (np.abs(base) > np.iinfo(np.int32).max).any()
    ):
        raise ValueError("layer paint needs a base within int32 and a positive shape of length d")
    if not (
        isinstance(grid, np.ndarray)
        and grid.dtype == np.int32
        and grid.ndim == 1
        and grid.flags.c_contiguous
        and grid.flags.writeable
        and grid.size == math.prod(shape.tolist())
    ):
        raise ValueError("layer paint needs a writeable flat int32 grid of the shape's size")
    lib = library()
    if lib is None:
        return _paint_layer_numpy(lo, hi, cap, clip, base, shape, t, grid)
    total = ctypes.c_int64()
    fn = lib.layer_paint_i16 if lo.dtype == np.int16 else lib.layer_paint_i32
    if fn(n, d, lo.ctypes.data, hi.ctypes.data, cap, clip, base.ctypes.data,
          shape.ctypes.data, t, grid.ctypes.data, ctypes.byref(total)):
        raise ValueError(_OUTSIDE)
    return total.value


def _kept_boxes(lo, hi, cap: int, clip: int):
    """The rows layer_boxes keeps, as int64 arrays: lo, hi clipped at clip,
    and the values min(sum hi, cap)."""
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    vals = np.minimum(hi.sum(axis=1), cap)
    keep = (vals > lo.sum(axis=1)) & (lo <= clip).all(axis=1)
    return lo[keep], np.minimum(hi[keep], clip), vals[keep]


def _boxes_numpy(lo, hi, cap: int, clip: int):
    """layer_boxes in numpy, on the arguments it has checked: the fallback
    without a C library, and the reference the tests compare the C code
    against."""
    lo, hi, _ = _kept_boxes(lo, hi, cap, clip)
    i64 = np.iinfo(np.int64)
    base = lo.min(axis=0, initial=i64.max)
    top = hi.max(axis=0, initial=i64.min)
    widths = np.maximum(hi - lo + 1, 0)
    if len(lo) * math.prod(widths.max(axis=0, initial=1).tolist()) <= i64.max:
        volume = int(widths.prod(axis=1).sum())  # exact: no sum can pass int64
    else:
        volume = min(sum(math.prod(row) for row in widths.tolist()), i64.max)
    return len(lo), base, top, volume


def _paint_layer_numpy(lo, hi, cap: int, clip: int, base, shape, t: int, grid) -> int:
    """layer_paint in numpy, on the arguments it has checked: the fallback
    without a C library, and the reference the tests compare the C code
    against."""
    grid.fill(-1)
    lo, hi, vals = _kept_boxes(lo, hi, cap, clip)
    lo -= base
    hi -= base
    if (
        (lo < 0).any()
        or (hi < lo).any()
        or (hi >= shape).any()
        or (vals > np.iinfo(np.int32).max).any()
    ):
        raise ValueError(_OUTSIDE)
    return _paint_numpy(lo, hi, vals.astype(np.int32), shape, int(base.sum()), t, grid)


def _paint_numpy(lo, hi, vals, shape, s0: int, t: int, grid) -> int:
    """Max-paint the boxes [lo[r], hi[r]] (relative to the grid origin, whose
    coordinate sum is s0) with value vals[r] onto the flat grid over shape,
    then return the sum of cell - coordinate sum over the painted cells
    whose coordinate sum is at most t.

    Boxes are grouped by shape, so each group shares one offset table; a
    chunk of same-shape boxes is painted with one np.maximum.at, which
    handles the overlaps."""
    strides = np.ones(len(shape), dtype=np.int64)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    starts = lo @ strides
    widths = hi - lo + 1
    order = np.lexsort(widths.T[::-1])
    widths = widths[order]
    first = np.ones(len(order), dtype=bool)  # where a new box shape starts
    first[1:] = (widths[1:] != widths[:-1]).any(axis=1)
    group_starts = np.flatnonzero(first)
    for g0, g1 in zip(group_starts, [*group_starts[1:], len(order)]):
        idx = order[g0:g1]
        w = widths[g0]
        offs = np.zeros(1, dtype=np.int64)
        for j in range(len(strides)):
            offs = (offs[:, None] + np.arange(w[j], dtype=np.int64) * strides[j]).ravel()
        vol = len(offs)
        chunk = max(1, 4_000_000 // vol)
        for c0 in range(0, len(idx), chunk):
            sel = idx[c0 : c0 + chunk]
            pos = (starts[sel][:, None] + offs[None, :]).ravel()
            painted = np.broadcast_to(vals[sel][:, None], (len(sel), vol)).ravel()
            np.maximum.at(grid, pos, painted)
    # coordinate sums of the cells in grid order, last axis fastest
    sums = np.full(1, s0, dtype=np.int64)
    for s in shape:
        sums = (sums[:, None] + np.arange(s, dtype=np.int64)).ravel()
    covered = (grid >= 0) & (sums <= t)
    return int((grid[covered] - sums[covered]).sum())


def label_step(state, edges, shifts2, nxt) -> None:
    """Min state[u] + shifts2[z] into nxt[edges[u, z]] for every vertex u
    and symbol z: one layer of the label DP over packed (lo, -hi) rows.

    The arguments are checked for what the C code relies on, then the C
    code runs, or _step_numpy without a library."""
    arrays = (state, edges, shifts2, nxt)
    if not all(
        isinstance(a, np.ndarray) and a.ndim == 2 and a.flags.c_contiguous for a in arrays
    ):
        raise ValueError("label step needs 2-d C-contiguous arrays")
    vertices, cols = state.shape
    symbols = shifts2.shape[0]
    if edges.dtype != np.int32 or edges.shape != (vertices, symbols):
        raise ValueError("label step needs int32 edges of shape (vertices, symbols)")
    if state.dtype not in (np.int16, np.int32):
        raise ValueError("label step needs int16 or int32 labels")
    if shifts2.dtype != state.dtype or nxt.dtype != state.dtype:
        raise ValueError("label step needs state, shifts2 and nxt of one dtype")
    if cols % 2 or shifts2.shape[1] != cols or nxt.shape[1] != cols:
        raise ValueError("label step needs state, shifts2 and nxt with the same 2d columns")
    if edges.size and (edges.min() < 0 or edges.max() >= nxt.shape[0]):
        raise ValueError("label step needs every edge target inside the next layer")
    lib = library()
    if lib is None:
        _step_numpy(state, edges, shifts2, nxt)
        return
    fn = lib.label_step_i16 if state.dtype == np.int16 else lib.label_step_i32
    fn(vertices, symbols, cols, state.ctypes.data, edges.ctypes.data,
       shifts2.ctypes.data, nxt.ctypes.data)


def _step_numpy(state, edges, shifts2, nxt) -> None:
    """label_step in numpy, on the arguments label_step has checked: the
    fallback without a C library, and the reference the tests compare the C
    code against. Like the C code, it mins into whatever nxt holds."""
    v_next = nxt.shape[0]
    sentinel = np.iinfo(nxt.dtype).max
    for sym in range(shifts2.shape[0]):
        tgt = edges[:, sym]
        cand = state + shifts2[sym]
        if np.bincount(tgt, minlength=v_next).max() <= 1:
            tmp = np.full(nxt.shape, sentinel, dtype=nxt.dtype)
            tmp[tgt] = cand
            np.minimum(nxt, tmp, out=nxt)
        else:
            np.minimum.at(nxt, tgt, cand)


def cache_dir() -> str | None:
    """$XDG_CACHE_HOME/robpcount, or ~/.cache/robpcount; None when neither
    gives an absolute path (a relative XDG_CACHE_HOME is ignored)."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "robpcount") if os.path.isabs(root) else None


def library_name() -> str:
    # zlib's checksums, not hashlib: numpy has loaded zlib already, while
    # hashlib maps OpenSSL, which costs about 3.6 MB of resident memory
    key = "\0".join((SOURCE, " ".join(COMPILE), platform.machine())).encode()
    return f"kernels-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"


def _build(directory: str, path: str) -> bool:
    """Compile SOURCE to a temporary name in directory with the system C
    compiler, then move it to path; False when that fails."""
    import subprocess

    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
        try:
            cc = shutil.which(COMPILE[0])
            if cc is None:
                raise FileNotFoundError("no C compiler on PATH")
            subprocess.run(
                [cc, *COMPILE[1:], "-x", "c", "-", "-o", tmp],
                input=SOURCE.encode(),
                capture_output=True,
                check=True,
                timeout=120,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def load_library():
    """The compiled library with its functions' signatures declared,
    compiling it on a cache miss; None when it cannot be built or loaded."""
    directory = cache_dir()
    if directory is None:
        return None
    path = os.path.join(directory, library_name())
    if not os.path.exists(path) and not _build(directory, path):
        return None
    # load only from a directory no other user can write into
    st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    try:
        lib = ctypes.CDLL(path)
        boxes = (lib.layer_boxes_i16, lib.layer_boxes_i32)
        paints = (lib.layer_paint_i16, lib.layer_paint_i32)
        steps = (lib.label_step_i16, lib.label_step_i32)
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for fn in boxes:
        fn.argtypes = [i64, i64, ptr, ptr, i64, i64, ptr, ptr, ptr]
        fn.restype = i64
    for fn in paints:
        fn.argtypes = [i64, i64, ptr, ptr, i64, i64, ptr, ptr, i64, ptr, ptr]
        fn.restype = i64
    for fn in steps:
        fn.argtypes = [i64, i64, i64, ptr, ptr, ptr, ptr]
        fn.restype = None
    return lib


@functools.cache
def library():
    """load_library(), once per process."""
    return load_library()
