"""The kernels behind the potential profiles and the label DP.

paint_sum paints and sums the potential grids, and label_step runs one
layer of the label DP. Each checks its arguments, then runs the C source
below if its library loaded, and otherwise the same computation in numpy
(_paint_numpy, _step_numpy; also the references the tests compare the C
code against). Both paths give identical results, so callers never ask
which one ran.

The C source holds paint_sum and label_step (in an int16 and an int32
body). It is compiled once per machine with the system C compiler (`cc`)
into $XDG_CACHE_HOME/robpcount/ (default ~/.cache/robpcount/) and loaded
with ctypes, once per process. The library's file name is a 64-bit
checksum of the source, the compile command and the machine type, so a
cache hit costs a stat and a dlopen. When no compiler is found, the
compile fails or the cache cannot be written, library() returns None.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import tempfile
import zlib

import numpy as np

# -O3: GCC 12 vectorizes label_step's inner loop, whose length is only
# known at run time, at -O3 and not at -O2 (about 4x faster on 8-column
# int16 rows); paint_sum measured the same under both
COMPILE = ("cc", "-O3", "-shared", "-fPIC")

SOURCE = r"""
#include <stdint.h>

/* Max-paint n boxes [lo[r], hi[r]] (d coordinates each, relative to the
   grid origin) with value vals[r] onto the row-major grid of the given
   shape, then return the sum of cell - (s0 + coordinate sum) over the cells
   >= 0 whose s0 + coordinate sum is at most t. s0 is the coordinate sum of
   the grid origin. The caller guarantees d >= 1 and
   0 <= lo <= hi < shape. */
int64_t paint_sum(int64_t n, int64_t d, const int64_t *lo, const int64_t *hi,
                  const int64_t *vals, const int64_t *shape, int64_t s0,
                  int64_t t, int64_t *grid)
{
    int64_t stride[d], idx[d];
    int64_t cells = 1;
    for (int64_t j = d - 1; j >= 0; j--) {
        stride[j] = cells;
        cells *= shape[j];
    }
    for (int64_t r = 0; r < n; r++) {
        const int64_t *a = lo + r * d, *b = hi + r * d;
        const int64_t v = vals[r];
        const int64_t width = b[d - 1] - a[d - 1] + 1;
        int64_t off = 0;
        for (int64_t j = 0; j < d; j++) {
            idx[j] = a[j];
            off += a[j] * stride[j];
        }
        for (;;) {
            int64_t *row = grid + off;
            /* an unconditional store: a data-dependent branch here
               mispredicts often and paints about 30% slower */
            for (int64_t c = 0; c < width; c++) {
                const int64_t x = row[c];
                row[c] = x < v ? v : x;
            }
            /* next row of the box: an odometer over axes d-2 .. 0 */
            int64_t j = d - 2;
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
    const int64_t last = shape[d - 1];
    int64_t total = 0, rowsum = 0, off = 0;
    for (int64_t j = 0; j < d; j++)
        idx[j] = 0;
    for (;;) {
        /* cells c of this row have coordinate sum s0 + rowsum + c */
        int64_t m = t - s0 - rowsum + 1;
        if (m > last)
            m = last;
        const int64_t *row = grid + off;
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


def paint_sum(lo, hi, vals, shape, s0: int, t: int, grid) -> int:
    """Max-paint the boxes [lo[r], hi[r]] with value vals[r] onto the flat
    int64 grid over shape, then return the sum of cell - coordinate sum over
    the cells >= 0 whose coordinate sum is at most t.

    lo and hi are relative to the grid origin, s0 is the origin's coordinate
    sum; grid is the caller's. The arguments are checked for what the C code
    relies on, then the C code runs, or _paint_numpy without a library."""
    arrays = (lo, hi, vals, grid)
    if not all(
        isinstance(a, np.ndarray) and a.dtype == np.int64 and a.flags.c_contiguous
        for a in arrays
    ):
        raise ValueError("paint kernel needs C-contiguous int64 arrays")
    if lo.ndim != 2 or lo.shape != hi.shape or vals.shape != lo.shape[:1]:
        raise ValueError("paint kernel needs lo, hi of shape (n, d) and vals of shape (n,)")
    n, d = lo.shape
    shape_arr = np.array(shape, dtype=np.int64)
    if d < 1 or shape_arr.shape != (d,):
        raise ValueError("paint kernel needs d >= 1 and a shape of length d")
    if (shape_arr < 1).any() or grid.size != int(np.prod(shape_arr)):
        raise ValueError("paint kernel grid does not match its shape")
    if n and ((lo < 0).any() or (hi < lo).any() or (hi >= shape_arr).any()):
        raise ValueError("paint kernel needs 0 <= lo <= hi < shape for every rectangle")
    lib = library()
    if lib is None:
        return _paint_numpy(lo, hi, vals, shape_arr, s0, t, grid)
    return lib.paint_sum(n, d, lo.ctypes.data, hi.ctypes.data, vals.ctypes.data,
                         shape_arr.ctypes.data, s0, t, grid.ctypes.data)


def _paint_numpy(lo, hi, vals, shape, s0: int, t: int, grid) -> int:
    """paint_sum in numpy, on the arguments paint_sum has checked: the
    fallback without a C library, and the reference the tests compare the
    C code against.

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
        paint, steps = lib.paint_sum, (lib.label_step_i16, lib.label_step_i32)
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    paint.argtypes = [i64, i64, ptr, ptr, ptr, ptr, i64, i64, ptr]
    paint.restype = i64
    for step in steps:
        step.argtypes = [i64, i64, i64, ptr, ptr, ptr, ptr]
        step.restype = None
    return lib


@functools.cache
def library():
    """load_library(), once per process."""
    return load_library()
