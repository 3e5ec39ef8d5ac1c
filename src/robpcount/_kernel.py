"""The kernels behind the potential profiles, the label DP and the JSON
transport.

layer_boxes and layer_paint measure, then paint and sum, one layer of a
potential profile; the C painter paints each box as at most two slabs
along axis 0 and spreads them level by level, in place (LAYER_PAINT says
how). label_step runs one layer of the label DP, and label_split copies
that layer's lo and hi columns out of its packed rows. widest_halfwidth
is verify's check of the DP's last layer against the output table.
reach_mark runs one layer of validate's reachability scan. edge_format
and table_format write a program's edge layers and output table as
write_robp spells them, and edge_scan and table_scan read that spelling
back from the bytes in place, each in one pass. Each checks its arguments
for what the C code relies on, then runs its C function (_c) if the
library loaded, and otherwise the same computation in numpy
(_boxes_numpy, _paint_layer_numpy, _step_numpy, _split_numpy,
_widest_numpy, _mark_numpy, _edge_format_numpy, _table_format_numpy,
_edge_scan_numpy; also the references the tests compare the C code
against). Both paths give identical results, so callers never ask which
one ran: a refused paint leaves the grid unpainted on both, the
formatters write the same bytes, and what a scanner takes is what
json.loads makes of the text. table_scan alone has no twin of its own:
without the library it takes nothing, and read_robp leaves the table to
json.loads and robp._bulk_outputs.

A kernel is declared once, in _KERNELS; the five that read labels have an
int16 and an int32 body, which SOURCE instantiates from one line per dtype.
SOURCE is compiled once per machine with the system C compiler (`cc`) into
$XDG_CACHE_HOME/robpcount/ (default ~/.cache/robpcount/) and loaded with
ctypes, once per process; ctypes releases the GIL while a kernel runs, so
layers can be painted on several threads at once. The library's file name
is a 64-bit checksum of the source, the compile command and the machine
type, so a cache hit costs a stat and a dlopen. When no compiler is found,
the compile fails or the cache cannot be written, library() returns None.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import platform
import shutil
import tempfile
import zlib
from fractions import Fraction

import numpy as np

# -O3: GCC 12 vectorizes label_step's inner loop, whose length is only
# known at run time, at -O3 and not at -O2 (about 4x faster on 8-column
# int16 rows)
COMPILE = ("cc", "-O3", "-shared", "-fPIC")

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* A layer's label row (p = lo, q = hi, d columns) widened to int64 into a
   (lo) and h (hi clipped at clip). The row is kept, and 1 returned, when its
   value *v = min(sum hi, cap) exceeds sum lo and every lo <= clip. */
#define LOAD_ROW(S, T)                                                      \
static inline int load_row_##S(int64_t d, const T *p, const T *q,          \
                               int64_t cap, int64_t clip, int64_t *a,       \
                               int64_t *h, int64_t *v)                      \
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

/* One pass over a layer's n label rows: the number of kept rows, and over
   them the least lo (base) and the largest clipped hi (top) per column and
   the summed volume of the boxes [lo, clipped hi] (a box with hi < lo has
   none), saturated at INT64_MAX.
   With no row kept, base holds INT64_MAX and top INT64_MIN. */
#define LAYER_BOXES(S, T)                                                   \
int64_t layer_boxes_##S(int64_t n, int64_t d, const T *lo, const T *hi,     \
                        int64_t cap, int64_t clip, int64_t *base,           \
                        int64_t *top, int64_t *volume)                      \
{                                                                           \
    int64_t a[d], h[d], v, kept = 0;                                        \
    uint64_t total = 0;                                                     \
    for (int64_t j = 0; j < d; j++) {                                       \
        base[j] = INT64_MAX;                                                \
        top[j] = INT64_MIN;                                                 \
    }                                                                       \
    for (int64_t r = 0; r < n; r++) {                                       \
        if (!load_row_##S(d, lo + r * d, hi + r * d, cap, clip, a, h, &v))  \
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

/* Max v into the width cells from row, with an unconditional store: a
   data-dependent branch here mispredicts often and paints about 30% slower */
static inline void max_row(int32_t *row, int64_t width, int32_t v)
{
    for (int64_t c = 0; c < width; c++) {
        const int32_t x = row[c];
        row[c] = x < v ? v : x;
    }
}

/* Max-paint v over two slabs of the box [a, b]: its cells whose first
   coordinate is a[0], and those whose first coordinate is a[0] + gap when
   gap > 0, in the row-major grid of the given strides; idx is scratch of d
   entries. A slab's rows run along the last axis (one cell each when
   d = 1) and its axis d-2 (when d > 2) is painted by a plain loop, so the
   odometer steps over axes d-3 .. 1 only. On layers 80-100 of
   rounded_counter(100, 4, 10), whose box rows hold 2-8 cells, an odometer
   step per row painted about 8% slower (2-vCPU x86-64 guest, GCC 12). */
static inline __attribute__((always_inline)) void
paint_slabs(int64_t d, const int64_t *a, const int64_t *b, int64_t gap,
            int32_t v, const int64_t *stride, int64_t *idx, int32_t *grid)
{
    const int64_t width = d > 1 ? b[d - 1] - a[d - 1] + 1 : 1;
    const int64_t rows = d > 2 ? b[d - 2] - a[d - 2] + 1 : 1;
    const int64_t pitch = d > 2 ? stride[d - 2] : 0;
    gap *= stride[0];
    int64_t off = 0;
    for (int64_t j = 0; j < d; j++) {
        idx[j] = a[j];
        off += a[j] * stride[j];
    }
    for (;;) {
        for (int64_t r = 0; r < rows; r++) {
            int32_t *row = grid + off + r * pitch;
            max_row(row, width, v);
            if (gap)
                max_row(row + gap, width, v);
        }
        /* next part of the slabs: an odometer over axes d-3 .. 1 */
        int64_t j = d - 3;
        while (j >= 1 && idx[j] == b[j]) {
            off -= (b[j] - a[j]) * stride[j];
            idx[j] = a[j];
            j--;
        }
        if (j < 1)
            break;
        idx[j]++;
        off += stride[j];
    }
}

/* dst[i] = max(dst[i], src[i]) for i < count, over cells that do not
   overlap */
static void max_into(int32_t *restrict dst, const int32_t *restrict src, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        const int32_t x = dst[i], s = src[i];
        dst[i] = x < s ? s : x;
    }
}

/* One push of the level painting, in place: slice y of the grid's slices
   (pitch cells each, along axis 0) becomes max(slice y, slice y - step),
   for y from the last slice down to step. Blocks of step slices go from the
   top down, so each block reads slices the push has not yet written, and
   its source and destination do not overlap. */
static void push_down(int64_t slices, int64_t step, int64_t pitch, int32_t *grid)
{
    for (int64_t y1 = slices; y1 > step;) {
        const int64_t y0 = y1 - step > step ? y1 - step : step;
        max_into(grid + y0 * pitch, grid + (y0 - step) * pitch, (y1 - y0) * pitch);
        y1 = y0;
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
   grid_sum's sum up to t in *sum and return 0.

   A first pass checks every kept box before any cell is painted: one that
   does not lie inside the grid, or whose value does not fit int32, makes
   the call return 1 with every cell -1. The pass also counting-sorts the
   kept rows by level, l = floor(log2 w) for a box of axis-0 width w, into
   scratch of 5 bytes per row (-1 when it cannot be had). The boxes are then
   painted level by level from the highest down, on one grid whose slice y
   (along axis 0) holds, while level l is painted, the largest value of a
   box that covers slices y .. y + 2^l - 1 there. A box of level l covers
   its slices [a0, b0] with the two runs of 2^l slices from a0 and from
   b0 - 2^l + 1, so it paints two (d-1)-dimensional slabs, at those slices
   (one when they coincide), instead of w; and before level l - 1, push_down
   spreads each slice y into slice y + 2^(l-1), in place. After level 0 each
   cell holds the largest value of a box that covers it, as painting each
   box whole would leave. When every box is of level 0 nothing is pushed.
   On the 29 painted layers of rounded_counter(100, 4, 10), where the boxes
   overlap about 90 times per covered cell, this took 98-122 ms with d known
   only at run time, where painting whole boxes took 150-203 ms (summed
   per-layer minima, one thread, 2-vCPU x86-64 guest, GCC 12).

   The caller guarantees d >= 1, shape >= 1, n < 2^31 and a grid of
   prod(shape) cells. */
#define LAYER_PAINT(S, T)                                                   \
static inline __attribute__((always_inline)) int64_t                        \
paint_layer_##S(int64_t n, int64_t d, const T *lo, const T *hi,             \
                int64_t cap, int64_t clip, const int64_t *base,             \
                const int64_t *shape, int64_t t, int32_t *grid, int64_t *sum) \
{                                                                           \
    int64_t stride[d], idx[d], a[d], h[d], v;                               \
    int64_t cells = 1, s0 = 0, first[65] = {0};                             \
    for (int64_t j = d - 1; j >= 0; j--) {                                  \
        stride[j] = cells;                                                  \
        cells *= shape[j];                                                  \
        s0 += base[j];                                                      \
    }                                                                       \
    for (int64_t c = 0; c < cells; c++)                                     \
        grid[c] = -1;                                                       \
    /* order: the kept rows by level; level: each row's, 255 if not kept */ \
    int32_t *order = malloc((size_t)(n > 0 ? n : 1) * 5);                   \
    if (order == NULL)                                                      \
        return -1;                                                          \
    uint8_t *level = (uint8_t *)(order + n);                                \
    int top = -1;                                                           \
    for (int64_t r = 0; r < n; r++) {                                       \
        level[r] = 255;                                                     \
        if (!load_row_##S(d, lo + r * d, hi + r * d, cap, clip, a, h, &v))  \
            continue;                                                       \
        int bad = v > INT32_MAX;                                            \
        for (int64_t j = 0; j < d; j++)                                     \
            bad |= a[j] < base[j] || h[j] < a[j] || h[j] - base[j] >= shape[j]; \
        if (bad) {                                                          \
            free(order);                                                    \
            return 1;                                                       \
        }                                                                   \
        const int l = 63 - __builtin_clzll((uint64_t)(h[0] - a[0] + 1));    \
        level[r] = (uint8_t)l;                                              \
        first[l + 1]++;                                                     \
        top = l > top ? l : top;                                            \
    }                                                                       \
    for (int l = 0; l < 64; l++)                                            \
        first[l + 1] += first[l];                                           \
    int64_t next[64];                                                       \
    for (int l = 0; l < 64; l++)                                            \
        next[l] = first[l];                                                 \
    for (int64_t r = 0; r < n; r++)                                         \
        if (level[r] != 255)                                                \
            order[next[level[r]]++] = (int32_t)r;                           \
    for (int l = top; l >= 0; l--) {                                        \
        const int64_t run = (int64_t)1 << l;                                \
        for (int64_t i = first[l]; i < first[l + 1]; i++) {                \
            const int64_t r = order[i];                                     \
            /* kept in the first pass, so load_row returns 1 again */       \
            load_row_##S(d, lo + r * d, hi + r * d, cap, clip, a, h, &v);   \
            for (int64_t j = 0; j < d; j++) {                               \
                a[j] -= base[j];                                            \
                h[j] -= base[j];                                            \
            }                                                               \
            paint_slabs(d, a, h, h[0] - run + 1 - a[0], (int32_t)v, stride, \
                        idx, grid);                                         \
        }                                                                   \
        if (l > 0)                                                          \
            push_down(shape[0], run / 2, stride[0], grid);                  \
    }                                                                       \
    free(order);                                                            \
    *sum = grid_sum(d, shape, stride, s0, t, idx, grid);                    \
    return 0;                                                               \
}                                                                           \
                                                                            \
/* paint_layer inlined with d a constant for the 1-3 label columns of the  \
   counter profiles of k = 2-4, so the compiler unrolls the loops over the \
   axes: on the layers above, 70-110 ms against 98-122 ms, and on the     \
   small layers of rounded_counter(100, 3, 10) 1.6-1.9 ms against 2.8-3.1  \
   ms (whole boxes: 2.3-3.3 ms) */                                         \
int64_t layer_paint_##S(int64_t n, int64_t d, const T *lo, const T *hi,     \
                        int64_t cap, int64_t clip, const int64_t *base,     \
                        const int64_t *shape, int64_t t, int32_t *grid,     \
                        int64_t *sum)                                       \
{                                                                           \
    switch (d) {                                                            \
    case 1:                                                                 \
        return paint_layer_##S(n, 1, lo, hi, cap, clip, base, shape, t, grid, sum); \
    case 2:                                                                 \
        return paint_layer_##S(n, 2, lo, hi, cap, clip, base, shape, t, grid, sum); \
    case 3:                                                                 \
        return paint_layer_##S(n, 3, lo, hi, cap, clip, base, shape, t, grid, sum); \
    default:                                                                \
        return paint_layer_##S(n, d, lo, hi, cap, clip, base, shape, t, grid, sum); \
    }                                                                       \
}

/* One layer of the label DP: for every vertex u < vertices and symbol
   z < symbols, min the packed row state[u] + shifts2[z] (cols entries)
   into nxt[edges[u * symbols + z]]. The caller guarantees every edge
   target indexes a row of nxt. */
#define LABEL_STEP(S, T)                                                    \
void label_step_##S(int64_t vertices, int64_t symbols, int64_t cols,        \
                    const T *restrict state, const int32_t *restrict edges, \
                    const T *restrict shifts2, T *restrict nxt)             \
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

/* A packed label layer's first d lo columns and its first d hi columns:
   row u of state holds 2k entries, lo then -hi, and row u of lo and hi gets
   d entries each. The caller guarantees d <= k. */
#define LABEL_SPLIT(S, T)                                                   \
void label_split_##S(int64_t vertices, int64_t k, int64_t d,                \
                     const T *restrict state, T *restrict lo,               \
                     T *restrict hi)                                        \
{                                                                           \
    for (int64_t u = 0; u < vertices; u++) {                                \
        const T *s = state + u * 2 * k;                                     \
        for (int64_t j = 0; j < d; j++) {                                   \
            lo[u * d + j] = s[j];                                           \
            hi[u * d + j] = (T)-s[k + j];                                   \
        }                                                                   \
    }                                                                       \
}

/* verify's check of the last label layer: over the n x k output table
   num/den (row-major) and the packed layer state (row u holds 2k entries,
   lo then -hi), the first cell in row-major order whose halfwidth m/den is
   largest, where m = max(hi * den - num, num - lo * den). Stores that
   cell's m and den in out[0] and out[1] and returns its index, or returns
   -1 when a den lies outside [1, 2^15] or a num outside [-2^30, 2^30].
   Within those bounds, and with labels within int32, m < 2^47 and a cross
   product m * den < 2^62, so every comparison of two halfwidths is exact in
   int64. The caller guarantees n, k >= 1. */
#define WIDEST_HALFWIDTH(S, T)                                              \
int64_t widest_halfwidth_##S(int64_t n, int64_t k, const T *state,          \
                             const int64_t *num, const int64_t *den,        \
                             int64_t *out)                                  \
{                                                                           \
    int64_t best = -1, bm = 0, bq = 1;                                      \
    for (int64_t u = 0; u < n; u++) {                                       \
        const T *s = state + u * 2 * k;                                     \
        for (int64_t j = 0; j < k; j++) {                                   \
            const int64_t i = u * k + j, p = num[i], q = den[i];            \
            if (q < 1 || q > (1 << 15) || p < -(1 << 30) || p > (1 << 30))  \
                return -1;                                                  \
            const int64_t up = -(int64_t)s[k + j] * q - p;                  \
            const int64_t down = p - (int64_t)s[j] * q;                     \
            const int64_t m = up > down ? up : down;                        \
            if (best < 0 || m * bq > bm * q) {                              \
                best = i;                                                   \
                bm = m;                                                     \
                bq = q;                                                     \
            }                                                               \
        }                                                                   \
    }                                                                       \
    out[0] = bm;                                                            \
    out[1] = bq;                                                            \
    return best;                                                            \
}

/* The label kernels above are macros over the label dtype T; one line per
   dtype instantiates them all, named with the suffix S (layer_boxes_i16) */
#define LABEL_KERNELS(S, T)                                                 \
    LOAD_ROW(S, T) LAYER_BOXES(S, T) LAYER_PAINT(S, T) LABEL_STEP(S, T)     \
    LABEL_SPLIT(S, T) WIDEST_HALFWIDTH(S, T)

LABEL_KERNELS(i16, int16_t)
LABEL_KERNELS(i32, int32_t)

/* One step of validate's reachability scan: nxt[v] = 1 when some vertex
   u < vertices with reached[u] has an edge (one per symbol) into v, else 0.
   Returns how many of the size vertices of nxt are marked, or -1 when an
   edge target lies outside [0, size), before anything is written. */
int64_t reach_mark(int64_t vertices, int64_t symbols,
                   const int32_t *restrict edges,
                   const uint8_t *restrict reached, int64_t size,
                   uint8_t *restrict nxt)
{
    /* one unsigned compare per target also refuses a negative one; this
       or-reduction ran about 2x faster than a min/max one at -O3 on
       x86-64's baseline SSE2, which has no packed int32 min or max */
    const uint32_t limit = size > INT32_MAX ? (uint32_t)INT32_MAX + 1 : (uint32_t)size;
    uint32_t outside = 0;
    for (int64_t i = 0; i < vertices * symbols; i++)
        outside |= (uint32_t)edges[i] >= limit;
    if (outside)
        return -1;
    for (int64_t v = 0; v < size; v++)
        nxt[v] = 0;
    /* mark run by run of reached vertices, as one flat loop over their edge
       rows: about 2x faster than a loop per vertex when all are reached */
    for (int64_t u = 0; u < vertices;) {
        while (u < vertices && !reached[u])
            u++;
        const int64_t first = u * symbols;
        while (u < vertices && reached[u])
            u++;
        for (int64_t i = first; i < u * symbols; i++)
            nxt[edges[i]] = 1;
    }
    int64_t marked = 0;
    for (int64_t v = 0; v < size; v++)
        marked += nxt[v];
    return marked;
}

/* The JSON transport: write_robp's text of the edge layers and of the
   output table, and back. EXPECT(c) takes the byte c at p, which must lie
   before e, or makes the scan refuse (return -1). */
#define EXPECT(c)                                                           \
    do {                                                                    \
        if (p == e || *p != (c))                                            \
            return -1;                                                      \
        p++;                                                                \
    } while (0)

/* x in decimal, as Python's str(x) spells it, at out; returns its end */
static char *put_int(char *out, int64_t x)
{
    uint64_t u = x < 0 ? 0 - (uint64_t)x : (uint64_t)x;
    int64_t n = 1;
    for (uint64_t v = u; v >= 10; v /= 10)
        n++;
    if (x < 0)
        *out++ = '-';
    for (int64_t i = n - 1; i >= 0; i--, u /= 10)
        out[i] = (char)('0' + u % 10);
    return out + n;
}

/* The edge layers as json.dumps spells each with separators (",", ":"),
   joined by commas, at out: layer t has rows[t] rows of symbols int32
   targets at the address data[t]. Returns the number of bytes written, at
   most 12 per target, 3 per row and 3 per layer. */
int64_t edge_format(int64_t layers, int64_t symbols, const int64_t *rows,
                    const int64_t *data, char *out)
{
    char *p = out;
    for (int64_t t = 0; t < layers; t++) {
        const int32_t *e = (const int32_t *)(intptr_t)data[t];
        if (t > 0)
            *p++ = ',';
        *p++ = '[';
        for (int64_t u = 0; u < rows[t]; u++) {
            if (u > 0)
                *p++ = ',';
            *p++ = '[';
            for (int64_t z = 0; z < symbols; z++) {
                if (z > 0)
                    *p++ = ',';
                p = put_int(p, e[u * symbols + z]);
            }
            *p++ = ']';
        }
        *p++ = ']';
    }
    return p - out;
}

/* The rows x cols table of rationals num/den as write_robp spells it, a
   JSON array of rows of strings "num" (den 1) or "num/den", at out.
   Returns the number of bytes written, at most 44 per cell, 3 per row and
   2 more. */
int64_t table_format(int64_t rows, int64_t cols, const int64_t *num,
                     const int64_t *den, char *out)
{
    char *p = out;
    *p++ = '[';
    for (int64_t r = 0; r < rows; r++) {
        if (r > 0)
            *p++ = ',';
        *p++ = '[';
        for (int64_t c = 0; c < cols; c++) {
            const int64_t i = r * cols + c;
            if (c > 0)
                *p++ = ',';
            *p++ = '"';
            p = put_int(p, num[i]);
            if (den[i] != 1) {
                *p++ = '/';
                p = put_int(p, den[i]);
            }
            *p++ = '"';
        }
        *p++ = ']';
    }
    *p++ = ']';
    return p - out;
}

/* One edge target in edge_format's spelling at *p, before e, into *v:
   "0", or an optional "-" and 1-10 digits without a leading zero, within
   int32. Returns 0, leaving *p, on anything else. */
static int scan_target(const char **pp, const char *e, int32_t *v)
{
    const char *p = *pp;
    const int neg = p < e && *p == '-';
    p += neg;
    if (p == e || *p < '0' || *p > '9' || (*p == '0' && neg))
        return 0;
    int64_t x = *p++ - '0';
    for (int n = 1; x > 0 && p < e && *p >= '0' && *p <= '9'; p++, n++) {
        if (n == 10)
            return 0;
        x = x * 10 + (*p - '0');
    }
    x = neg ? -x : x;
    if (x < INT32_MIN || x > INT32_MAX)
        return 0;
    *v = (int32_t)x;
    *pp = p;
    return 1;
}

/* The edge layers of text[start, end) in edge_format's spelling, each in
   full: layer t holds sizes[t] rows of symbols targets (t < nsizes), and
   its targets go to out, after those of the layers before it. Returns the
   number of layers, or -1 on any other text; reads nothing outside
   [start, end) and writes at most symbols * sum(sizes) targets. */
int64_t edge_scan(const char *text, int64_t start, int64_t end,
                  int64_t symbols, int64_t nsizes, const int64_t *sizes,
                  int32_t *out)
{
    const char *p = text + start;
    const char *const e = text + end;
    int64_t t = 0;
    for (; p < e; t++) {
        if (t > 0)
            EXPECT(',');
        if (t == nsizes)
            return -1;
        EXPECT('[');
        for (int64_t u = 0; u < sizes[t]; u++) {
            if (u > 0)
                EXPECT(',');
            EXPECT('[');
            for (int64_t z = 0; z < symbols; z++) {
                if (z > 0)
                    EXPECT(',');
                if (!scan_target(&p, e, out++))
                    return -1;
            }
            EXPECT(']');
        }
        EXPECT(']');
    }
    return t;
}

/* 1-18 decimal digits at *p, before e, into *v (leading zeros allowed);
   0, leaving *p, when there are none or more than 18 */
static int scan_digits(const char **pp, const char *e, int64_t *v)
{
    const char *p = *pp;
    int64_t x = 0;
    for (; p < e && *p >= '0' && *p <= '9'; p++) {
        if (p - *pp == 18)
            return 0;
        x = x * 10 + (*p - '0');
    }
    if (p == *pp)
        return 0;
    *v = x;
    *pp = p;
    return 1;
}

/* The output table at text[start, end): a JSON array of at least one row,
   every row an array of the same number (at least one) of strings, each
   -?[0-9]{1,18}(/[1-9][0-9]{0,17})? with nothing escaped. Cell i in row
   order goes to num[i] and den[i] (den 1 without "/"), for at most cap
   cells; shape gets the rows, the columns and whether every cell is in
   lowest terms. Returns the offset just past the table's closing bracket,
   or -1 on any other text; reads nothing outside [start, end). */
int64_t table_scan(const char *text, int64_t start, int64_t end, int64_t cap,
                   int64_t *num, int64_t *den, int64_t *shape)
{
    const char *p = text + start;
    const char *const e = text + end;
    int64_t rows = 0, cols = 0, cells = 0, reduced = 1;
    EXPECT('[');
    for (;;) {
        const int64_t first = cells;
        EXPECT('[');
        for (;;) {
            int64_t a, b = 1;
            if (cells == cap)
                return -1;
            EXPECT('"');
            const int neg = p < e && *p == '-';
            p += neg;
            if (!scan_digits(&p, e, &a))
                return -1;
            if (p < e && *p == '/') {
                p++;
                if (p == e || *p == '0' || !scan_digits(&p, e, &b))
                    return -1;
                int64_t x = a, y = b;  /* gcd(a, b) = 1 when y ends at 1 */
                while (x) {
                    const int64_t r = y % x;
                    y = x;
                    x = r;
                }
                reduced &= y == 1;
            }
            EXPECT('"');
            num[cells] = neg ? -a : a;
            den[cells] = b;
            cells++;
            if (p == e || *p != ',')
                break;
            p++;
        }
        EXPECT(']');
        if (rows == 0)
            cols = cells;
        else if (cells - first != cols)
            return -1;
        rows++;
        if (p == e || *p != ',')
            break;
        p++;
    }
    EXPECT(']');
    shape[0] = rows;
    shape[1] = cols;
    shape[2] = reduced;
    return p - text;
}
"""

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p

# Every kernel SOURCE exports: name -> (C argument types, result type,
# whether it has an int16 and an int32 body, name_i16 and name_i32, for the
# two label dtypes). load_library declares each function from this table,
# and a library that lacks one loads as None.
_KERNELS = {
    "layer_boxes": ((_I64, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR), _I64, True),
    "layer_paint": ((_I64, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR, _PTR), _I64, True),
    "label_step": ((_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR), None, True),
    "label_split": ((_I64, _I64, _I64, _PTR, _PTR, _PTR), None, True),
    "widest_halfwidth": ((_I64, _I64, _PTR, _PTR, _PTR, _PTR), _I64, True),
    "reach_mark": ((_I64, _I64, _PTR, _PTR, _I64, _PTR), _I64, False),
    "edge_format": ((_I64, _I64, _PTR, _PTR, _PTR), _I64, False),
    "table_format": ((_I64, _I64, _PTR, _PTR, _PTR), _I64, False),
    "edge_scan": ((_PTR, _I64, _I64, _I64, _I64, _PTR, _PTR), _I64, False),
    "table_scan": ((_PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR), _I64, False),
}


def _c(name: str, dtype=None):
    """Kernel name's C function, for the label dtype (int16 or int32) when
    the kernel has a body per dtype; None without a library."""
    lib = library()
    if lib is None:
        return None
    return getattr(lib, name if dtype is None else f"{name}_i{8 * dtype.itemsize}")


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
    With no row kept, base holds the int64 maximum and top its minimum."""
    _check_labels("layer boxes", lo, hi)
    cap, clip = _limit(cap), _limit(clip)
    fn = _c("layer_boxes", lo.dtype)
    if fn is None:
        return _boxes_numpy(lo, hi, cap, clip)
    n, d = lo.shape
    base = np.empty(d, dtype=np.int64)
    top = np.empty(d, dtype=np.int64)
    volume = ctypes.c_int64()
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
    ValueError before any box is painted, with every cell of grid -1."""
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
    if n >= 2**31:
        raise ValueError("layer paint needs fewer than 2**31 label rows")
    fn = _c("layer_paint", lo.dtype)
    if fn is None:
        return _paint_layer_numpy(lo, hi, cap, clip, base, shape, t, grid)
    total = ctypes.c_int64()
    status = fn(n, d, lo.ctypes.data, hi.ctypes.data, cap, clip, base.ctypes.data,
                shape.ctypes.data, t, grid.ctypes.data, ctypes.byref(total))
    if status < 0:
        raise MemoryError("layer paint could not allocate its row scratch")
    if status:
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
    and symbol z: one layer of the label DP over packed (lo, -hi) rows."""
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
    fn = _c("label_step", state.dtype)
    if fn is None:
        _step_numpy(state, edges, shifts2, nxt)
        return
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


def label_split(state, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A packed label layer's first d lo and first d hi columns, as two
    fresh C-contiguous arrays of state's dtype: state holds 2k columns, lo
    then -hi, as label_step leaves them."""
    if not (
        isinstance(state, np.ndarray)
        and state.ndim == 2
        and state.flags.c_contiguous
        and state.dtype in (np.int16, np.int32)
    ):
        raise ValueError("label split needs a 2-d C-contiguous int16 or int32 layer")
    vertices, cols = state.shape
    k = cols // 2
    if cols % 2 or not 0 <= d <= k:
        raise ValueError("label split needs 2k columns and 0 <= d <= k")
    fn = _c("label_split", state.dtype)
    if fn is None:
        return _split_numpy(state, d)
    lo = np.empty((vertices, d), dtype=state.dtype)
    hi = np.empty((vertices, d), dtype=state.dtype)
    fn(vertices, k, d, state.ctypes.data, lo.ctypes.data, hi.ctypes.data)
    return lo, hi


def _split_numpy(state, d: int) -> tuple[np.ndarray, np.ndarray]:
    """label_split in numpy, on the arguments label_split has checked: the
    fallback without a C library, and the reference the tests compare the C
    code against."""
    k = state.shape[1] // 2
    return state[:, :d].copy(), -state[:, k : k + d]


# verify's int64 arithmetic holds for output tables within these bounds
_MAX_DEN, _MAX_NUM = 2**15, 2**30


def widest_halfwidth(state, num, den) -> tuple[int, int, int, int] | None:
    """verify's check of a program's last label layer: the first cell (v, j),
    in row-major order, of the int64 output table num/den whose halfwidth
    m/den is largest, where m = max(hi * den - num, num - lo * den) with lo
    and hi from the packed layer state (rows of lo then -hi, as label_step
    leaves them); returns (v, j, m, den) of that cell. None when a den
    exceeds 2**15 or a num 2**30 in absolute value: the caller then runs
    _widest_numpy on Python ints."""
    if not (
        isinstance(state, np.ndarray)
        and state.ndim == 2
        and state.flags.c_contiguous
        and state.dtype in (np.int16, np.int32)
        and state.shape[1] % 2 == 0
    ):
        raise ValueError("widest halfwidth needs a 2-d C-contiguous int16 or int32 layer of 2k columns")
    shape = (state.shape[0], state.shape[1] // 2)
    if not all(
        isinstance(a, np.ndarray) and a.dtype == np.int64 and a.flags.c_contiguous and a.shape == shape
        for a in (num, den)
    ) or not num.size:
        raise ValueError("widest halfwidth needs nonempty int64 num and den of shape (rows, k)")
    fn = _c("widest_halfwidth", state.dtype)
    if fn is None:
        if den.min() < 1 or den.max() > _MAX_DEN or np.abs(num).max() > _MAX_NUM:
            return None
        k = shape[1]
        return _widest_numpy(state[:, :k], -state[:, k:].astype(np.int64), num, den)
    out = np.empty(2, np.int64)
    cell = fn(*shape, state.ctypes.data, num.ctypes.data, den.ctypes.data, out.ctypes.data)
    if cell < 0:
        return None
    return (*divmod(cell, shape[1]), *out.tolist())


def _widest_numpy(lo, hi, num, den) -> tuple[int, int, int, int]:
    """widest_halfwidth on lo, hi, num and den arrays of one shape, int64
    (or narrower labels) or Python ints: the fallback without a C library,
    the arithmetic for tables past its bounds, and the reference the tests
    compare the C code against."""
    m = np.maximum(hi * den - num, num - lo * den)
    # the distinct denominators; on the int64 path each is at most 2**15
    qs = set(den.flat) if den.dtype == object else np.flatnonzero(np.bincount(den.ravel()))
    widest = max(Fraction(int((m if len(qs) == 1 else m[den == q]).max()), int(q)) for q in qs)
    hit = m * widest.denominator == widest.numerator * den
    v, j = np.argwhere(hit)[0]
    return int(v), int(j), int(m[v, j]), int(den[v, j])


_OUTSIDE_NEXT = "reach mark needs every edge target inside the next layer"


def reach_mark(edges, reached, nxt) -> int:
    """One step of validate's reachability scan: nxt[v] becomes True when
    some vertex u with reached[u] has an edge edges[u, z] == v, and False
    otherwise. Returns how many vertices of nxt are marked.

    An edge target outside nxt raises ValueError before nxt is written."""
    if not (
        isinstance(edges, np.ndarray)
        and edges.dtype == np.int32
        and edges.ndim == 2
        and edges.flags.c_contiguous
    ):
        raise ValueError("reach mark needs 2-d C-contiguous int32 edges")
    if not all(
        isinstance(a, np.ndarray) and a.dtype == np.bool_ and a.ndim == 1 and a.flags.c_contiguous
        for a in (reached, nxt)
    ) or len(reached) != len(edges) or not nxt.flags.writeable:
        raise ValueError("reach mark needs flat bool reached, one per edge row, and a writeable nxt")
    fn = _c("reach_mark")
    if fn is None:
        return _mark_numpy(edges, reached, nxt)
    marked = fn(*edges.shape, edges.ctypes.data, reached.ctypes.data, len(nxt), nxt.ctypes.data)
    if marked < 0:
        raise ValueError(_OUTSIDE_NEXT)
    return marked


def _mark_numpy(edges, reached, nxt) -> int:
    """reach_mark in numpy, on the arguments reach_mark has checked: the
    fallback without a C library, and the reference the tests compare the C
    code against."""
    if edges.size and (edges.min() < 0 or edges.max() >= len(nxt)):
        raise ValueError(_OUTSIDE_NEXT)
    nxt.fill(False)
    # the mask gather copies edges; skip it when nothing is masked
    nxt[edges if reached.all() else edges[reached]] = True
    return int(np.count_nonzero(nxt))


def edge_format(layers) -> str:
    """The edge layers as write_robp spells them: each as json.dumps gives
    it with separators (",", ":"), and the layers joined by commas. When
    every layer is a 2-d C-contiguous int32 array, all of one column count,
    the C code formats them in one pass; any other layers (rows kept as
    lists for validate to report) go to _edge_format_numpy, which gives the
    same text."""
    layers = list(layers)
    first = layers[0] if layers else None
    symbols = first.shape[1] if isinstance(first, np.ndarray) and first.ndim == 2 else 0
    fn = _c("edge_format")
    if fn is None or not all(
        isinstance(a, np.ndarray)
        and a.dtype == np.int32
        and a.ndim == 2
        and a.flags.c_contiguous
        and a.shape[1] == symbols
        for a in layers
    ):
        return _edge_format_numpy(layers)
    rows = np.array([len(a) for a in layers], dtype=np.int64)
    data = np.array([a.ctypes.data for a in layers], dtype=np.int64)
    total = int(rows.sum())
    out = np.empty(12 * total * symbols + 3 * total + 3 * len(layers), np.uint8)
    size = fn(len(layers), symbols, rows.ctypes.data, data.ctypes.data, out.ctypes.data)
    return str(out[:size], "ascii")


def _layer_json(rows) -> str:
    """One edge layer as the text json.dumps gives it with separators
    (",", ":"). An array of 256 targets or more is formatted from digit
    columns, one numpy pass per decimal place, instead of one Python int
    per target; below that the fixed cost of those passes is the larger."""
    if not isinstance(rows, np.ndarray):
        return json.dumps([[int(v) for v in r] for r in rows], separators=(",", ":"))
    if rows.size < 256:
        return json.dumps(rows.tolist(), separators=(",", ":"))
    v, s = rows.shape
    x = rows.ravel().astype(np.int64)
    q = np.abs(x).astype(np.uint32)
    width = len(str(q.max()))
    # per target: "[" before a row's first, "-", its digits, then "," or
    # "],"; the zero bytes left over are dropped
    cells = np.zeros((v * s, width + 4), np.uint8)
    cells[::s, 0] = ord("[")
    cells[x < 0, 1] = ord("-")
    for j in range(width + 1, 1, -1):
        nq = q // 10
        digit = (q - nq * 10 + ord("0")).astype(np.uint8)
        if j <= width:
            digit[q == 0] = 0  # a leading zero
        cells[:, j] = digit
        q = nq
    cells[:, -2] = ord(",")
    cells[s - 1 :: s, -2:] = (ord("]"), ord(","))
    return "[" + cells[cells != 0][:-1].tobytes().decode("ascii") + "]"


def _edge_format_numpy(layers) -> str:
    """edge_format in numpy, one layer at a time: the fallback without a C
    library or for list rows, and the reference the tests compare the C
    code against."""
    return ",".join(map(_layer_json, layers))


def table_format(num, den) -> str:
    """The table of rationals num/den (2-d, one shape) as write_robp spells
    it: a JSON array of rows of strings, "num" where den is 1 and "num/den"
    elsewhere. An int64 table is formatted in C; a table of Python ints, or
    any table without a C library, by _table_format_numpy, which gives the
    same text."""
    if not (
        isinstance(num, np.ndarray)
        and isinstance(den, np.ndarray)
        and num.ndim == 2
        and num.shape == den.shape
    ):
        raise ValueError("table format needs 2-d num and den arrays of one shape")
    fn = _c("table_format")
    if fn is None or not all(a.dtype == np.int64 and a.flags.c_contiguous for a in (num, den)):
        return _table_format_numpy(num, den)
    rows, cols = num.shape
    out = np.empty(44 * rows * cols + 3 * rows + 2, np.uint8)
    size = fn(rows, cols, num.ctypes.data, den.ctypes.data, out.ctypes.data)
    return str(out[:size], "ascii")


def _table_format_numpy(num, den) -> str:
    """table_format through Python lists: the fallback without a C library
    or for a table of Python ints, and the reference the tests compare the
    C code against."""
    cells = [
        [str(a) if b == 1 else f"{a}/{b}" for a, b in zip(nums, dens)]
        for nums, dens in zip(num.tolist(), den.tolist())
    ]
    return json.dumps(cells, separators=(",", ":"))


def edge_scan(text: bytes, start: int, end: int, symbols: int, sizes) -> list | None:
    """The edge layers whose text is text[start:end], in edge_format's
    spelling, as read-only int32 arrays of symbols columns; None for any
    other text. Layer t must hold sizes[t] rows. The C code reads the bytes
    in place; without a C library _edge_scan_numpy, which accepts the same
    texts, scans them.

    Every target takes two bytes at least, a digit and a comma or bracket,
    so the text has room for a prefix of sizes only. The C code is given
    that prefix, and room for its targets, before it runs: a layer past it
    is refused, and declared sizes the text cannot back allocate nothing."""
    if type(text) is not bytes or not 0 <= start <= end <= len(text):
        raise ValueError("edge scan needs bytes and 0 <= start <= end <= their length")
    if type(symbols) is not int or symbols < 1 or not all(type(r) is int and r >= 0 for r in sizes):
        raise ValueError("edge scan needs symbols >= 1 and nonnegative int layer sizes")
    fn = _c("edge_scan")
    if fn is None:
        return _edge_scan_numpy(text, start, end, symbols, sizes)
    room, total, fits = (end - start) // 2, 0, 0
    for r in sizes:
        if total + r * symbols > room:
            break
        total += r * symbols
        fits += 1
    backed = np.array(sizes[:fits], dtype=np.int64)
    flat = np.empty(total, np.int32)
    count = fn(text, start, end, symbols, fits, backed.ctypes.data, flat.ctypes.data)
    if count < 0:
        return None
    flat.flags.writeable = False
    return _split_layers(flat, symbols, sizes[:count])


def _split_layers(flat, symbols: int, sizes) -> list:
    """flat's targets as consecutive layers of sizes[t] rows each."""
    layers, offset = [], 0
    for r in sizes:
        layers.append(flat[offset : offset + r * symbols].reshape(r, symbols))
        offset += r * symbols
    return layers


_BLANK = bytes.maketrans(b"[],", b"   ")  # brackets and commas to spaces
_BETWEEN = b"]],[["  # sits between two edge layers
# Thin layers are parsed in batches of at least this many characters; a
# longer layer is a batch of its own, so no temporary outgrows one layer.
_BATCH_CHARS = 1 << 16


def _edge_scan_numpy(text: bytes, start: int, end: int, symbols: int, sizes):
    """edge_scan in numpy, on the arguments it has checked: the fallback
    without a C library, and the reference the tests compare the C code
    against. numpy parses the targets a batch of layers at a time, and a
    batch is taken only if _layer_json gives its text back byte for byte:
    that refuses every other spelling, and a target outside int32, which
    numpy's parse would wrap."""
    edges = []
    while start < end:
        # the batch ends at the first layer boundary this far on, so every
        # boundary inside it starts within its first _BATCH_CHARS
        stop = text.find(_BETWEEN, start + _BATCH_CHARS, end)
        stop = end if stop < 0 else stop + 2  # past the layer's "]]"
        reach = min(start + _BATCH_CHARS + len(_BETWEEN) - 1, stop)
        count = 1 + text.count(_BETWEEN, start, reach)
        rows = sizes[len(edges) : len(edges) + count]
        if len(rows) < count:
            return None
        batch = _scan_layers(text[start:stop], symbols, rows)
        if batch is None:
            return None
        edges += batch
        start = stop + 1
    return edges


def _scan_layers(chunk: bytes, symbols: int, rows):
    """The edge layers whose text is chunk, as read-only int32 arrays of
    symbols columns, or None. rows, the layer sizes the document gives, only
    guide the split into layers."""
    try:
        flat = np.fromstring(chunk.translate(_BLANK), np.int32, sep=" ")
    except ValueError:
        return None
    if flat.size != symbols * sum(rows):
        return None
    flat.flags.writeable = False
    layers = _split_layers(flat, symbols, rows)
    if ",".join(map(_layer_json, layers)).encode() != chunk:
        return None
    return layers


def table_scan(text: bytes, start: int):
    """The output table whose text starts at text[start], in table_format's
    spelling but with cells -?[0-9]{1,18}(/[1-9][0-9]{0,17})? (robp._CELL:
    leading zeros, "-0" and unreduced fractions too), at least one row and
    one column, and no ragged rows. Returns int64 num and den arrays of the
    table's shape, the offset just past its closing bracket and whether
    every cell is in lowest terms; None for any other text, and always
    without a C library. The twin of the C code is json.loads followed by
    robp._bulk_outputs, which the caller runs when this returns None."""
    if type(text) is not bytes or not 0 <= start <= len(text):
        raise ValueError("table scan needs bytes and 0 <= start <= their length")
    fn = _c("table_scan")
    if fn is None:
        return None
    # a cell takes four bytes at least: '"0"' and a comma or bracket
    cap = (len(text) - start) // 4
    num = np.empty(cap, np.int64)
    den = np.empty(cap, np.int64)
    shape = np.zeros(3, np.int64)
    stop = fn(text, start, len(text), cap, num.ctypes.data, den.ctypes.data, shape.ctypes.data)
    if stop < 0:
        return None
    rows, cols, reduced = shape.tolist()
    cells = rows * cols
    return num[:cells].reshape(rows, cols), den[:cells].reshape(rows, cols), stop, bool(reduced)


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
    """The compiled library with every function of _KERNELS declared,
    compiling it on a cache miss; None when it cannot be built or loaded,
    or lacks one of those functions."""
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
        for name, (argtypes, restype, per_dtype) in _KERNELS.items():
            for symbol in [f"{name}_i16", f"{name}_i32"] if per_dtype else [name]:
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return lib


@functools.cache
def library():
    """load_library(), once per process."""
    return load_library()
