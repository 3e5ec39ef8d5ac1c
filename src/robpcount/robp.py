"""Layered read-once branching programs over small finite alphabets.

A program has n+1 layers of vertices; every non-final vertex carries one
outgoing edge per alphabet symbol into the next layer, and every final
vertex carries a tuple of exact rational outputs. Vertices are addressed
by (layer, index); edges are dense per-layer arrays indexed by symbol.

Programs are immutable after construction and safe to share. validate()
never raises on malformed candidates -- it reports, because generators and
parsers routinely produce near-misses that the caller wants described. The
report is kept on the program, so each program is checked once. So is the
label DP's last layer (see labeling), which verify, minimal_error and the
final audits share.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import as_integer, as_rational, format_rational, parse_rational

ALPHABET_KINDS = ("counter", "parallel", "binary")
_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class Alphabet:
    """Input alphabet: k letters, k-bit vectors, or plain bits; the one
    statement of what each symbol counts (see shifts).

    Symbols are canonically indexed 0..size-1, and a program outputs one
    count per tracked coordinate (arity of them). For "counter", index i is
    letter i+1 of a k-letter alphabet and counts one in coordinate i; for
    "parallel", index i is the k-bit vector whose j-th bit is bit j of i, and
    it counts that bit in coordinate j; "binary" is the two-symbol case with
    a single tracked coordinate, the count of 1s (k is fixed at 1).
    """

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in ALPHABET_KINDS:
            raise ValueError(f"unknown alphabet kind {self.kind!r}")
        object.__setattr__(self, "k", as_integer(self.k, "alphabet k"))
        if self.kind == "counter" and self.k < 2:
            raise ValueError("counter alphabet needs k >= 2")
        if self.kind == "parallel" and self.k < 1:
            raise ValueError("parallel alphabet needs k >= 1")
        if self.kind == "binary":
            object.__setattr__(self, "k", 1)

    @property
    def size(self) -> int:
        if self.kind == "counter":
            return self.k
        if self.kind == "parallel":
            return 2**self.k
        return 2

    @property
    def arity(self) -> int:
        """Output tuple length of the counting problem over this alphabet."""
        return 1 if self.kind == "binary" else self.k

    @property
    def shifts(self) -> np.ndarray:
        """A fresh (size, arity) int32 table whose row i is what symbol i
        adds to the tracked counts: e_i for a counter letter, the bits of i
        (bit j in column j) for a parallel vector or a binary symbol."""
        i = np.arange(self.size)[:, None]
        if self.kind == "counter":
            return (i == np.arange(self.k)).astype(np.int32)
        return ((i >> np.arange(self.arity)) & 1).astype(np.int32)


def counter_alphabet(k: int) -> Alphabet:
    return Alphabet("counter", k)


def parallel_alphabet(k: int) -> Alphabet:
    return Alphabet("parallel", k)


def binary_alphabet() -> Alphabet:
    return Alphabet("binary")


class RationalTable:
    """A rectangular table of exact rationals as parallel num/den arrays.

    Rows map to final-layer vertices, columns to output coordinates.
    Normalized on construction (gcd-reduced, positive denominators).
    Entries that fit comfortably in int64 are stored that way; anything
    larger falls back to object arrays of Python ints, still exact. Cells
    must be integers: a float or bool array, or an object cell that is not
    an int or a numpy integer, raises ValueError instead of being truncated.
    A table cannot change: its arrays are read-only and its fields cannot be
    rebound.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: np.ndarray):
        num = np.asarray(num)
        den = np.asarray(den)
        if num.shape != den.shape or num.ndim != 2:
            raise ValueError("num/den must be 2-d arrays of equal shape")
        if num.size and (num.dtype.kind not in "iuO" or den.dtype.kind not in "iuO"):
            raise ValueError(f"rational table cells must be integers, not {num.dtype}/{den.dtype}")
        # a cell past int64's maximum would wrap in the cast below, and one at
        # its minimum in the sign flip: such a table takes the object path
        if any(
            a.dtype.kind in "iu" and a.size and not -(2**63) < int(a.min()) <= int(a.max()) < 2**63
            for a in (num, den)
        ):
            num = num.astype(object)
        if num.dtype == object or den.dtype == object:
            pairs = [
                [Fraction(as_integer(p, "table cell"), as_integer(q, "table cell"))
                 for p, q in zip(nrow, drow)]
                for nrow, drow in zip(num, den)
            ]
            num = np.array([[f.numerator for f in r] for r in pairs], dtype=object)
            den = np.array([[f.denominator for f in r] for r in pairs], dtype=object)
            num = num.reshape(den.shape)
        else:
            num = num.astype(np.int64)
            den = den.astype(np.int64)
            if np.any(den == 0):
                raise ZeroDivisionError("zero denominator in rational table")
            neg = den < 0
            if neg.any():
                num = np.where(neg, -num, num)
                den = np.where(neg, -den, den)
            g = np.gcd(num, den)
            g[g == 0] = 1
            num = num // g
            den = den // g
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a RationalTable is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return RationalTable, (self.num, self.den)

    @classmethod
    def _reduced(cls, num: np.ndarray, den: np.ndarray) -> "RationalTable":
        """A table of int64 num and den arrays that the caller built already
        in lowest terms with positive denominators, kept as given, without
        the constructor's normalizing passes. The arrays are made read-only,
        so the caller must hold no other reference that writes them."""
        table = object.__new__(cls)
        for name, a in (("num", num), ("den", den)):
            a.flags.writeable = False
            object.__setattr__(table, name, a)
        return table

    @classmethod
    def from_rows(cls, rows) -> "RationalTable":
        rows = [tuple(map(as_rational, row)) for row in rows]
        if not rows:
            return cls(np.zeros((0, 1), np.int64), np.ones((0, 1), np.int64))
        arity = len(rows[0])
        if any(len(r) != arity for r in rows):
            raise ValueError("ragged rows")
        big = any(
            abs(f.numerator) >= 2**62 or f.denominator >= 2**62
            for r in rows
            for f in r
        )
        dtype = object if big else np.int64
        num = np.array([[f.numerator for f in r] for r in rows], dtype)
        den = np.array([[f.denominator for f in r] for r in rows], dtype)
        return cls(num.reshape(len(rows), arity), den.reshape(len(rows), arity))

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(int(p), int(q)) for p, q in zip(self.num[i], self.den[i])
        )

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.num.shape[0])]

    def __len__(self) -> int:
        return self.num.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalTable):
            return NotImplemented
        return (
            self.num.shape == other.num.shape
            and bool(np.array_equal(self.num, other.num))
            and bool(np.array_equal(self.den, other.den))
        )

    def __repr__(self) -> str:
        return f"RationalTable(shape={self.num.shape})"


def _frozen(a: np.ndarray) -> bool:
    """No array can write a's memory: a and every array it views are
    read-only, and the last of them owns the memory."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        if a.base is None:
            return True
        a = a.base
    return False


def _edge_array(rows, n_symbols: int):
    """One layer's edges as a dense read-only (vertices, symbols) int32
    array. A C-contiguous int32 array that is _frozen is kept as is, without
    a copy; any other array is copied, so the caller's array keeps its flags
    and cannot change the program afterwards. Rows that are ragged or hold
    a target outside int32 are kept verbatim as lists of ints, for validate
    to report. A non-integer target raises ValueError."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind != "O":
        if rows.dtype.kind not in "iu":
            raise ValueError(f"edge targets must be integers, not {rows.dtype}")
        if rows.ndim == 2 and rows.shape[1] == n_symbols and (
            np.can_cast(rows.dtype, np.int32)
            or not rows.size
            or (rows.min() >= _INT32.min and rows.max() <= _INT32.max)
        ):
            if rows.dtype == np.int32 and rows.flags.c_contiguous and _frozen(rows):
                return rows
            arr = np.array(rows, dtype=np.int32, order="C")
            arr.flags.writeable = False
            return arr
    rows = [[v if type(v) is int else as_integer(v, "edge target") for v in r] for r in rows]
    if any(len(r) != n_symbols for r in rows):
        return rows
    try:
        arr = np.array(rows, dtype=np.int32)
    except OverflowError:
        return rows
    arr = arr.reshape(len(rows), n_symbols)
    arr.flags.writeable = False
    return arr


class Robp:
    """A read-once branching program. Construct via Robp() or Robp.build()."""

    __slots__ = ("n", "alphabet", "layer_sizes", "edges", "outputs", "_report", "_last_labels")

    def __init__(self, n, alphabet, layer_sizes, edges, outputs):
        sizes = tuple(int(s) for s in layer_sizes)
        edges = tuple(_edge_array(rows, alphabet.size) for rows in edges)
        if not isinstance(outputs, RationalTable):
            try:
                outputs = RationalTable.from_rows(outputs)
            except ValueError:
                outputs = tuple(tuple(map(as_rational, row)) for row in outputs)
        # the last two slots hold validate's report and the label DP's last
        # layer once each has run; pickling and == ignore them
        fields = (int(n), alphabet, sizes, edges, outputs, None, None)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a Robp is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Robp, (self.n, self.alphabet, self.layer_sizes, self.edges, self.outputs)

    def _with_outputs(self, outputs) -> "Robp":
        """This program's edges with other outputs. The label DP reads only
        the edges, so a kept last label layer carries over; validate's
        report, which also checks the outputs, does not."""
        p = Robp(self.n, self.alphabet, self.layer_sizes, self.edges, outputs)
        object.__setattr__(p, "_last_labels", self._last_labels)
        return p

    @classmethod
    def build(cls, alphabet: Alphabet, edges: Sequence, outputs) -> "Robp":
        """Derive n and layer sizes from the edge/output lists."""
        n = len(edges)
        sizes = [len(rows) for rows in edges] + [len(outputs)]
        return cls(n, alphabet, sizes, edges, outputs)

    @property
    def width(self) -> int:
        return max(self.layer_sizes) if self.layer_sizes else 0

    def edge_array(self, t: int) -> np.ndarray:
        arr = self.edges[t]
        if not isinstance(arr, np.ndarray):
            raise ValueError(f"layer {t} has ragged edges; validate first")
        return arr

    @property
    def outputs_table(self) -> RationalTable:
        if not isinstance(self.outputs, RationalTable):
            raise ValueError("outputs are ragged; validate first")
        return self.outputs

    def output_tuple(self, v: int) -> tuple[Fraction, ...]:
        if isinstance(self.outputs, RationalTable):
            return self.outputs.row(v)
        return self.outputs[v]

    def output_rows(self) -> list[tuple[Fraction, ...]]:
        if isinstance(self.outputs, RationalTable):
            return self.outputs.rows()
        return list(self.outputs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Robp):
            return NotImplemented
        if (
            self.n != other.n
            or self.alphabet != other.alphabet
            or self.layer_sizes != other.layer_sizes
            or len(self.edges) != len(other.edges)
        ):
            return False
        for a, b in zip(self.edges, other.edges):
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif [list(r) for r in a] != [list(r) for r in b]:
                return False
        if isinstance(self.outputs, RationalTable) and isinstance(other.outputs, RationalTable):
            return self.outputs == other.outputs
        return self.output_rows() == other.output_rows()

    def __repr__(self) -> str:
        return (
            f"Robp(n={self.n}, alphabet={self.alphabet.kind}/{self.alphabet.k}, "
            f"width={self.width})"
        )


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    width: int
    layer_sizes: tuple[int, ...]
    violations: tuple[tuple[int, int, str], ...] = field(default_factory=tuple)


def validate(p: Robp) -> ValidationReport:
    """Check the structural contract; all problems land in `violations`.

    Checked: exactly one start vertex, one outgoing edge per symbol on every
    non-final vertex, edge targets inside the next layer, every vertex
    reachable from the start, and an output tuple of the alphabet's arity on
    every final vertex. Vertex -1 marks layer-level findings. The report is
    kept on p, which cannot change, unless p holds list rows (ragged outputs
    are tuples of tuples, which cannot change either).

    Reachability is scanned forward one layer at a time by
    _kernel.reach_mark (in C, or in numpy without a C compiler), which also
    counts the vertices it marks; only a layer with fewer marked vertices
    than its size is searched for the unreachable ones.
    """
    if p._report is None and all(isinstance(rows, np.ndarray) for rows in p.edges):
        object.__setattr__(p, "_report", _build_report(p))
    return p._report or _build_report(p)


def _build_report(p: Robp) -> ValidationReport:
    """validate's checks, run once per program."""
    v: list[tuple[int, int, str]] = []
    sizes = p.layer_sizes
    size = p.alphabet.size

    if len(sizes) != p.n + 1:
        v.append((-1, -1, f"expected {p.n + 1} layers, found {len(sizes)}"))
    if sizes and sizes[0] != 1:
        v.append((0, -1, f"start layer must have exactly 1 vertex, has {sizes[0]}"))
    for t, s in enumerate(sizes):
        if s < 1:
            v.append((t, -1, "empty layer"))
    if len(p.edges) != p.n:
        v.append((-1, -1, f"expected {p.n} edge layers, found {len(p.edges)}"))

    targets_ok = True
    for t in range(min(len(p.edges), max(p.n, 0))):
        rows = p.edges[t]
        expect = sizes[t] if t < len(sizes) else -1
        if len(rows) != expect:
            v.append((t, -1, f"layer has {expect} vertices but {len(rows)} edge rows"))
        if isinstance(rows, np.ndarray):
            nxt = sizes[t + 1] if t + 1 < len(sizes) else 0
            if rows.size and (rows.min() < 0 or rows.max() >= nxt):
                targets_ok = False
                bad = (rows < 0) | (rows >= nxt)
                for u in np.unique(np.nonzero(bad)[0])[:32]:
                    v.append((t, int(u), "edge target outside next layer"))
        else:
            for u, row in enumerate(rows):
                if len(row) != size:
                    v.append((t, u, f"out-degree {len(row)}, expected {size}"))
                nxt = sizes[t + 1] if t + 1 < len(sizes) else 0
                if any(not (0 <= z < nxt) for z in row):
                    targets_ok = False
                    v.append((t, u, "edge target outside next layer"))

    if isinstance(p.outputs, RationalTable):
        final = sizes[-1] if sizes else 0
        if len(p.outputs) != final:
            v.append((p.n, -1, f"{len(p.outputs)} output tuples for {final} final vertices"))
        arity = p.outputs.shape[1]
        if len(p.outputs) and arity != p.alphabet.arity:
            v.append((p.n, -1, f"output arity {arity}, expected {p.alphabet.arity}"))
    else:
        v.append((p.n, -1, "inconsistent output arity across final vertices"))

    # reachability only when every edge target resolved and every layer size
    # is backed by edge rows or output rows, so its work follows the program
    if targets_ok and len(p.edges) == p.n and len(sizes) == p.n + 1 and all(
        len(p.edges[t]) == sizes[t] for t in range(p.n)
    ) and len(p.outputs) == sizes[-1]:
        from ._kernel import reach_mark

        # reached marks the vertices of layer t, marked counts them
        reached = np.zeros(sizes[0], dtype=bool)
        reached[:1] = True
        marked = min(sizes[0], 1)
        for t in range(p.n + 1):
            if marked < sizes[t]:
                v.extend((t, int(u), "unreachable") for u in np.flatnonzero(~reached))
            if t == p.n:
                break
            rows = p.edges[t]
            nxt = np.zeros(sizes[t + 1], dtype=bool)
            if isinstance(rows, np.ndarray):
                marked = reach_mark(rows, reached, nxt)
            else:
                for u in np.flatnonzero(reached):
                    for z in rows[u]:
                        nxt[z] = True
                marked = int(np.count_nonzero(nxt))
            reached = nxt

    width = max(sizes) if sizes else 0
    return ValidationReport(valid=not v, width=width, layer_sizes=sizes, violations=tuple(v))


def _require_valid(p: Robp):
    """ValueError unless validate finds p valid: the gate in front of all
    code that indexes a program's edges and outputs."""
    report = validate(p)
    if not report.valid:
        raise ValueError(f"program is invalid: {report.violations[:3]}")


def evaluate(p: Robp, x: Sequence[int]) -> tuple[tuple[Fraction, ...], list[int]]:
    """Run the program on one input; returns (output tuple, vertex path)."""
    _require_valid(p)
    if len(x) != p.n:
        raise ValueError(f"input length {len(x)} != n = {p.n}")
    size = p.alphabet.size
    cur = 0
    path = [0]
    for t, sym in enumerate(x):
        sym = as_integer(sym, "symbol")
        if not 0 <= sym < size:
            raise ValueError(f"symbol {sym} out of range at position {t}")
        cur = int(p.edge_array(t)[cur, sym])
        path.append(cur)
    return p.output_tuple(cur), path


class RobpParseError(ValueError):
    """Serialization text is structurally broken (with a location hint)."""


def _expect(cond: bool, where: str, what: str):
    if not cond:
        raise RobpParseError(f"{where}: {what}")


# One output cell the bulk parser takes: at most 18 digits, so that every
# numerator and denominator fits the int64 table RationalTable.from_rows
# would choose. Other spellings parse_rational accepts (" 3", "+3", longer
# numbers) go through the walk.
_CELL = r"-?[0-9]{1,18}(?:/[1-9][0-9]{0,17})?"
# A line that is not one _CELL. It is searched for line by line: a
# fullmatch of (?:CELL\n)*CELL grows the regex engine's stack by every cell.
_NOT_A_CELL = re.compile(rf"^(?!{_CELL}$)", re.M)
_WHOLE_LINE = re.compile(r"^-?[0-9]+$", re.M)


def _bulk_outputs(rows):
    """The output rows as a RationalTable, or None for anything the walk
    must see: no rows, a row that is not a list, ragged or empty rows, a
    cell that is not a string or not in the form _CELL."""
    if not rows or set(map(type, rows)) != {list}:
        return None
    arity = len(rows[0])
    if not arity or set(map(len, rows)) != {arity}:
        return None
    try:
        text = "\n".join(itertools.chain.from_iterable(rows))
    except TypeError:
        return None
    cells = len(rows) * arity
    if text.count("\n") != cells - 1 or _NOT_A_CELL.search(text):
        return None
    if "/" in text:
        text = _WHOLE_LINE.sub(r"\g<0>/1", text).replace("/", "\n")
        pairs = np.array(text.split("\n"), dtype=np.int64).reshape(len(rows), arity, 2)
        num, den = pairs[..., 0], pairs[..., 1]
    else:
        num = np.array(text.split("\n"), dtype=np.int64).reshape(len(rows), arity)
        den = np.ones_like(num)
    return RationalTable(num, den)


# write_robp's document opens with the alphabet object in this one spelling
# and then the top-level edges array, so the scanner finds that array where
# the head ends, never at an "edges" key nested deeper
_HEAD = re.compile(rb'\{"alphabet":\{"k":-?[0-9]+,"kind":"[a-z]+"\},"edges":\[')
_BLANK = bytes.maketrans(b"[],", b"   ")  # brackets and commas to spaces
_BETWEEN = b"]],[["  # sits between two edge layers
# Thin layers are parsed in batches of at least this many characters; a
# longer layer is a batch of its own, so no temporary outgrows one layer.
_BATCH_CHARS = 1 << 16


def _scan(text: bytes):
    """The document and its edge layers as read-only int32 arrays, if the
    bytes are in write_robp's canonical form; otherwise None. The scanner
    reads bytes only: read_robp encodes an ASCII str once before calling it.

    Everything but the edges is parsed by json.loads from a skeleton that
    holds "edges":[] in their place, and taken only if json.dumps gives the
    skeleton back byte for byte: that refuses whitespace other than at the
    end, reordered or duplicate keys and non-ASCII text. The edges are
    parsed by numpy, a batch of layers at a time, and each batch is taken
    only if _layer_json gives its text back byte for byte: that refuses
    every other spelling, and a target outside int32, which numpy's parse
    would wrap. So what comes back is what json.loads and the walk would
    make of the text."""
    head = _HEAD.match(text)
    if not head:
        return None
    start = head.end()
    # layers in canonical form hold no quote, so the first one follows them;
    # edges that hold one are cut short there and fail the layer check
    end = text.find(b'"', start) - len(b"],")
    if end < start or not text.startswith(b"],", end):
        return None
    try:
        # the CLI ends what it writes with a newline; json.loads skips
        # trailing JSON whitespace, and so does the scanner
        skeleton = (text[:start] + text[end:]).decode("ascii").rstrip(" \t\n\r")
        with _gc_paused():
            doc = json.loads(skeleton)
        if json.dumps(doc, separators=(",", ":"), sort_keys=True) != skeleton:
            return None
        alphabet = Alphabet(doc["alphabet"]["kind"], doc["alphabet"]["k"])
    except (ValueError, RecursionError):
        return None
    sizes = doc["layers"]
    if not isinstance(sizes, list) or not all(type(r) is int and r >= 0 for r in sizes):
        return None
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
        batch = _scan_layers(text[start:stop], alphabet.size, rows)
        if batch is None:
            return None
        edges += batch
        start = stop + 1
    return doc, edges


def _scan_layers(chunk: bytes, size: int, rows):
    """The edge layers whose text is chunk, as read-only int32 arrays of
    size columns, or None. rows, the layer sizes the document gives, only
    guide the split into layers."""
    try:
        flat = np.fromstring(chunk.translate(_BLANK), np.int32, sep=" ")
    except ValueError:
        return None
    if flat.size != size * sum(rows):
        return None
    flat.flags.writeable = False
    layers, offset = [], 0
    for r in rows:
        layers.append(flat[offset : offset + r * size].reshape(r, size))
        offset += r * size
    if ",".join(map(_layer_json, layers)).encode() != chunk:
        return None
    return layers


def _walk_edge_layer(t: int, rows):
    _expect(isinstance(rows, list), f"edges[{t}]", "expected a list of vertex rows")
    for u, row in enumerate(rows):
        _expect(isinstance(row, list), f"edges[{t}][{u}]", "expected a list of targets")
        for z, tgt in enumerate(row):
            _expect(type(tgt) is int, f"edges[{t}][{u}][{z}]", "expected an integer")


def _walk_outputs(rows) -> list[tuple[Fraction, ...]]:
    outputs = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list), f"outputs[{i}]", "expected a list of rationals")
        parsed = []
        for j, s in enumerate(row):
            _expect(isinstance(s, str), f"outputs[{i}][{j}]", "expected a string rational")
            try:
                parsed.append(parse_rational(s))
            except ValueError as e:
                raise RobpParseError(f"outputs[{i}][{j}]: {e}") from None
        outputs.append(tuple(parsed))
    return outputs


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector. json.loads builds a list per
    vertex and none of them is in a cycle, but the full collections their
    number triggers scan every one made so far: on a 252 MB document this
    halves the parse."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_robp(text: str | bytes) -> Robp:
    """Parse the JSON serialization, given as text or UTF-8 bytes.
    Structural errors raise RobpParseError; semantic problems (bad
    out-degrees, unreachable vertices, arity drift) are left for validate()
    to report. Nesting deeper than the interpreter's recursion limit raises
    RobpParseError too.

    Text in the canonical form write_robp emits (sorted keys, "," and ":"
    as separators, no whitespace but at the end) is scanned directly:
    numpy parses the edge layers from the text, with no Python object per
    target. The scanner reads bytes only, so an ASCII str is encoded once
    on entry; a non-ASCII str is never canonical. Any other valid spelling
    of the same document is read by json.loads and the element walk, which
    is the one source of located error messages and keeps rows verbatim for
    validate; both give the same program. The output table is converted in
    bulk when every cell is a plain p or p/q, and otherwise walked."""
    # the encoded copy lives only while it is scanned; a bytearray goes to
    # the walk, as numpy's fromstring takes read-only bytes
    if isinstance(text, str) and text.isascii():
        scanned = _scan(text.encode())
    else:
        scanned = _scan(text) if type(text) is bytes else None
    if scanned is None:
        if isinstance(text, (bytes, bytearray)):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as e:
                raise RobpParseError(f"byte {e.start}: not UTF-8 text") from None
        try:
            with _gc_paused():
                doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise RobpParseError(f"line {e.lineno} col {e.colno}: {e.msg}") from None
        except RecursionError:
            raise RobpParseError("document: nested too deeply to parse") from None
        edges = None
    else:
        doc, edges = scanned
    _expect(isinstance(doc, dict), "document", "expected a JSON object")
    for key in ("n", "alphabet", "layers", "edges", "outputs"):
        _expect(key in doc, "document", f"missing field {key!r}")
    n = doc["n"]
    # `type(x) is int`, not isinstance: JSON true/false parse as bool, an int subclass
    _expect(type(n) is int and n >= 0, "n", "expected a nonnegative integer")
    alpha = doc["alphabet"]
    _expect(isinstance(alpha, dict) and "kind" in alpha, "alphabet", "expected object with 'kind'")
    kind = alpha["kind"]
    _expect(kind in ALPHABET_KINDS, "alphabet.kind", f"unknown kind {kind!r}")
    k = alpha.get("k", 1)
    _expect(type(k) is int, "alphabet.k", "expected an integer")
    try:
        alphabet = Alphabet(kind, k)
    except ValueError as e:
        raise RobpParseError(f"alphabet: {e}") from None
    layers = doc["layers"]
    _expect(
        isinstance(layers, list) and all(type(s) is int for s in layers),
        "layers", "expected a list of integers",
    )
    _expect(len(layers) == n + 1, "layers", f"expected {n + 1} entries, found {len(layers)}")
    if edges is None:
        edges = doc["edges"]
        _expect(isinstance(edges, list), "edges", "expected a list")
        for t, rows in enumerate(edges):
            _walk_edge_layer(t, rows)
    outputs_doc = doc["outputs"]
    _expect(isinstance(outputs_doc, list), "outputs", "expected a list")
    outputs = _bulk_outputs(outputs_doc)
    if outputs is None:
        outputs = _walk_outputs(outputs_doc)
    return Robp(n, alphabet, layers, edges, outputs)


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


def write_robp(p: Robp) -> str:
    """Serialize to the documented JSON format (round-trips through read_robp)."""
    if isinstance(p.outputs, RationalTable):
        outputs = [
            [str(a) if b == 1 else f"{a}/{b}" for a, b in zip(nums, dens)]
            for nums, dens in zip(p.outputs.num.tolist(), p.outputs.den.tolist())
        ]
    else:
        outputs = [[format_rational(v) for v in row] for row in p.outputs]
    alphabet = {"kind": p.alphabet.kind, "k": p.alphabet.k}
    compact = dict(separators=(",", ":"), sort_keys=True)
    # the keys in sorted order, with each edge layer formatted on its own
    return (
        f'{{"alphabet":{json.dumps(alphabet, **compact)},'
        f'"edges":[{",".join(map(_layer_json, p.edges))}],'
        f'"layers":{json.dumps(list(p.layer_sizes), **compact)},"n":{p.n},'
        f'"outputs":{json.dumps(outputs, **compact)}}}'
    )
