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

write_robp and read_robp carry programs as canonical JSON. The edge layers
and an int64 output table are written, and read back from the bytes in
place, by _kernel's JSON kernels in one C pass each (edge_format,
table_format, edge_scan, table_scan), or by their numpy twins without a C
compiler; the bytes are the same either way. Text the scanners refuse goes
to json.loads and a walk over its elements, which gives the same program.
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

from . import _kernel
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
                marked = _kernel.reach_mark(rows, reached, nxt)
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
_OUTPUTS = b',"outputs":'
# what may follow the output table when it is the document's last field:
# the object's end and the JSON whitespace the CLI's newline adds
_LAST = re.compile(rb"\}[ \t\n\r]*\Z")


def _scan(text: bytes):
    """The document, its edge layers as read-only int32 arrays and its
    output table (a RationalTable, or None when doc["outputs"] holds the
    rows), if the bytes are in write_robp's canonical form; otherwise None.
    The scanner reads bytes only: read_robp encodes an ASCII str once
    before calling it.

    The edge layers, and the output table when it is the last field, are
    cut out of the text, and what is left, the skeleton, is parsed by
    json.loads. It is taken only if json.dumps gives it back byte for byte:
    that refuses whitespace other than at the end, reordered or duplicate
    keys and non-ASCII text. _kernel.edge_scan reads the edge layers and
    _kernel.table_scan the output table from the bytes in place, and each
    takes only the one spelling write_robp gives (for the table, any cell
    of the form _CELL); without a C library the output table stays in the
    skeleton. So what comes back is what json.loads and the walk would
    make of the text."""
    head = _HEAD.match(text)
    if not head:
        return None
    start = head.end()
    # layers in canonical form hold no quote, so the first one follows them;
    # edges that hold one are cut short there and fail the layer scan
    end = text.find(b'"', start) - len(b"],")
    if end < start or not text.startswith(b"],", end):
        return None
    key = text.find(_OUTPUTS, end)
    cut = key + len(_OUTPUTS)
    table = _kernel.table_scan(text, cut) if key >= 0 else None
    # a table that is not the top-level object's last field stays in the
    # skeleton: one nested deeper is followed by a second "}"
    if table is not None and not _LAST.match(text, table[2]):
        table = None
    try:
        # the CLI ends what it writes with a newline; json.loads skips
        # trailing JSON whitespace, and so does the scanner
        if table is None:
            skeleton = (text[:start] + text[end:]).decode("ascii").rstrip(" \t\n\r")
        else:
            skeleton = (text[:start] + text[end:cut]).decode("ascii") + "[]}"
        doc = json.loads(skeleton)
        if json.dumps(doc, separators=(",", ":"), sort_keys=True) != skeleton:
            return None
        alphabet = Alphabet(doc["alphabet"]["kind"], doc["alphabet"]["k"])
    except (ValueError, RecursionError):
        return None
    sizes = doc.get("layers")  # read_robp reports a missing field
    if not isinstance(sizes, list) or not all(type(r) is int and r >= 0 for r in sizes):
        return None
    edges = _kernel.edge_scan(text, start, end, alphabet.size, sizes)
    if edges is None:
        return None
    outputs = None
    if table is not None:
        num, den, _, reduced = table
        outputs = RationalTable._reduced(num, den) if reduced else RationalTable(num, den)
    return doc, edges, outputs


def _walk_edge_layer(t: int, rows, size: int):
    """Layer t of the walked document as a read-only int32 array of size
    columns, built in bulk once every target is checked to be an int. Rows
    that are ragged or hold a target outside int32 are kept verbatim, as
    Robp keeps them, for validate to report."""
    _expect(isinstance(rows, list), f"edges[{t}]", "expected a list of vertex rows")
    # json.loads makes plain lists and ints; only a layer that holds
    # anything else is walked target by target, to locate the first one
    if not (
        set(map(type, rows)) <= {list}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    ):
        for u, row in enumerate(rows):
            _expect(isinstance(row, list), f"edges[{t}][{u}]", "expected a list of targets")
            for z, tgt in enumerate(row):
                _expect(type(tgt) is int, f"edges[{t}][{u}][{z}]", "expected an integer")
    if not set(map(len, rows)) <= {size}:
        return rows
    try:
        flat = np.fromiter(itertools.chain.from_iterable(rows), np.int32, len(rows) * size)
    except OverflowError:
        return rows
    flat.flags.writeable = False
    return flat.reshape(len(rows), size)


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
    """Pause the cyclic garbage collector, as read_robp does while it runs.
    json.loads builds a list per vertex and none of them is in a cycle, but
    the full collections their number triggers scan every one made so far:
    on a 252 MB document this halves the parse. read_robp keeps none of
    them, so they are all freed before the collector runs again."""
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
    as separators, no whitespace but at the end) is scanned directly (see
    _scan): the C kernels read the edge layers and the output table from
    the bytes in place, in one pass each, with no Python object per target
    or cell. The scanner reads bytes only, so an ASCII str is encoded once
    on entry; a non-ASCII str is never canonical. Any text the scanner
    refuses, which is any other valid spelling of the same document, is read
    by json.loads and the element walk, the one source of located error
    messages, which keeps ragged rows verbatim for validate; both give the
    same program. Walked edge layers go to numpy in bulk once checked, and
    walked output tables too when every cell is a plain p or p/q."""
    with _gc_paused():
        return _read(text)


def _read(text: str | bytes) -> Robp:
    """read_robp, run with the garbage collector paused."""
    # the encoded copy lives only while it is scanned; a bytearray goes to
    # the walk, as the scanner reads immutable bytes only
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
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise RobpParseError(f"line {e.lineno} col {e.colno}: {e.msg}") from None
        except RecursionError:
            raise RobpParseError("document: nested too deeply to parse") from None
        edges = outputs = None
    else:
        doc, edges, outputs = scanned
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
        edges = [_walk_edge_layer(t, rows, alphabet.size) for t, rows in enumerate(edges)]
    if outputs is None:
        outputs_doc = doc["outputs"]
        _expect(isinstance(outputs_doc, list), "outputs", "expected a list")
        outputs = _bulk_outputs(outputs_doc)
        if outputs is None:
            outputs = _walk_outputs(outputs_doc)
    return Robp(n, alphabet, layers, edges, outputs)


def write_robp(p: Robp) -> str:
    """Serialize to the documented JSON format (round-trips through
    read_robp): compact, with sorted keys. _kernel.edge_format writes the
    edge layers and _kernel.table_format an int64 output table, each in one
    pass in C (or in numpy without a C library); either path gives the same
    bytes, those of one json.dumps over the whole document."""
    if isinstance(p.outputs, RationalTable):
        outputs = _kernel.table_format(p.outputs.num, p.outputs.den)
    else:
        outputs = json.dumps([[format_rational(v) for v in row] for row in p.outputs],
                             separators=(",", ":"))
    alphabet = {"kind": p.alphabet.kind, "k": p.alphabet.k}
    compact = dict(separators=(",", ":"), sort_keys=True)
    # the keys in sorted order, with the edges and outputs formatted apart
    return (
        f'{{"alphabet":{json.dumps(alphabet, **compact)},'
        f'"edges":[{_kernel.edge_format(p.edges)}],'
        f'"layers":{json.dumps(list(p.layer_sizes), **compact)},"n":{p.n},'
        f'"outputs":{outputs}}}'
    )
