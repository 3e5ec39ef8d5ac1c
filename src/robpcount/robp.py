"""Layered read-once branching programs over small finite alphabets.

A program has n+1 layers of vertices; every non-final vertex carries one
outgoing edge per alphabet symbol into the next layer, and every final
vertex carries a tuple of exact rational outputs. Vertices are addressed
by (layer, index); edges are dense per-layer arrays indexed by symbol.

Programs are immutable after construction and safe to share. validate()
never raises on malformed candidates -- it reports, because generators and
parsers routinely produce near-misses that the caller wants described.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import RationalTable, format_rational, parse_rational

ALPHABET_KINDS = ("counter", "parallel", "binary")
_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class Alphabet:
    """Input alphabet: k letters, k-bit vectors, or plain bits.

    Symbols are canonically indexed 0..size-1. For "counter", index i is
    letter i+1 of a k-letter alphabet; for "parallel", index i is the k-bit
    vector whose j-th bit is bit j of i; "binary" is the two-symbol case
    with a single tracked coordinate (k is fixed at 1).
    """

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in ALPHABET_KINDS:
            raise ValueError(f"unknown alphabet kind {self.kind!r}")
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


def counter_alphabet(k: int) -> Alphabet:
    return Alphabet("counter", k)


def parallel_alphabet(k: int) -> Alphabet:
    return Alphabet("parallel", k)


def binary_alphabet() -> Alphabet:
    return Alphabet("binary")


def _target(v) -> int:
    """An edge target as an int; ValueError for anything but an integer,
    since a cast would truncate 1.9 to 1 and read a bool as 0 or 1."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"edge target {v!r} is not an integer")
    return int(v)


def _edge_array(rows, n_symbols: int):
    """One layer's edges as a dense read-only (vertices, symbols) int32
    array; a C-contiguous int32 array is kept as is, without a copy. Rows
    that are ragged or hold a target outside int32 are kept verbatim as
    lists of ints, for validate to report. A non-integer target raises
    ValueError."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind != "O":
        if rows.dtype.kind not in "iu":
            raise ValueError(f"edge targets must be integers, not {rows.dtype}")
        if rows.ndim == 2 and rows.shape[1] == n_symbols and (
            np.can_cast(rows.dtype, np.int32)
            or not rows.size
            or (rows.min() >= _INT32.min and rows.max() <= _INT32.max)
        ):
            arr = np.ascontiguousarray(rows, dtype=np.int32)
            arr.flags.writeable = False
            return arr
    rows = [[v if type(v) is int else _target(v) for v in r] for r in rows]
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

    __slots__ = ("n", "alphabet", "layer_sizes", "edges", "outputs")

    def __init__(self, n, alphabet, layer_sizes, edges, outputs):
        self.n = int(n)
        self.alphabet = alphabet
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        size = alphabet.size
        self.edges = tuple(_edge_array(rows, size) for rows in edges)
        if not isinstance(outputs, RationalTable):
            try:
                outputs = RationalTable.from_rows(outputs)
            except ValueError:
                outputs = tuple(tuple(Fraction(v) for v in row) for row in outputs)
        self.outputs = outputs

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
        ):
            return False
        for a, b in zip(self.edges, other.edges):
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif [list(r) for r in a] != [list(r) for r in b]:
                return False
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
    reachable from the start, and a consistent-arity output tuple on every
    final vertex. Vertex -1 marks layer-level findings.
    """
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
        if len(p.outputs) != (sizes[-1] if sizes else 0):
            v.append((p.n, -1, f"{len(p.outputs)} output tuples for {sizes[-1]} final vertices"))
    else:
        v.append((p.n, -1, "inconsistent output arity across final vertices"))

    # reachability only when every edge target resolved
    if targets_ok and len(p.edges) == p.n and len(sizes) == p.n + 1 and all(
        len(p.edges[t]) == sizes[t] for t in range(p.n)
    ):
        reached = np.zeros(sizes[0], dtype=bool)
        if sizes[0] > 0:
            reached[0] = True
        for t in range(p.n):
            for u in np.nonzero(~reached)[0]:
                v.append((t, int(u), "unreachable"))
            rows = p.edges[t]
            nxt = np.zeros(sizes[t + 1], dtype=bool)
            if isinstance(rows, np.ndarray):
                # the mask gather copies rows; skip it when nothing is masked
                nxt[rows if reached.all() else rows[reached]] = True
            else:
                for u in np.nonzero(reached)[0]:
                    for z in rows[u]:
                        nxt[z] = True
            reached = nxt
        for u in np.nonzero(~reached)[0]:
            v.append((p.n, int(u), "unreachable"))

    width = max(sizes) if sizes else 0
    return ValidationReport(valid=not v, width=width, layer_sizes=sizes, violations=tuple(v))


def evaluate(p: Robp, x: Sequence[int]) -> tuple[tuple[Fraction, ...], list[int]]:
    """Run the program on one input; returns (output tuple, vertex path)."""
    if len(x) != p.n:
        raise ValueError(f"input length {len(x)} != n = {p.n}")
    size = p.alphabet.size
    cur = 0
    path = [0]
    for t, sym in enumerate(x):
        sym = int(sym)
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


def read_robp(text: str) -> Robp:
    """Parse the JSON serialization. Structural errors raise RobpParseError;
    semantic problems (bad out-degrees, unreachable vertices, arity drift)
    are left for validate() to report."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RobpParseError(f"line {e.lineno} col {e.colno}: {e.msg}") from None
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
    edges = doc["edges"]
    _expect(isinstance(edges, list), "edges", "expected a list")
    for t, rows in enumerate(edges):
        _expect(isinstance(rows, list), f"edges[{t}]", "expected a list of vertex rows")
        for u, row in enumerate(rows):
            _expect(isinstance(row, list), f"edges[{t}][{u}]", "expected a list of targets")
            for z, tgt in enumerate(row):
                _expect(type(tgt) is int, f"edges[{t}][{u}][{z}]", "expected an integer")
    outputs_doc = doc["outputs"]
    _expect(isinstance(outputs_doc, list), "outputs", "expected a list")
    outputs = []
    for i, row in enumerate(outputs_doc):
        _expect(isinstance(row, list), f"outputs[{i}]", "expected a list of rationals")
        parsed = []
        for j, s in enumerate(row):
            _expect(isinstance(s, str), f"outputs[{i}][{j}]", "expected a string rational")
            try:
                parsed.append(parse_rational(s))
            except ValueError as e:
                raise RobpParseError(f"outputs[{i}][{j}]: {e}") from None
        outputs.append(tuple(parsed))
    return Robp(n, alphabet, layers, edges, outputs)


def write_robp(p: Robp) -> str:
    """Serialize to the documented JSON format (round-trips through read_robp)."""
    edges = []
    for rows in p.edges:
        if isinstance(rows, np.ndarray):
            edges.append(rows.tolist())
        else:
            edges.append([list(int(v) for v in r) for r in rows])
    if isinstance(p.outputs, RationalTable):
        num, den = p.outputs.num, p.outputs.den
        outputs = [
            [
                str(int(pn)) if q == 1 else f"{int(pn)}/{int(q)}"
                for pn, q in zip(num[i], den[i])
            ]
            for i in range(num.shape[0])
        ]
    else:
        outputs = [[format_rational(v) for v in row] for row in p.outputs]
    doc = {
        "n": p.n,
        "alphabet": {"kind": p.alphabet.kind, "k": p.alphabet.k},
        "layers": list(p.layer_sizes),
        "edges": edges,
        "outputs": outputs,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)
