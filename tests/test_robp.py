import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import robpcount.robp as robp_module
from robpcount import (
    Robp,
    RobpParseError,
    binary_alphabet,
    constant_program,
    counter_alphabet,
    evaluate,
    exact_counter,
    exhaustive_verify,
    parallel_alphabet,
    random_robp,
    read_robp,
    rounded_counter,
    tribes,
    validate,
    verify,
    write_robp,
)
from robpcount import _kernel
from robpcount.robp import Alphabet, RationalTable


def test_alphabet_sizes():
    assert counter_alphabet(3).size == 3
    assert parallel_alphabet(3).size == 8
    assert binary_alphabet().size == 2
    assert counter_alphabet(4).arity == 4
    assert binary_alphabet().arity == 1
    with pytest.raises(ValueError):
        counter_alphabet(1)


@pytest.mark.parametrize(
    "kind, k", [("counter", 2.5), ("parallel", 2.0), ("parallel", True), ("counter", np.bool_(True))]
)
def test_alphabet_refuses_a_k_that_is_not_an_integer(kind, k):
    # these were taken once, with sizes 2.5 and 4.0 and k=True
    with pytest.raises(ValueError, match="is not an integer"):
        Alphabet(kind, k)


def test_alphabet_takes_a_numpy_integer_k_as_an_int():
    alphabet = Alphabet("counter", np.int64(3))
    assert type(alphabet.k) is int and alphabet == counter_alphabet(3)


@pytest.mark.parametrize(
    "alphabet, rows",
    [
        pytest.param(
            counter_alphabet(k),
            [[int(i == j) for j in range(k)] for i in range(k)],
            id=f"counter-{k}",
        )
        for k in range(2, 7)
    ]
    + [pytest.param(binary_alphabet(), [[0], [1]], id="binary")]
    + [
        pytest.param(
            parallel_alphabet(k),
            [[(i >> j) & 1 for j in range(k)] for i in range(2**k)],
            id=f"parallel-{k}",
        )
        for k in range(1, 7)
    ],
)
def test_alphabet_shifts_follow_the_documented_encoding(alphabet, rows):
    # counter letter i counts e_i; a parallel or binary symbol i counts its
    # bits, bit j in column j
    shifts = alphabet.shifts
    assert shifts.shape == (alphabet.size, alphabet.arity) == (len(rows), len(rows[0]))
    assert shifts.dtype == np.int32
    assert shifts.tolist() == rows
    shifts[0, 0] += 1  # each call returns a table of its own
    assert alphabet.shifts.tolist() == rows


def test_validate_exact_counter():
    rep = validate(exact_counter(3, 2))
    assert rep.valid
    assert rep.width == 4
    assert rep.layer_sizes == (1, 2, 3, 4)


def test_validate_reports_unreachable():
    # both edges of the start vertex go to vertex 0; vertex 1 dangles
    p = Robp(1, binary_alphabet(), [1, 2], [[[0, 0]]], [(Fraction(0),), (Fraction(1),)])
    rep = validate(p)
    assert not rep.valid
    assert (1, 1, "unreachable") in rep.violations


def _unreachable_reference(p):
    """(layer, vertex, "unreachable") for every vertex no path reaches,
    layer by layer in vertex order, by plain forward search."""
    found, reached = [], {0}
    for t in range(p.n + 1):
        found += [(t, u, "unreachable") for u in range(p.layer_sizes[t]) if u not in reached]
        if t < p.n:
            reached = {int(z) for u in reached for z in p.edges[t][u]}
    return found


def test_validate_reports_unreachable_on_random_programs():
    # redirect every edge into one vertex v of layer t to another vertex, so
    # v and any vertex only v reached become unreachable
    checked = 0
    for seed in range(16):
        problem = [binary_alphabet(), counter_alphabet(2), counter_alphabet(3)][seed % 3]
        rng = random.Random(seed)
        p = random_robp(rng.randint(2, 10), problem, 5, seed)
        layers = [t for t in range(1, p.n + 1) if p.layer_sizes[t] > 1]
        if not layers:
            continue
        t = rng.choice(layers)
        v = rng.randrange(p.layer_sizes[t])
        edges = [e.copy() for e in p.edges]
        edges[t - 1][edges[t - 1] == v] = (v + 1) % p.layer_sizes[t]
        q = Robp(p.n, p.alphabet, p.layer_sizes, edges, p.outputs)
        expected = _unreachable_reference(q)
        assert (t, v, "unreachable") in expected
        assert validate(q).violations == tuple(expected)
        assert validate(p).violations == ()
        checked += 1
    assert checked >= 10


def test_validate_tribes():
    rep = validate(tribes(100, 3))
    assert rep.valid and rep.width == 3


def test_validate_reports_bad_outdegree_and_targets():
    p = Robp(1, binary_alphabet(), [1, 1], [[[0]]], [(Fraction(0),)])
    rep = validate(p)
    assert not rep.valid
    assert any("out-degree" in r for (_, _, r) in rep.violations)
    p2 = Robp(1, binary_alphabet(), [1, 1], [[[0, 5]]], [(Fraction(0),)])
    assert any("target" in r for (_, _, r) in validate(p2).violations)


def _two_leaves(layer):
    return Robp(1, binary_alphabet(), [1, 2], [layer], [(Fraction(0),), (Fraction(1),)])


@pytest.mark.parametrize(
    "layer",
    [
        pytest.param(np.array([[0, 1.9]]), id="float-array"),
        pytest.param(np.array([[False, True]]), id="bool-array"),
        pytest.param([[0, 1.0]], id="float-in-row"),
        pytest.param([[0, True]], id="bool-in-row"),
        pytest.param([(0, np.True_)], id="numpy-bool-in-row"),
        pytest.param([[0, 1, 2.5]], id="float-in-ragged-row"),
    ],
)
def test_non_integer_edge_targets_raise(layer):
    with pytest.raises(ValueError, match="integer"):
        _two_leaves(layer)


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(0.3, id="float"),
        pytest.param(np.float64(0.5), id="numpy-float"),
        pytest.param(True, id="bool"),
        pytest.param(np.True_, id="numpy-bool"),
    ],
)
def test_output_cells_that_are_not_exact_rationals_raise(cell):
    # rectangular rows go to a RationalTable, ragged ones are kept for validate
    for rows in ([(cell,), (Fraction(1),)], [(cell,), (Fraction(1), Fraction(2))]):
        with pytest.raises(ValueError, match="not an exact rational"):
            Robp.build(binary_alphabet(), [[[0, 1]]], rows)
    with pytest.raises(ValueError, match="not an exact rational"):
        constant_program(2, cell)


def test_a_float_output_decides_no_verdict():
    # read at its binary value, 0.3 would put the halfwidth 2 - 0.3 just past 17/10
    assert verify(constant_program(2, Fraction(3, 10)), binary_alphabet(), Fraction(17, 10)).valid
    with pytest.raises(ValueError, match="not an exact rational"):
        verify(constant_program(2, 0.3), binary_alphabet(), Fraction(17, 10))


@pytest.mark.parametrize(
    "layer",
    [
        pytest.param(np.array([[0, 2**32 + 1]], dtype=np.int64), id="int64-array"),
        pytest.param(np.array([[0, 2**64 - 1]], dtype=np.uint64), id="uint64-array"),
        pytest.param([[0, 2**32 + 1]], id="int-in-row"),
        pytest.param([[0, -(2**31) - 1]], id="negative-int-in-row"),
        pytest.param([[0, 2**70]], id="int-past-int64"),
    ],
)
def test_edge_targets_outside_int32_are_kept_for_validate(layer):
    p = _two_leaves(layer)
    assert p.edges[0] == [[int(v) for v in row] for row in layer]
    assert validate(p).violations == ((0, 0, "edge target outside next layer"),)


def test_integer_edge_arrays_become_read_only_int32():
    for dtype in (np.int16, np.int64, np.uint64):
        p = _two_leaves(np.array([[0, 1]], dtype=dtype))
        assert p.edges[0].dtype == np.int32 and not p.edges[0].flags.writeable
        assert validate(p).valid


def test_a_callers_array_stays_writeable_and_apart_from_the_program():
    a = np.array([[0, 1]], dtype=np.int32)
    p = _two_leaves(a)
    assert a.flags.writeable
    a[0, 1] = 0
    assert p.edges[0].tolist() == [[0, 1]]
    assert validate(p).valid
    frozen = np.array([[0, 1]], dtype=np.int32)
    frozen.flags.writeable = False
    assert _two_leaves(frozen).edges[0] is frozen


def test_a_read_only_view_of_a_writeable_array_is_copied():
    a = np.array([[0, 1]], dtype=np.int32)
    view = a.view()
    view.flags.writeable = False
    p = _two_leaves(view)
    assert validate(p).valid
    a[0, 1] = 0
    assert p.edges[0].tolist() == [[0, 1]]
    # the report validate kept on p still holds
    assert validate(p) == robp_module._build_report(p) and validate(p).valid
    # a read-only view of a read-only array cannot change, so it is kept
    owner = np.array([[0, 1], [1, 0]], dtype=np.int32)
    owner.flags.writeable = False
    assert _two_leaves(owner[:1]).edges[0].base is owner


def test_validate_keeps_its_report_on_the_program():
    p = exact_counter(5, 3)
    assert validate(p) is validate(p)
    assert validate(p) == robp_module._build_report(p)


def test_a_program_with_list_rows_is_validated_afresh():
    p = Robp(1, binary_alphabet(), [1, 2], [[[0, 1, 1]]], [(Fraction(0),), (Fraction(1),)])
    assert not validate(p).valid
    p.edges[0][0].pop()
    assert p.edges[0] == [[0, 1]]
    assert validate(p).valid and validate(p) == robp_module._build_report(p)


@pytest.mark.parametrize(
    "field, value",
    [
        ("layer_sizes", (1, 2, 3, 5)),
        ("n", 4),
        ("edges", ()),
        ("outputs", RationalTable([[0]], [[1]])),
        ("alphabet", counter_alphabet(3)),
        ("_report", None),
    ],
)
def test_a_program_refuses_new_fields(field, value):
    q = exact_counter(3, 2)
    assert validate(q).valid
    with pytest.raises(AttributeError):
        setattr(q, field, value)
    with pytest.raises(AttributeError):
        delattr(q, field)
    assert validate(q).valid and validate(q) == robp_module._build_report(q)


@pytest.mark.parametrize("field", ["num", "den"])
def test_a_programs_outputs_refuse_new_fields(field):
    q = exact_counter(3, 2)
    assert validate(q).valid
    with pytest.raises(AttributeError):
        setattr(q.outputs, field, np.zeros(q.outputs.shape, np.int64))
    with pytest.raises(AttributeError):
        delattr(q.outputs, field)
    with pytest.raises(ValueError):
        getattr(q.outputs, field)[0, 0] = 7
    assert validate(q).valid and validate(q) == robp_module._build_report(q)


def test_a_program_copies_and_pickles():
    import copy
    import pickle

    p = exact_counter(3, 2)
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and validate(q).valid
        assert all(not layer.flags.writeable for layer in q.edges)
        assert not q.outputs.num.flags.writeable and not q.outputs.den.flags.writeable


def test_programs_with_more_edge_layers_differ():
    outputs = [(Fraction(0),), (Fraction(1),)]
    p = Robp(1, binary_alphabet(), [1, 2], [[[0, 1]]], outputs)
    q = Robp(1, binary_alphabet(), [1, 2], [[[0, 1]], [[0, 0], [1, 1]]], outputs)
    assert validate(p).valid and not validate(q).valid
    assert p != q and q != p


def test_programs_compare_their_output_values():
    edges = [[[0, 1]]]
    table = Robp.build(binary_alphabet(), edges, [(Fraction(1, 2),), (Fraction(3),)])
    as_object = Robp.build(
        binary_alphabet(),
        edges,
        RationalTable(np.array([[1], [3]], dtype=object), np.array([[2], [1]], dtype=object)),
    )
    assert table.outputs.num.dtype == np.int64 and as_object.outputs.num.dtype == object
    assert table == as_object and as_object == table
    assert table != Robp.build(binary_alphabet(), edges, [(Fraction(1, 2),), (Fraction(4),)])
    ragged_rows = [(Fraction(1, 2),), (Fraction(3), Fraction(1))]
    ragged = Robp.build(binary_alphabet(), edges, ragged_rows)
    assert isinstance(ragged.outputs, tuple)
    assert ragged == Robp.build(binary_alphabet(), edges, ragged_rows)
    assert ragged != table and table != ragged


def test_validate_reports_ragged_outputs():
    p = Robp(
        1,
        binary_alphabet(),
        [1, 2],
        [[[0, 1]]],
        [(Fraction(0),), (Fraction(1), Fraction(2))],
    )
    rep = validate(p)
    assert any("arity" in r for (_, _, r) in rep.violations)
    # ragged outputs are tuples of tuples, so the report is kept
    assert validate(p) is rep


@pytest.mark.parametrize(
    "alphabet, arity",
    [
        pytest.param(counter_alphabet(3), 0, id="counter-3-arity-0"),
        pytest.param(counter_alphabet(3), 2, id="counter-3-arity-2"),
        pytest.param(counter_alphabet(3), 4, id="counter-3-arity-4"),
        pytest.param(binary_alphabet(), 2, id="binary-arity-2"),
        pytest.param(parallel_alphabet(2), 1, id="parallel-2-arity-1"),
    ],
)
def test_validate_reports_an_output_arity_other_than_the_alphabets(alphabet, arity):
    p = Robp.build(alphabet, [[[0] * alphabet.size]], [(Fraction(0),) * arity])
    assert validate(p).violations == ((1, -1, f"output arity {arity}, expected {alphabet.arity}"),)


def test_validate_reports_no_arity_for_outputs_without_rows():
    p = Robp(1, counter_alphabet(3), [1, 1], [[[0, 0, 0]]], [])
    assert validate(p).violations == ((1, -1, "0 output tuples for 1 final vertices"),)


_BINARY = binary_alphabet()


@pytest.mark.parametrize(
    "p, x",
    [
        pytest.param(Robp.build(_BINARY, [[[0, 5]]], [(0,)]), [1], id="target-outside-next-layer"),
        pytest.param(
            Robp(2, _BINARY, [1, 1, 1], [[[0, 0]]], [(0,)]), [0, 0], id="missing-edge-layer"
        ),
        pytest.param(Robp(1, _BINARY, [1, 2], [[[0, 1]]], [(0,)]), [1], id="too-few-output-rows"),
    ],
)
def test_evaluate_and_exhaustive_verify_refuse_invalid_programs(p, x):
    with pytest.raises(ValueError, match="program is invalid"):
        evaluate(p, x)
    with pytest.raises(ValueError, match="program is invalid"):
        exhaustive_verify(p, _BINARY, 0)


def test_validate_does_no_work_for_declared_vertices_no_row_backs():
    # one edge row and one output row, but a million declared final vertices:
    # reachability would list all but one of them as unreachable
    text = (
        '{"alphabet":{"k":1,"kind":"binary"},"edges":[[[0,0]]],'
        '"layers":[1,1000000],"n":1,"outputs":[["0"]]}'
    )
    rep = validate(read_robp(text))
    assert not rep.valid and rep.width == 1_000_000
    assert rep.violations == ((1, -1, "1 output tuples for 1000000 final vertices"),)


@pytest.mark.parametrize("n, edges", [(0, []), (1, [[[0, 0]]])])
def test_validate_reports_outputs_without_layer_sizes(n, edges):
    rep = validate(Robp(n, binary_alphabet(), [], edges, [(Fraction(0),)]))
    assert not rep.valid and rep.width == 0
    assert (n, -1, "1 output tuples for 0 final vertices") in rep.violations


def test_evaluate_exact_counter_path():
    p = exact_counter(3, 2)
    out, path = evaluate(p, (1, 0, 1))
    assert out == (Fraction(1), Fraction(2))  # one letter 1, two letter 2s
    assert path == [0, 1, 1, 2]


def test_evaluate_constant_midpoint():
    from robpcount import constant_program

    p = constant_program(4, Fraction(2))
    for x in [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0)]:
        out, path = evaluate(p, x)
        assert out == (Fraction(2),)
        assert path == [0] * 5


def test_evaluate_errors():
    p = exact_counter(3, 2)
    with pytest.raises(ValueError):
        evaluate(p, (0, 1))
    with pytest.raises(ValueError):
        evaluate(p, (0, 1, 2))
    q = exact_counter(2, 2)
    # a cast would read 1.9 as 1 and True as 1
    for x in ([1.9, 0.2], [True, 0], [1, np.bool_(False)], [1.0, 0], np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="not an integer"):
            evaluate(q, x)
    for x in ([np.int64(1), np.int8(0)], np.array([1, 0], dtype=np.uint16)):
        assert evaluate(q, x) == evaluate(q, [1, 0])


def test_evaluate_path_respects_edges():
    rng = random.Random(7)
    for seed in range(25):
        alphabet = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        n = rng.randint(1, 7)
        p = random_robp(n, alphabet, rng.randint(1, 4), seed)
        x = [rng.randrange(alphabet.size) for _ in range(n)]
        _, path = evaluate(p, x)
        assert len(path) == n + 1
        for t in range(n):
            assert p.edge_array(t)[path[t], x[t]] == path[t + 1]


def test_roundtrip_exact_counter():
    p = exact_counter(2, 2)
    assert read_robp(write_robp(p)) == p


def _reference_text(p):
    """The serialization as one json.dumps over Python lists, the
    straightforward form write_robp must match byte for byte."""
    edges = [e.tolist() if isinstance(e, np.ndarray) else e for e in p.edges]
    outputs = [[str(v) for v in row] for row in p.output_rows()]
    doc = {
        "n": p.n,
        "alphabet": {"kind": p.alphabet.kind, "k": p.alphabet.k},
        "layers": list(p.layer_sizes),
        "edges": edges,
        "outputs": outputs,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _kinds(p):
    """What each edge layer and the output table are stored as."""
    return (
        [e.dtype if isinstance(e, np.ndarray) else type(e) for e in p.edges],
        p.outputs.num.dtype if isinstance(p.outputs, RationalTable) else type(p.outputs),
    )


def _outcome(text):
    try:
        p = read_robp(text)
    except RobpParseError as e:
        return str(e)
    return p, _kinds(p)


def _walk_outcome(text, monkeypatch):
    """The outcome with the scanner off, so that json.loads reads the text,
    and with every layer and the outputs sent through the walk."""
    with monkeypatch.context() as m:
        m.setattr(robp_module, "_scan", lambda text: None)
        m.setattr(robp_module, "_bulk_outputs", lambda rows: None)
        return _outcome(text)


def _scanned(text):
    """True if read_robp's scanner takes the text: an ASCII str is encoded
    first, as read_robp does, and a non-ASCII one never reaches it."""
    if isinstance(text, str):
        return text.isascii() and _scanned(text.encode())
    return robp_module._scan(text) is not None


def _same_outcome(text, monkeypatch):
    """The text as str, bytes and bytearray reads as it does with the
    scanner and the bulk outputs off; True if the scanner took it."""
    for given in (text, text.encode(), bytearray(text.encode())):
        assert _outcome(given) == _walk_outcome(given, monkeypatch)
    assert _scanned(text) == _scanned(text.encode())
    return _scanned(text)


def test_roundtrip_random_programs(monkeypatch):
    rng = random.Random(11)
    for seed in range(36):
        alphabet = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        p = random_robp(rng.randint(0, 8), alphabet, rng.choice([1, 3, 40, 200]), seed)
        text = write_robp(p)
        assert text == _reference_text(p)
        assert read_robp(text) == p
        assert _same_outcome(text, monkeypatch)


def _negative_and_wide_values():
    edges = [np.arange(-300, 300, dtype=np.int32).reshape(300, 2)]
    outputs = [(Fraction(-7, 3), Fraction(2**70, 3))] * 2
    return Robp(1, counter_alphabet(2), [300, 2], edges, outputs)


def _targets(count, symbols, values=(0, 1)):
    """One edge layer of count targets, cycling through values."""
    edges = [np.resize(np.array(values, np.int32), count).reshape(-1, symbols)]
    return Robp(1, counter_alphabet(symbols), [count // symbols, 2], edges, [(0,) * symbols] * 2)


_INT32_ENDS = (np.iinfo(np.int32).min, -1, 0, np.iinfo(np.int32).max)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: exact_counter(6, 3), id="exact(6,3)"),
        # layers of up to 1540 x 4 targets, past the writer's 256-target switch
        pytest.param(lambda: exact_counter(20, 4), id="exact(20,4)"),
        pytest.param(lambda: rounded_counter(100, 3, 10), id="rounded(100,3,10)"),
        pytest.param(lambda: tribes(100, 4), id="tribes(100,4)"),
        pytest.param(_negative_and_wide_values, id="negative-and-wide"),
        pytest.param(lambda: Robp(0, binary_alphabet(), [1], [], [(Fraction(7, 2),)]), id="n=0"),
        # either side of the writer's switch at 256 targets
        pytest.param(lambda: _targets(255, 3), id="255-targets"),
        pytest.param(lambda: _targets(256, 2), id="256-targets"),
        pytest.param(lambda: _targets(8, 2, _INT32_ENDS), id="int32-ends-thin"),
        pytest.param(lambda: _targets(512, 2, _INT32_ENDS), id="int32-ends-wide"),
    ],
)
def test_write_matches_the_reference_text(build, monkeypatch):
    p = build()
    assert write_robp(p) == _reference_text(p)
    assert read_robp(write_robp(p)) == p
    assert _same_outcome(write_robp(p), monkeypatch)


def _constructions():
    """Every construction, and seeded random programs over each alphabet."""
    programs = [
        exact_counter(6, 3),
        exact_counter(20, 4),
        rounded_counter(100, 3, 10),
        rounded_counter(100, 2, 10),
        tribes(100, 4),
        tribes(60, 3, "optimal"),
        constant_program(5, [Fraction(7, 2), Fraction(-3)]),
        _negative_and_wide_values(),
        _targets(512, 2, _INT32_ENDS),
    ]
    rng = random.Random(12)
    for seed in range(24):
        alphabet = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        programs.append(random_robp(rng.randint(0, 8), alphabet, rng.choice([1, 3, 40, 200]), seed))
    return programs


def test_write_and_read_agree_on_both_kernel_paths(numpy_kernels, monkeypatch):
    programs = _constructions()
    texts = [_reference_text(p) for p in programs]
    walked = [_walk_outcome(text, monkeypatch) for text in texts]
    paths = ["C"] if _kernel.library() is not None else []
    for path in paths + ["numpy"]:
        if path == "numpy":
            numpy_kernels()
        for p, text, walk in zip(programs, texts, walked):
            assert write_robp(p) == text, path
            for given in (text, text.encode(), (text + "\n").encode()):
                assert _scanned(given), path
                assert _outcome(given) == walk and walk[0] == p, path


def _mutations(text: bytes):
    """Every truncation, single-byte deletion and single-byte substitution
    (by a byte of the JSON grammar or one outside it) of text."""
    for i in range(len(text)):
        yield text[:i]
        yield text[:i] + text[i + 1 :]
        for b in b'0123456789-+,[]{}":/ .ae\\\x00\xff':
            if b != text[i]:
                yield text[:i] + bytes([b]) + text[i + 1 :]


def test_every_one_byte_edit_reads_as_json_loads_reads_it(numpy_kernels, monkeypatch):
    edges = [np.array([[0, 1]], np.int32), np.array([[1, 0], [-1, 2147483647]], np.int32)]
    p = Robp(2, counter_alphabet(2), [1, 2, 3], edges, [(Fraction(7, 2), Fraction(-1))] * 3)
    texts = list(_mutations(write_robp(p).encode()))
    walked = [_walk_outcome(text, monkeypatch) for text in texts]
    paths = ["C"] if _kernel.library() is not None else []
    for path in paths + ["numpy"]:
        if path == "numpy":
            numpy_kernels()
        scanned = 0
        for text, walk in zip(texts, walked):
            assert _outcome(text) == walk, (path, text)
            scanned += _scanned(text)
        # digits swapped for digits and the like still read canonically
        assert scanned > 200, path


def test_bulk_reading_runs_on_written_programs(monkeypatch):
    def walked(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(robp_module, "_walk_edge_layer", walked)
    monkeypatch.setattr(robp_module, "_walk_outputs", walked)
    for p in (exact_counter(6, 3), rounded_counter(100, 3, 10), tribes(1000, 8)):
        text = write_robp(p)
        # the CLI writes a newline after the text
        for given in (text, text.encode(), (text + "\n").encode()):
            assert _scanned(given)
            q = read_robp(given)
            assert q == p and all(not e.flags.writeable for e in q.edges)


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


_EDITS = [
    pytest.param(_set(("extra",), True), id="bool-top-level"),
    pytest.param(_set(("edges", 1, 0, 0), False), id="bool-nested"),
    pytest.param(_set(("outputs", 0, 0), True), id="bool-output"),
    pytest.param(_set(("edges", -1, -1), [0, True]), id="bool-last-layer"),
    pytest.param(_set(("edges", 1, 1, 0), 1.0), id="target-1.0"),
    pytest.param(_set(("edges", 1, 1, 0), 1.5), id="target-1.5"),
    pytest.param(_set(("edges", 1, 1, 0), None), id="target-null"),
    pytest.param(_set(("edges", 1, 1, 0), "1"), id="target-string"),
    pytest.param(_set(("edges", 1, 1), [0]), id="ragged-rows"),
    pytest.param(_set(("edges", 1, 1), [[0, 1], [1, 2]]), id="three-deep"),
    pytest.param(_set(("edges", 1), []), id="empty-layer"),
    pytest.param(_set(("edges", 1, 1), []), id="empty-row"),
    pytest.param(_set(("edges", 1), {}), id="layer-object"),
    pytest.param(_set(("edges", 1, 1, 0), 2**31), id="target-2**31"),
    pytest.param(_set(("edges", 1, 1, 0), 2**70), id="target-2**70"),
    pytest.param(_set(("edges", 1, 1, 0), -1), id="target-negative"),
    pytest.param(_set(("edges", 1, 1, 0), -(2**31) - 1), id="target-below-int32"),
    pytest.param(_set(("outputs", 1, 0), " 3"), id="output-space"),
    pytest.param(_set(("outputs", 1, 0), "+3"), id="output-plus"),
    pytest.param(_set(("outputs", 1, 0), "-0"), id="output-minus-zero"),
    pytest.param(_set(("outputs", 1, 0), "2/4"), id="output-unreduced"),
    pytest.param(_set(("outputs", 1, 0), "1/0"), id="output-zero-denominator"),
    pytest.param(_set(("outputs", 1, 0), "1.5"), id="output-decimal"),
    pytest.param(_set(("outputs", 1, 0), "1\n2"), id="output-newline"),
    pytest.param(_set(("outputs", 1, 0), str(2**70)), id="output-2**70"),
    pytest.param(_set(("outputs", 1, 0), f"{2**70}/3"), id="output-2**70/3"),
    pytest.param(_set(("outputs", 1, 0), 3), id="output-not-a-string"),
    pytest.param(_set(("outputs", 1), ["1"]), id="output-ragged"),
    pytest.param(_set(("outputs", 1), "12"), id="output-row-string"),
    pytest.param(_set(("outputs",), []), id="outputs-empty"),
]


@pytest.mark.parametrize("edit", _EDITS)
def test_bulk_reading_matches_the_walk(edit, monkeypatch):
    doc = json.loads(write_robp(exact_counter(4, 2)))
    edit(doc)
    # json.loads reads the first spelling; the scanner may take the second
    for text in (json.dumps(doc), json.dumps(doc, separators=(",", ":"), sort_keys=True)):
        _same_outcome(text, monkeypatch)


_BASE = write_robp(exact_counter(4, 2))
_LAYER_1 = "[[0,1],[1,2]],"


def _replace(old, new):
    assert _BASE.count(old) == 1
    return _BASE.replace(old, new)


@pytest.mark.parametrize(
    "text, scanned",
    [
        pytest.param(_BASE, True, id="as-written"),
        pytest.param(_replace(_LAYER_1, "[[0,2147483647],[1,2]],"), True, id="target-2**31-1"),
        pytest.param(_replace(_LAYER_1, "[[-2147483648,1],[1,2]],"), True, id="target--2**31"),
        pytest.param(_replace(_LAYER_1, "[[0,2147483648],[1,2]],"), False, id="target-2**31"),
        pytest.param(_replace(_LAYER_1, "[[-2147483649,1],[1,2]],"), False, id="target--2**31-1"),
        pytest.param(_replace(_LAYER_1, "[[0,01],[1,2]],"), False, id="target-01"),
        pytest.param(_replace(_LAYER_1, "[[-0,1],[1,2]],"), False, id="target--0"),
        pytest.param(_replace(_LAYER_1, "[[0,+1],[1,2]],"), False, id="target-+1"),
        pytest.param(_replace(_LAYER_1, "[[0,true],[1,2]],"), False, id="target-true"),
        pytest.param(_replace(_LAYER_1, "[],"), False, id="empty-layer"),
        pytest.param(_replace(_LAYER_1, "[[0,1],[]],"), False, id="empty-row"),
        pytest.param(_replace(_LAYER_1, "[[0,1],[1,2,3]],"), False, id="long-row"),
        pytest.param(_replace(_LAYER_1, "[[0,1]],"), False, id="short-layer"),
        pytest.param(_replace(_LAYER_1, "[[0,1],[1,2]]]],"), False, id="unbalanced"),
        pytest.param(_BASE + "\n", True, id="trailing-newline"),
        pytest.param(_BASE + " \t\r\n\n", True, id="trailing-json-whitespace"),
        pytest.param(_BASE + "\x0c", False, id="trailing-form-feed"),
        pytest.param(" " + _BASE, False, id="leading-space"),
        pytest.param(_replace(_LAYER_1, "[[0,1],[1, 2]],"), False, id="space-in-edges"),
        pytest.param(_replace("[1,2,3,4,5]", "[1, 2,3,4,5]"), False, id="space-in-layers"),
        pytest.param(_replace('"layers":[1,2,3,4,5],"n":4', '"n":4,"layers":[1,2,3,4,5]'),
                     False, id="reordered-keys"),
        pytest.param(_replace(',"layers"', ',"edges":[],"layers"'), False, id="edges-twice-empty"),
        pytest.param(_replace(',"layers"', ',"edges":[[[0,1]]],"layers"'), False, id="edges-twice"),
        pytest.param(_BASE[:-1] + ',"outputs":[["1","1"]]}', False, id="outputs-twice"),
        pytest.param(_replace('{"k"', '{"edges":[[[0,0]]],"k"'), False, id="edges-in-alphabet"),
        pytest.param(_BASE[:-1] + ',"\\u00e9":1}', True, id="escaped-key"),
        pytest.param(_BASE[:-1] + ',"\u00e9":1}', False, id="non-ascii-key"),
        pytest.param(_replace('"n":4', '"n":-1'), True, id="n-negative"),
        pytest.param(_replace('"n":4', '"n":4.0'), True, id="n-float"),
        pytest.param(_replace('"k":2', '"k":1'), False, id="k-refused"),
        pytest.param(_replace('"layers":[1,2,3,4,5]', '"layers":[1,2,3,4]'), True, id="layers-short"),
        pytest.param(_replace('"layers":[1,2,3,4,5]', '"layers":[1,3,3,4,5]'), False, id="layers-wrong"),
        pytest.param(_replace('"layers":[1,2,3,4,5]', '"layers":[true,2,3,4,5]'), False, id="layers-true"),
        pytest.param(_replace('["4","0"]', '["4",true]'), True, id="output-true"),
        pytest.param(_BASE[: len(_BASE) // 2], False, id="truncated"),
        # an output table nested in another field is not the document's
        pytest.param(_replace(',"n":4', ',"m":{"a":1,"outputs":[["9","9"]]},"n":4'), True,
                     id="outputs-nested-before"),
        pytest.param(_BASE[:-1] + ',"z":{"a":1,"outputs":[["9","9"]]}}', True, id="outputs-nested-after"),
        pytest.param(_replace('["4","0"]', '["4","0/5"]'), True, id="output-unreduced-zero"),
        pytest.param(_replace('["4","0"]', '["-0","007"]'), True, id="output-minus-zero-and-zeros"),
    ],
)
def test_scanning_matches_json_loads(text, scanned, monkeypatch):
    assert _same_outcome(text, monkeypatch) is scanned


@pytest.mark.parametrize("batch_chars", [0, 1, 40])
def test_scanning_in_small_batches(batch_chars, monkeypatch, numpy_kernels):
    # the batches are the numpy scanner's, which runs without a C library
    numpy_kernels()
    programs = [tribes(100, 4), exact_counter(20, 3)]
    rng = random.Random(3)
    for seed in range(12):
        alphabet = [binary_alphabet(), counter_alphabet(3), parallel_alphabet(2)][seed % 3]
        programs.append(random_robp(rng.randint(0, 8), alphabet, rng.choice([1, 3, 40]), seed))
    monkeypatch.setattr(_kernel, "_BATCH_CHARS", batch_chars)
    for p in programs:
        assert _same_outcome(write_robp(p), monkeypatch)
        assert read_robp(write_robp(p)) == p


_FULLMATCH_CELLS = re.compile(rf"(?:{robp_module._CELL}\n)*{robp_module._CELL}")


def test_the_cell_check_accepts_what_a_fullmatch_of_every_line_does():
    doc = json.loads(_BASE)
    texts = []
    for edit in _EDITS:
        if edit.id.startswith("output"):
            edited = json.loads(_BASE)
            edit.values[0](edited)
            cells = [c for row in edited["outputs"] if isinstance(row, list) for c in row]
            texts.append("\n".join(c for c in cells if isinstance(c, str)))
    texts.append("\n".join(c for row in doc["outputs"] for c in row))
    rng = random.Random(5)
    pieces = ["0", "7", "12", "9" * 17, "9" * 18, "-", "/", "\n", "+", " "]
    for _ in range(20000):
        texts.append("".join(rng.choices(pieces, k=rng.randint(0, 6))))
    accepted = 0
    for text in texts:
        old = _FULLMATCH_CELLS.fullmatch(text) is not None
        assert (robp_module._NOT_A_CELL.search(text) is None) is old, repr(text)
        accepted += old
    assert accepted > 1000


@pytest.mark.parametrize("target", [2**31, 2**70, -(2**31) - 1])
def test_read_keeps_an_out_of_range_target_for_validate(target):
    doc = json.loads(write_robp(exact_counter(2, 2)))
    doc["edges"][1][1][0] = target
    p = read_robp(json.dumps(doc))
    assert p.edges[1] == [[0, 1], [target, 2]]
    assert validate(p).violations == ((1, 1, "edge target outside next layer"),)


def test_read_refuses_bytes_that_are_not_utf8():
    with pytest.raises(RobpParseError, match="not UTF-8"):
        read_robp(b'{"n": 0, "\xff": 1}')


_DEEP = "[" * 100_000
_CANONICAL_HEAD = (
    '{"alphabet":{"k":1,"kind":"binary"},"edges":[[[0,0]]],"layers":[1,1],"n":1,"outputs":'
)


@pytest.mark.parametrize("text", [_DEEP, _CANONICAL_HEAD + _DEEP], ids=["bare", "canonical-head"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_read_reports_nesting_too_deep_as_a_parse_error(text, as_bytes):
    with pytest.raises(RobpParseError, match="nested too deeply"):
        read_robp(text.encode() if as_bytes else text)


def test_roundtrip_rational_output():
    p = Robp(0, binary_alphabet(), [1], [], [(Fraction(7, 2),)])
    q = read_robp(write_robp(p))
    assert q.output_tuple(0) == (Fraction(7, 2),)
    assert '"7/2"' in write_robp(p)


def test_parse_error_truncated():
    text = write_robp(exact_counter(2, 2))
    with pytest.raises(RobpParseError):
        read_robp(text[: len(text) // 2])


def test_parse_error_reports_field():
    with pytest.raises(RobpParseError, match="alphabet"):
        read_robp('{"n": 1, "alphabet": {"kind": "nope"}, "layers": [1, 1], "edges": [], "outputs": []}')
    with pytest.raises(RobpParseError, match="outputs"):
        read_robp(
            '{"n": 0, "alphabet": {"kind": "binary", "k": 1}, "layers": [1],'
            ' "edges": [], "outputs": [["1.5"]]}'
        )


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param({"n": True}, "n: expected a nonnegative integer", id="n"),
        pytest.param(
            {"alphabet": {"kind": "binary", "k": True}}, "alphabet.k: expected an integer",
            id="alphabet.k",
        ),
        pytest.param({"layers": [True, 1]}, "layers: expected a list of integers", id="layers"),
        pytest.param({"edges": [[[0, True]]]}, "edges[0][0][1]: expected an integer", id="edges"),
    ],
)
def test_parse_rejects_json_booleans(doc, message):
    base = {
        "n": 1,
        "alphabet": {"kind": "binary", "k": 1},
        "layers": [1, 1],
        "edges": [[[0, 0]]],
        "outputs": [["0"]],
    }
    assert validate(read_robp(json.dumps(base))).valid
    with pytest.raises(RobpParseError) as err:
        read_robp(json.dumps({**base, **doc}))
    assert str(err.value) == message


def test_parse_defers_semantics_to_validate():
    # wrong out-degree parses fine; validate reports it
    doc = (
        '{"n": 1, "alphabet": {"kind": "binary", "k": 1}, "layers": [1, 1],'
        ' "edges": [[[0]]], "outputs": [["0"]]}'
    )
    p = read_robp(doc)
    assert not validate(p).valid


def test_width_equals_max_layer():
    for seed in range(10):
        p = random_robp(6, binary_alphabet(), 4, seed)
        assert p.width == max(validate(p).layer_sizes)
