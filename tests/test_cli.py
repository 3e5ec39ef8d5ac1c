import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import robpcount
from robpcount import read_robp, tribes
from robpcount.cli import main

# child processes import the same robpcount as this test run, installed or not
SRC = str(Path(robpcount.__file__).resolve().parent.parent)
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bounds_ruled_out(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "90", "--k", "2", "--w", "4", "--delta", "30")
    doc = json.loads(out)
    assert code == 1
    assert doc["m"] == 3 and doc["lhs"] == "354" and doc["rhs"] == "465"
    assert doc["verdict"] == "ruled_out"


def test_bounds_consistent(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "90", "--k", "2", "--w", "6", "--delta", "30")
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"


def test_bounds_rejects_float_delta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "90", "--k", "2", "--w", "4", "--delta", "30.5"])
    assert exc.value.code == 2


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required flags
    assert exc.value.code == 2


def test_build_validate_verify_pipeline(tmp_path, capsys):
    path = tmp_path / "tribes.json"
    code, _ = run_cli(
        capsys, "build", "--kind", "tribes", "--n", "100", "--w", "4", "-o", str(path)
    )
    assert code == 0
    code, out = run_cli(capsys, "validate", "-i", str(path))
    assert code == 0 and json.loads(out)["width"] == 4
    code, out = run_cli(
        capsys, "verify", "-i", str(path), "--problem", "binary", "--delta", "49"
    )
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = run_cli(
        capsys, "verify", "-i", str(path), "--problem", "binary", "--delta", "40"
    )
    assert code == 1 and json.loads(out)["valid"] is False


def test_validate_reports_an_edge_target_outside_int32(tmp_path, capsys):
    doc = {
        "n": 1,
        "alphabet": {"kind": "binary", "k": 1},
        "layers": [1, 2],
        "edges": [[[0, 2**32 + 1]]],
        "outputs": [["0"], ["1"]],
    }
    path = tmp_path / "wide-target.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "-i", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [[0, 0, "edge target outside next layer"]]


def test_validate_reports_outputs_of_the_wrong_arity(tmp_path, capsys):
    doc = json.loads(robpcount.write_robp(robpcount.exact_counter(3, 2)))
    doc["outputs"] = [[] for _ in doc["outputs"]]
    path = tmp_path / "no-outputs.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "-i", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [[3, -1, "output arity 0, expected 2"]]


def test_pipeline_through_stdin():
    build = subprocess.run(
        [sys.executable, "-m", "robpcount.cli", "build", "--kind", "tribes",
         "--n", "100", "--w", "4"],
        capture_output=True, text=True, check=True, env=CHILD_ENV,
    )
    verify = subprocess.run(
        [sys.executable, "-m", "robpcount.cli", "verify", "--problem", "binary",
         "--delta", "49"],
        input=build.stdout, capture_output=True, text=True, env=CHILD_ENV,
    )
    assert verify.returncode == 0
    assert json.loads(verify.stdout)["valid"] is True


def test_the_output_ends_before_the_interpreter_does():
    # an exit handler that sleeps stands in for a slow teardown: the reader
    # sees the end of the program text while the writer still runs
    script = (
        "import atexit, sys, time; atexit.register(time.sleep, 1);"
        "sys.argv = ['robpcount', 'build', '--kind', 'tribes', '--n', '100', '--w', '4'];"
        "from robpcount.cli import run; run()"
    )
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=CHILD_ENV) as build:
        text = build.stdout.read()
        running = build.poll() is None
    assert running and build.returncode == 0
    assert read_robp(text) == tribes(100, 4)


def test_a_reader_gone_away_is_an_error():
    with subprocess.Popen(
        [sys.executable, "-m", "robpcount.cli", "build", "--kind", "exact", "--n", "20", "--k", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    ) as build:
        build.stdout.close()
        err = build.stderr.read().decode()
    assert build.returncode == 2 and err == "error: [Errno 32] Broken pipe\n"


def test_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    text = '{"n": 0, "alphabet": {"kind": "binary"}, "layers": [1], "edges": [], "outputs": [["\xe9"]]}'
    message = f"error: byte {text.index(chr(0xE9))}: not UTF-8 text\n"
    path = tmp_path / "latin-1.json"
    path.write_bytes(text.encode("latin-1"))
    code = main(["validate", "-i", str(path)])
    assert code == 2 and capsys.readouterr().err == message
    piped = subprocess.run(
        [sys.executable, "-m", "robpcount.cli", "validate"],
        input=text.encode("latin-1"), capture_output=True, env=CHILD_ENV,
    )
    assert piped.returncode == 2 and piped.stderr.decode() == message


def test_build_exact_and_labels(tmp_path, capsys):
    path = tmp_path / "exact.json"
    run_cli(capsys, "build", "--kind", "exact", "--n", "2", "--k", "2", "-o", str(path))
    code, out = run_cli(capsys, "labels", "-i", str(path), "--mode", "full")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "layer,vertex,lo_1,lo_2,hi_1,hi_2"
    assert lines[1] == "0,0,0,0,0,0"
    assert len(lines) == 1 + 1 + 2 + 3


def test_potential_labels_are_first_columns_of_full(tmp_path, capsys):
    path = tmp_path / "exact.json"
    run_cli(capsys, "build", "--kind", "exact", "--n", "3", "--k", "3", "-o", str(path))
    code, full = run_cli(capsys, "labels", "-i", str(path), "--mode", "full")
    assert code == 0
    code, potential = run_cli(capsys, "labels", "-i", str(path), "--mode", "potential")
    assert code == 0
    full_rows = [line.split(",") for line in full.strip().splitlines()]
    potential_rows = [line.split(",") for line in potential.strip().splitlines()]
    assert potential_rows[0] == ["layer", "vertex", "lo_1", "lo_2", "hi_1", "hi_2"]
    assert len(potential_rows) == len(full_rows) == 1 + 1 + 3 + 6 + 10
    # full columns: layer, vertex, lo_1..lo_3, hi_1..hi_3
    for prow, frow in zip(potential_rows[1:], full_rows[1:]):
        assert prow == frow[:4] + frow[5:7]


def test_audit_csv(tmp_path, capsys):
    path = tmp_path / "c.json"
    run_cli(capsys, "build", "--kind", "constant", "--n", "4", "--value", "2", "-o", str(path))
    code, out = run_cli(
        capsys, "audit", "-i", str(path), "--family", "counter", "--check", "both",
        "--delta", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lhs,rhs,slack,pass"
    assert lines[-1] == "4,10,10,0,true"


def test_audit_csv_parallel(tmp_path, capsys):
    from robpcount import Robp, compute_labels, parallel_alphabet, write_robp
    from robpcount.potential import audit_final_parallel, audit_growth_parallel

    # exact bit counter over the one-bit parallel alphabet: verifies at n/3
    n = 21
    edges = [[[u, u + 1] for u in range(t + 1)] for t in range(n)]
    p = Robp.build(parallel_alphabet(1), edges, [(Fraction(v),) for v in range(n + 1)])
    path = tmp_path / "par.json"
    path.write_text(write_robp(p))
    lp = compute_labels(p, "full")
    for check, reports in [
        ("growth", [audit_growth_parallel(lp, p.width)]),
        ("final", [audit_final_parallel(lp)]),
        ("both", [audit_growth_parallel(lp, p.width), audit_final_parallel(lp)]),
    ]:
        code, out = run_cli(
            capsys, "audit", "-i", str(path), "--family", "parallel", "--check", check
        )
        assert code == 0
        want = [
            f"{r.t},{Fraction(r.lhs)},{Fraction(r.rhs)},{Fraction(r.slack)},{str(r.passed).lower()}"
            for report in reports
            for r in report.rows
        ]
        assert out.strip().splitlines() == ["t,lhs,rhs,slack,pass"] + want


@pytest.mark.parametrize("check", ["final", "both"])
def test_audit_without_delta_is_a_usage_error(tmp_path, capsys, monkeypatch, check):
    from robpcount import cli

    path = tmp_path / "c.json"
    run_cli(capsys, "build", "--kind", "constant", "--n", "3", "--value", "1", "-o", str(path))
    # refused before the program is read or labelled
    monkeypatch.setattr(cli, "_read_program", lambda _: pytest.fail("program was read"))
    code = main(["audit", "-i", str(path), "--check", check])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: audit --family counter --check {check} needs --delta\n"


def test_sweep_csv(capsys):
    code, out = run_cli(
        capsys, "sweep", "--n", "90", "--k", "2", "--delta", "30",
        "--w-min", "4", "--w-max", "6",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,w,delta,m,lhs,rhs,verdict"
    assert lines[1] == "90,2,4,30,3,354,465,ruled_out"
    assert lines[3] == "90,2,6,30,5,525,465,consistent"


def test_frontier_csv(capsys):
    code, out = run_cli(capsys, "frontier", "--n-max", "3", "--w-max", "2")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,w,delta_num,delta_den,lb_num,lb_den"
    assert "2,2,1,2,," in rows


def test_fuzz_clean(capsys):
    code, out = run_cli(
        capsys, "fuzz", "--seeds", "15", "--n", "5", "--w", "3", "--problem", "binary"
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["failures"] == 0


def test_fuzz_refuses_an_over_budget_problem_before_generating_a_program(
    capsys, monkeypatch
):
    from robpcount import oracle

    monkeypatch.setattr(oracle, "random_robp", lambda *a: pytest.fail("program generated"))
    monkeypatch.setenv("ROBPCOUNT_MAX_INPUTS", "16")
    code = main(["fuzz", "--seeds", "1", "--n", "3", "--problem", "counter", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: 3**3 inputs are over ROBPCOUNT_MAX_INPUTS=16; raise it\n"


def test_mg_and_query(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("0 0 0 0 0 0 0 0 0 0 0 0\n")
    code, out = run_cli(capsys, "mg", "--k", "3", "--U", "10", "-i", str(stream))
    doc = json.loads(out)
    assert code == 0
    assert doc["elements"] == [0, 1, 2] and doc["estimates"] == [12, 0, 0]
    code, out = run_cli(
        capsys, "mg-query", "--k", "3", "--U", "10", "--query", "0", "-i", str(stream)
    )
    assert json.loads(out)["estimate"] == "14"


def test_plot_data_modes(capsys):
    code, out = run_cli(capsys, "plot-data", "--mode", "small-w", "--n", "1000",
                        "--w-min", "3", "--w-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "series,x,y"
    series = {ln.split(",")[0] for ln in lines[1:]}
    assert series == {"lower_bound", "upper_bound"}
    code, out = run_cli(capsys, "plot-data", "--mode", "frontier", "--n-max", "4",
                        "--w-max", "3")
    assert code == 0
    assert any(ln.startswith("oracle") for ln in out.splitlines()[1:])


def test_plot_data_frontier_takes_raised_budgets(capsys, monkeypatch):
    monkeypatch.setenv("ROBPCOUNT_FRONTIER_W", "5")
    code, out = run_cli(capsys, "plot-data", "--mode", "frontier", "--n-max", "2",
                        "--w-max", "5")
    assert code == 0
    assert "oracle,2:5,0" in out.splitlines()


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        '{"alphabet":{"k":1,"kind":"binary"},"edges":[[[0,0]]],"layers":[1,1],"n":1,"outputs":'
        + "[" * 100_000,
    ],
    ids=["bare", "canonical-head"],
)
def test_input_nested_too_deeply_exits_two(tmp_path, capsys, text):
    message = "error: document: nested too deeply to parse\n"
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(["validate", "-i", str(path)])
    assert code == 2 and capsys.readouterr().err == message
    piped = subprocess.run(
        [sys.executable, "-m", "robpcount.cli", "validate"],
        input=text.encode(), capture_output=True, env=CHILD_ENV,
    )
    assert piped.returncode == 2 and piped.stderr.decode() == message


def test_verify_a_program_without_edge_layers_over_a_wide_alphabet(tmp_path, capsys):
    path = tmp_path / "parallel40.json"
    path.write_text(
        '{"alphabet":{"k":40,"kind":"parallel"},"edges":[],"layers":[1],"n":0,'
        f'"outputs":[{json.dumps(["0"] * 40)}]}}'
    )
    code, out = run_cli(
        capsys, "verify", "-i", str(path), "--problem", "parallel", "--k", "40", "--delta", "0"
    )
    assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "argv, header, message",
    [
        (["frontier", "--n-max", "13", "--w-max", "1"], [],
         "--n-max 13 is over ROBPCOUNT_FRONTIER_N=12; raise it"),
        (["frontier", "--n-max", "2", "--w-max", "5"], [],
         "--w-max 5 is over ROBPCOUNT_FRONTIER_W=4; raise it"),
        (["plot-data", "--mode", "frontier", "--n-max", "13"], ["series,x,y"],
         "--n-max 13 is over ROBPCOUNT_FRONTIER_N=12; raise it"),
    ],
)
def test_a_frontier_sweep_over_budget_is_refused_before_any_row(
    capsys, monkeypatch, argv, header, message
):
    monkeypatch.delenv("ROBPCOUNT_FRONTIER_N", raising=False)
    monkeypatch.delenv("ROBPCOUNT_FRONTIER_W", raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out.splitlines() == header
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, header",
    [
        (["frontier", "--n-max", "-1", "--w-max", "2"], []),
        (["plot-data", "--mode", "frontier", "--n-max", "-1"], ["series,x,y"]),
    ],
)
def test_a_frontier_sweep_with_a_negative_n_max_is_refused(capsys, argv, header):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out.splitlines() == header
    assert captured.err == "error: need n >= 0, w >= 1\n"


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_a_budget_variable_that_is_not_a_count_names_itself(capsys, monkeypatch, value):
    monkeypatch.setenv("ROBPCOUNT_MAX_CELLS", value)
    code = main(["frontier", "--n-max", "2", "--w-max", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: ROBPCOUNT_MAX_CELLS must be a nonnegative integer, not {value!r}\n"
    )


def test_plot_data_small_w_takes_raised_budgets(capsys, monkeypatch):
    from types import SimpleNamespace

    from robpcount import oracle

    calls = []

    def frontier(n, w, **limits):
        calls.append((n, w, limits))
        return SimpleNamespace(delta_star=Fraction(7))

    monkeypatch.setattr(oracle, "frontier", frontier)
    monkeypatch.setenv("ROBPCOUNT_FRONTIER_N", "30")
    code, out = run_cli(capsys, "plot-data", "--mode", "small-w", "--n", "30",
                        "--w-min", "3", "--w-max", "3")
    assert code == 0
    assert "oracle,3,7" in out.splitlines()
    assert calls == [(30, 3, {"max_n": 30, "max_w": oracle.DEFAULT_FRONTIER_W})]


@pytest.mark.parametrize("step", ["0", "-1/2"])
def test_plot_data_rejects_a_step_that_never_ends_the_sweep(capsys, step):
    code = main(["plot-data", "--mode", "small-err", f"--delta-step={step}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out.splitlines() == ["series,x,y"]
    assert captured.err == f"error: --delta-step must be positive, got {step}\n"


def test_plot_data_rejects_an_empty_sweep(capsys):
    code = main(["plot-data", "--mode", "small-err", "--delta-min", "20", "--delta-max", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out.splitlines() == ["series,x,y"]
    assert captured.err == "error: empty sweep: --delta-min 20 is above --delta-max 10\n"


_ROUNDED_DOMAIN = "rounded_counter needs k >= 2, n >= 10k, 10 <= delta <= n/10"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plot-data", "--mode", "small-err", "--n", "100", "--k", "2",
          "--delta-min", "5", "--delta-max", "12"], _ROUNDED_DOMAIN),
        (["plot-data", "--mode", "small-err", "--n", "100", "--k", "2",
          "--delta-min", "10", "--delta-max", "12"], _ROUNDED_DOMAIN),
        (["plot-data", "--mode", "small-err", "--n", "15", "--k", "2"], _ROUNDED_DOMAIN),
        # inside rounded_counter's domain, but past the feasibility
        # inequality's delta <= n/(2(k-1)) = 35/3 from delta = 12 on
        (["plot-data", "--mode", "small-err", "--n", "140", "--k", "7",
          "--delta-min", "10", "--delta-max", "14"], "need 0 <= delta <= n/(2(k-1))"),
    ],
    ids=["argv0", "argv1", "argv2", "argv3"],  # each case named by its argv alone
)
def test_plot_data_small_err_outside_the_rounded_counter_is_refused_before_any_row(
    capsys, argv, message
):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out.splitlines() == ["series,x,y"]
    assert captured.err == f"error: {message}\n"


# Runs main in a fresh interpreter; the last line of its stderr is the exit
# code and whether numpy was imported.
START_PROBE = """
import sys
from robpcount.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["bounds", "--n", "90", "--k", "2", "--w", "4", "--delta", "30"], 1),
        (["sweep", "--n", "90", "--k", "2", "--delta", "30", "--w-max", "6"], 0),
        (["frontier", "--n-max", "4", "--w-max", "3"], 0),
        (["mg", "--k", "3", "--U", "10"], 0),
        (["mg-query", "--k", "3", "--U", "10", "--query", "0"], 0),
    ],
)
def test_the_pure_python_subcommands_start_without_numpy(argv, code):
    run = subprocess.run(
        [sys.executable, "-c", START_PROBE, *argv],
        input="0 1 0 2 0 9\n",
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )
    assert run.stderr.splitlines()[-1] == f"{code} False", run.stderr


def test_the_brute_force_runs_without_numpy():
    probe = (
        "import sys; from robpcount import frontier_brute_force; "
        "print(frontier_brute_force(5, 3), 'numpy' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
        check=True,
    )
    assert run.stdout.split() == ["1", "False"], run.stderr


def test_every_package_name_resolves_to_its_submodules_object():
    for name in robpcount.__all__:
        obj = getattr(robpcount, name)
        if isinstance(obj, type(robpcount)):
            assert obj is importlib.import_module(f"robpcount.{name}")
        else:
            assert obj.__module__.startswith("robpcount.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_the_package_lists_its_names_and_refuses_unknown_ones():
    assert set(robpcount.__all__) <= set(dir(robpcount))
    assert "frontier_column" in robpcount.__all__
    from robpcount import _kernel

    assert _kernel is sys.modules["robpcount._kernel"]
    with pytest.raises(AttributeError, match="no_such_name"):
        robpcount.no_such_name


def test_deterministic_reruns(capsys):
    _, first = run_cli(capsys, "frontier", "--n-max", "4", "--w-max", "3")
    _, second = run_cli(capsys, "frontier", "--n-max", "4", "--w-max", "3")
    assert first == second
    _, a = run_cli(capsys, "fuzz", "--seeds", "5", "--n", "4", "--w", "2")
    _, b = run_cli(capsys, "fuzz", "--seeds", "5", "--n", "4", "--w", "2")
    assert a == b


def test_error_exit_code(capsys):
    code = main(["build", "--kind", "tribes", "--n", "20", "--w", "3"])
    err = capsys.readouterr().err
    assert code == 2 and "error" in err
