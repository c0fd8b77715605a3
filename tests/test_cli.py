import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from proxkit.cli import main


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- gen -----------------------------------------------------------------------


def test_gen_prints_instance_json(capsys):
    code, out, _ = run_main(["gen", "--problem", "lasso", "--n", "4", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lasso"
    assert len(doc["params"]["b"]) == 8  # m defaults to 2n


def test_gen_writes_directory(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    code, _, _ = run_main(
        ["gen", "--problem", "boxqp", "--n", "3", "--out", str(out_dir)], capsys
    )
    assert code == 0
    assert (out_dir / "problem.json").is_file()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["problem"] == "boxqp"
    # no stray .partial staging directories left behind
    assert list(tmp_path.glob("*.partial-*")) == []


def test_gen_refuses_existing_out(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    out_dir.mkdir()
    code, _, err = run_main(
        ["gen", "--problem", "boxqp", "--n", "3", "--out", str(out_dir)], capsys
    )
    assert code == 2
    assert "exists" in err


def test_gen_seed_determinism(capsys):
    a = run_main(["gen", "--problem", "lasso", "--n", "4", "--seed", "3"], capsys)[1]
    b = run_main(["gen", "--problem", "lasso", "--n", "4", "--seed", "3"], capsys)[1]
    c = run_main(["gen", "--problem", "lasso", "--n", "4", "--seed", "4"], capsys)[1]
    assert a == b
    assert a != c


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    baseline = run_main(["gen", "--problem", "lasso", "--n", "4", "--seed", "9"], capsys)[1]
    monkeypatch.setenv("PROXKIT_SEED", "9")
    via_env = run_main(["gen", "--problem", "lasso", "--n", "4"], capsys)[1]
    assert via_env == baseline


# --- solve ----------------------------------------------------------------------


def test_solve_summary_and_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_main(
        [
            "solve", "--solver", "fista", "--problem", "lasso", "--n", "5",
            "--seed", "1", "--tol", "1e-10", "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert "fista on lasso n=5: converged" in out
    assert (out_dir / "trace.csv").is_file()
    sol = json.loads((out_dir / "solution.json").read_text())
    assert sol["converged"] is True
    assert len(sol["x"]) == 5
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["solver"] == "fista"
    assert manifest["tol"] == 1e-10
    header = (out_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "iter,objective,residual,gap,step,ms"


def test_solve_trace_reproducible_modulo_timing(tmp_path, capsys):
    def strip_ms(path):
        lines = path.read_text().splitlines()
        return [",".join(ln.split(",")[:-1]) for ln in lines]

    argv = [
        "solve", "--solver", "pg", "--problem", "boxqp", "--n", "4",
        "--seed", "2", "--tol", "1e-9",
    ]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run_main(argv + ["--out", str(a_dir)], capsys)[0] == 0
    assert run_main(argv + ["--out", str(b_dir)], capsys)[0] == 0
    assert strip_ms(a_dir / "trace.csv") == strip_ms(b_dir / "trace.csv")


def test_solve_from_problem_file(tmp_path, capsys):
    inst = tmp_path / "inst"
    run_main(["gen", "--problem", "control", "--n", "4", "--seed", "5", "--out", str(inst)], capsys)
    code, out, _ = run_main(
        [
            "solve", "--solver", "dr", "--problem-file", str(inst / "problem.json"),
            "--tol", "1e-9",
        ],
        capsys,
    )
    assert code == 0
    assert "dr on control" in out


def test_solve_nonconvergence_exit_code(capsys):
    code, out, _ = run_main(
        [
            "solve", "--solver", "pg", "--problem", "lasso", "--n", "6",
            "--seed", "0", "--tol", "1e-14", "--max-iter", "5",
        ],
        capsys,
    )
    assert code == 3
    assert "did not converge" in out


def test_solve_divergence_exit_code(capsys):
    code, out, err = run_main(
        [
            "solve", "--solver", "pg", "--gamma", "100", "--problem", "lasso",
            "--n", "20", "--seed", "0",
        ],
        capsys,
    )
    assert code == 3
    lines = (out + err).splitlines()
    assert len(lines) == 1
    assert "diverged at iteration" in lines[0]
    assert "Traceback" not in out + err


def test_solve_rejects_unsupported_pairings(capsys):
    code, _, err = run_main(
        ["solve", "--solver", "dr", "--problem", "huber", "--n", "4"], capsys
    )
    assert code == 2
    assert "huber" in err


def test_solve_requires_exactly_one_source(capsys):
    code, _, err = run_main(["solve", "--solver", "pg"], capsys)
    assert code == 2
    code2, _, err2 = run_main(
        [
            "solve", "--solver", "pg", "--problem", "lasso",
            "--problem-file", "x.json",
        ],
        capsys,
    )
    assert code2 == 2


def test_unknown_solver_rejected_by_parser():
    # argparse choices fail before any computation, via SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--solver", "sgd", "--problem", "lasso"])
    assert exc.value.code == 2


def test_unknown_problem_kind_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--problem", "tsp"])
    assert exc.value.code == 2


# --- check ----------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["moreau", "envelope", "drpdhg"])
def test_check_suites_pass(suite, capsys):
    code, out, _ = run_main(["check", "--suite", suite, "--seed", "0"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_check_takes_no_out(tmp_path, capsys, monkeypatch):
    # check writes no files: --out is a usage error, and PROXKIT_OUT does not apply
    out_dir = tmp_path / "chk"
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "moreau", "--out", str(out_dir)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    monkeypatch.setenv("PROXKIT_OUT", str(out_dir))
    code, out, _ = run_main(["check", "--suite", "moreau", "--seed", "0"], capsys)
    assert code == 0 and "PASS" in out
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run_main(["gen", "--problem", "lasso", "--n", "3"], capsys)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setenv("PROXKIT_SEED", "5")  # the environment is still read per call
    code, out, _ = run_main(["gen", "--problem", "lasso", "--n", "3"], capsys)
    assert code == 0 and built == []
    assert out == run_main(["gen", "--problem", "lasso", "--n", "3", "--seed", "5"], capsys)[1]


def test_flag_wins_over_a_bad_environment_default(capsys, monkeypatch):
    monkeypatch.setenv("PROXKIT_SEED", "abc")
    code, _, err = run_main(["gen", "--problem", "lasso", "--n", "3", "--seed", "1"], capsys)
    assert code == 0 and err == ""


def test_check_all_runs_every_suite(capsys):
    code, out, _ = run_main(["check", "--suite", "all", "--seed", "0"], capsys)
    assert code == 0
    for name in ("moreau", "envelope", "rate", "fejer", "superlinear", "drpdhg"):
        assert name in out


# --- bench ----------------------------------------------------------------------


def test_bench_table(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = run_main(
        [
            "bench", "--problem", "boxqp", "--n", "4", "--seed", "1",
            "--tol", "1e-9", "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    for solver in ("pg", "pg-ls", "fista", "dr", "pdhg"):
        assert solver in out
    assert (out_dir / "manifest.json").is_file()
    assert (out_dir / "trace_pg.csv").is_file()
    assert (out_dir / "trace_pdhg.csv").is_file()


def test_applicable_solvers_follow_the_registry_builders(capsys, monkeypatch):
    # a kind without a split form loses pdhg, and nothing else
    import dataclasses

    from proxkit import problems

    entry = dataclasses.replace(problems.KINDS["boxqp"], split=None)
    monkeypatch.setitem(problems.KINDS, "boxqp", entry)
    code, out, _ = run_main(["bench", "--problem", "boxqp", "--n", "4", "--tol", "1e-9"], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["pg", "pg-ls", "fista", "dr"]
    code, _, err = run_main(["solve", "--solver", "pdhg", "--problem", "boxqp", "--n", "4"], capsys)
    assert code == 2 and "does not apply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--problem", "control", "--n", "5", "--seed", "2"],
        ["solve", "--solver", "pdhg", "--problem", "lasso", "--n", "5", "--seed", "1"],
        ["bench", "--problem", "boxqp", "--n", "4", "--seed", "1", "--tol", "1e-9"],
    ],
)
def test_json_artifacts_parse_to_the_indented_documents(argv, tmp_path, capsys, monkeypatch):
    # artifacts are compact one-line JSON; whitespace is all that differs
    # from the indent=2 encoding, so both parse to the same document
    from proxkit import cli

    written = []
    write_json = cli._write_json

    def spy(path, data):
        written.append((path, data))
        write_json(path, data)

    monkeypatch.setattr(cli, "_write_json", spy)
    code, _, _ = run_main(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 0 and written
    for path, data in written:
        text = (tmp_path / "out" / os.path.basename(path)).read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == json.loads(json.dumps(data, indent=2, sort_keys=True))
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    if argv[0] == "gen":
        _, out, _ = run_main(argv, capsys)
        assert out == (tmp_path / "out" / "problem.json").read_text()


def test_bench_huber_skips_two_prox_solvers(capsys):
    code, out, _ = run_main(
        ["bench", "--problem", "huber", "--n", "4", "--tol", "1e-9"], capsys
    )
    assert code == 0
    assert "fista" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--problem", "control", "--n", "6", "--tol", "1e-9"],
        ["solve", "--solver", "pdhg", "--problem", "control", "--n", "6", "--tol", "1e-9"],
    ],
)
def test_control_converts_to_its_box_qp_once_per_command(argv, capsys, monkeypatch):
    from proxkit import problems

    real = problems.control_as_boxqp
    calls = []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(problems, "control_as_boxqp", counted)
    assert run_main(argv, capsys)[0] == 0
    assert len(calls) == 1


# --- output directories ------------------------------------------------------------


@pytest.mark.parametrize("existing", ["dir", "empty string"])
def test_solve_refuses_existing_out_before_solving(existing, tmp_path, capsys, monkeypatch):
    # '' resolves to the working directory, which always exists
    monkeypatch.chdir(tmp_path)
    out = "run" if existing == "dir" else ""
    (tmp_path / "run").mkdir()
    code, stdout, err = run_main(
        ["solve", "--solver", "fista", "--problem", "lasso", "--n", "5", "--out", out], capsys
    )
    assert code == 2 and "exists" in err
    assert stdout == ""  # no result line: the solver never ran


def _failing(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


ARGVS = {
    "gen": ["gen", "--problem", "lasso", "--n", "4"],
    "solve": ["solve", "--solver", "pdhg", "--problem", "boxqp", "--n", "4"],
    "bench": ["bench", "--problem", "lasso", "--n", "4"],
}
DISK_FULL = ("_write_json", _failing(OSError("disk full")))
NUMERICAL_FAILURE = ("fista", _failing(RuntimeError("line search underflow")))


@pytest.mark.parametrize(
    "argv,patch,code",
    [
        pytest.param(ARGVS["bench"] + ["--tol", "-1"], None, 2, id="bench-bad-tol"),
        pytest.param(ARGVS["bench"], NUMERICAL_FAILURE, 3, id="bench-runtime-error"),
        pytest.param(ARGVS["gen"], DISK_FULL, 2, id="gen-write-fails"),
        pytest.param(ARGVS["solve"], DISK_FULL, 2, id="solve-write-fails"),
        pytest.param(ARGVS["bench"], DISK_FULL, 2, id="bench-write-fails"),
    ],
)
def test_handled_error_leaves_no_staging_directory(
    argv, patch, code, tmp_path, capsys, monkeypatch
):
    from proxkit import cli

    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    assert run_main(argv + ["--out", str(tmp_path / "out")], capsys)[0] == code
    assert list(tmp_path.iterdir()) == []  # neither out nor a *.partial-* staging directory


@pytest.mark.parametrize("command", sorted(ARGVS))
def test_out_created_while_writing_is_not_replaced(command, tmp_path, capsys, monkeypatch):
    # os.rename silently replaces an empty directory, so publish checks again
    from proxkit import cli

    out = tmp_path / "out"
    write_json = cli._write_json

    def racing_write(path, data):
        out.mkdir(exist_ok=True)
        write_json(path, data)

    monkeypatch.setattr(cli, "_write_json", racing_write)
    code, _, err = run_main(ARGVS[command] + ["--out", str(out)], capsys)
    assert code == 2 and "exists" in err
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


# --- process-level entry point -----------------------------------------------------


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "proxkit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "proxkit" in proc.stdout


# --- exit codes --------------------------------------------------------------------


def test_bench_exits_3_when_a_solver_does_not_converge(capsys):
    code, out, _ = run_main(
        ["bench", "--problem", "lasso", "--n", "20", "--max-iter", "3"], capsys
    )
    assert code == 3
    assert " NO " in out and "fista" in out


def _solve_file(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return run_main(["solve", "--solver", "pg", "--problem-file", str(path)], capsys)


def _assert_one_line_error(code, err, *fragments):
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    for fragment in fragments:
        assert fragment in err


def test_problem_file_with_a_list_at_top_level_exits_2(tmp_path, capsys):
    code, _, err = _solve_file(tmp_path, capsys, [{"kind": "lasso"}])
    _assert_one_line_error(code, err, "problem JSON must be an object", "list")


def test_boxqp_file_with_missing_fields_exits_2(tmp_path, capsys):
    doc = {"kind": "boxqp", "params": {"q": [[2.0, 0.0], [0.0, 1.0]], "c": [1.0, -1.0]}}
    code, _, err = _solve_file(tmp_path, capsys, doc)
    _assert_one_line_error(code, err, "boxqp problem", "missing", "lo", "hi")


def test_string_alpha_exits_2(tmp_path, capsys):
    code, out, _ = run_main(["gen", "--problem", "lasso", "--n", "4", "--seed", "2"], capsys)
    doc = json.loads(out)
    doc["params"]["alpha"] = "0.5"
    code, _, err = _solve_file(tmp_path, capsys, doc)
    _assert_one_line_error(code, err, "lasso problem", "alpha", "'0.5'")


@pytest.mark.parametrize("var", ["PROXKIT_SEED", "PROXKIT_TOL", "PROXKIT_MAX_ITER"])
def test_bad_environment_default_exits_2(var, capsys, monkeypatch):
    monkeypatch.setenv(var, "abc")
    code, _, err = run_main(["solve", "--solver", "pg", "--problem", "lasso", "--n", "3"], capsys)
    _assert_one_line_error(code, err, var, "'abc'")


@pytest.mark.parametrize(
    "argv", [["gen", "--problem", "lasso", "--n", "3"], ["check", "--suite", "moreau"]]
)
def test_gen_and_check_take_no_solver_controls(argv, capsys, monkeypatch):
    # neither runs a configured solver: the flags are usage errors and the
    # variables do not apply
    for flag in (["--tol", "-1"], ["--max-iter", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
    monkeypatch.setenv("PROXKIT_TOL", "abc")
    monkeypatch.setenv("PROXKIT_MAX_ITER", "abc")
    code, _, err = run_main(argv, capsys)
    assert code == 0 and err == ""


# --- malformed problem files -------------------------------------------------------

_LASSO = {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0], "alpha": 0.5}
_BOX = {"q": [[2.0, 0.0], [0.0, 1.0]], "c": [1.0, -1.0], "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
_CONTROL = {"s": [[1.0, 0.0]], "z": [1.0], "alpha": 0.1, "lo": -1.0, "hi": 1.0}
_HUBER = {"b": [1.0, 2.0], "alpha": 1.0, "gamma": 0.5}

# (name, kind, params, fragment the one-line message must contain)
MALFORMED = [
    ("ragged-a", "lasso", {**_LASSO, "a": [[1.0, 2.0], [3.0]]}, "lasso problem: a"),
    ("dict-field", "huber", {**_HUBER, "b": {"x": 1}}, "huber problem: b"),
    ("list-kind", ["lasso"], {}, "problem kind ['lasso']"),
    ("indefinite-q", "boxqp", {**_BOX, "q": [[1.0, 0.0], [0.0, -1.0]]}, "boxqp problem: q"),
    ("asymmetric-q", "boxqp", {**_BOX, "q": [[2.0, 1.0], [0.0, 2.0]]},
     "boxqp problem: q must be symmetric"),
    ("lo-length", "boxqp", {**_BOX, "lo": [-1.0, -1.0, -1.0]}, "boxqp problem: lo"),
    ("x_true-length", "lasso", {**_LASSO, "x_true": [1.0]}, "lasso problem: x_true"),
    ("unknown-field", "huber", {**_HUBER, "beta": 2.0}, "huber problem: unknown field(s) 'beta'"),
    ("non-numeric-matrix", "control", {**_CONTROL, "s": [["a", "b"]]}, "control problem: s"),
    ("empty-b", "huber", {**_HUBER, "b": []}, "huber problem: b"),
    ("null-alpha", "huber", {**_HUBER, "alpha": None}, "huber problem: alpha"),
    ("null-a", "lasso", {**_LASSO, "a": None}, "lasso problem: a"),
    ("null-lo", "boxqp", {**_BOX, "lo": None}, "boxqp problem: lo"),
    ("huge-int-alpha", "lasso", {**_LASSO, "alpha": 10**400}, "lasso problem: alpha"),
    ("huge-int-entry", "huber", {**_HUBER, "b": [1.0, 10**400]}, "huber problem: b"),
    # finite entries whose S'S overflows: the line names s, not the q of the box QP
    ("huge-s", "control", {**_CONTROL, "s": [[1e299, 3e299]]},
     "control problem: s is too large (S'S overflows)"),
]


@pytest.mark.parametrize("solver", ["pg", "pg-ls", "fista", "dr", "pdhg"])
@pytest.mark.parametrize("name,kind,params,fragment", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_problem_file_exits_2_with_one_line(
    name, kind, params, fragment, solver, tmp_path, capsys
):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": kind, "params": params}))
    code, out, err = run_main(["solve", "--solver", solver, "--problem-file", str(path)], capsys)
    _assert_one_line_error(code, err, fragment)
    assert "Traceback" not in out and len(err.strip()) < 120, err


# (name, kind, params, fragment): files that load but whose Lipschitz constant overflows
OVERFLOWING = [
    ("lasso-huge-a", "lasso", {**_LASSO, "a": [[1.0, 0.0], [0.0, 1e200]]},
     "lasso problem: a is too large"),
    ("huber-huge-alpha-over-gamma", "huber", {**_HUBER, "alpha": 1e300, "gamma": 1e-300},
     "huber problem: gamma is too small for alpha"),
]


@pytest.mark.parametrize("solver", ["pg", "pg-ls", "fista"])
@pytest.mark.parametrize("name,kind,params,fragment", OVERFLOWING, ids=[o[0] for o in OVERFLOWING])
def test_overflowing_lipschitz_constant_exits_2_with_one_line(
    name, kind, params, fragment, solver, tmp_path, capsys
):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": kind, "params": params}))
    code, _, err = run_main(["solve", "--solver", solver, "--problem-file", str(path)], capsys)
    _assert_one_line_error(code, err, fragment)


def test_scalar_bounds_in_a_problem_file_broadcast(tmp_path, capsys):
    _, out, _ = run_main(["gen", "--problem", "boxqp", "--n", "3", "--seed", "1"], capsys)
    doc = json.loads(out)
    doc["params"].update(lo=-0.5, hi=0.5)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(["solve", "--solver", "fista", "--problem-file", str(path)], capsys)
    assert code == 0 and "converged" in out


# sha256 of `proxkit gen --problem K --n 8 --seed 3` stdout, recorded before the spec
# classes shared one JSON encoder.  The instances come from numpy's default_rng and,
# for all but huber, a BLAS product, so another BLAS build may change their last bits.
GEN_SHA256 = {
    "lasso": "9a8741f17034cf496aa984fb4bb0a806ea2db6322f790c9bfa7c2d0d24fe0c2b",
    "boxqp": "39e34fb3e0cb0604fb8e56a3f6f1bced402a01e94e506469e1d4ff913ce0a1f8",
    "control": "6b551646a8a94d97ff7255c44c3e2eb9111d78b32836d93e17ecedb1efacb857",
    "huber": "4b75a42eb20c2a512a05723561fb30bb3ec50e6526754c271bf94e03b13a7b8a",
}


@pytest.mark.parametrize("kind", sorted(GEN_SHA256))
def test_gen_output_is_byte_identical_to_the_recorded_hash(kind, capsys):
    code, out, _ = run_main(["gen", "--problem", kind, "--n", "8", "--seed", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[kind]
