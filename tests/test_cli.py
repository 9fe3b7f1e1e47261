import io
import logging
import os
import re
import subprocess
import sys
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from curvflow import cli, flow, gauss
from curvflow.flow import TRACE_HEADER

from conftest import OCTAHEDRON_OFF, bump, circle, make_icosphere, write_off

TWO_PI_STR = "6.283185307179586"


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """cli.main(args) in process, with CURVFLOW_LOG unset unless env_extra sets it: its
    exit code, stdout and stderr.  The curvflow logger's level and handlers, which every
    main call sets, are restored afterwards."""
    log = logging.getLogger("curvflow")
    level, handlers = log.level, list(log.handlers)

    def run(*args, env_extra=None):
        monkeypatch.delenv("CURVFLOW_LOG", raising=False)
        for name, value in (env_extra or {}).items():
            monkeypatch.setenv(name, value)
        code = cli.main(list(args))
        return CliRun(code, *capsys.readouterr())

    yield run
    log.setLevel(level)
    log.handlers[:] = handlers


def field(out, name):
    m = re.search(rf"{name}=([^\s]+)", out)
    assert m, f"{name} missing in {out!r}"
    return m.group(1)


def test_run_constant_negative_potential(run_cli):
    res = run_cli("run", "--torus", f"64:{TWO_PI_STR}", "--psi", "-1", "--p", "3",
                  "--tmax", "200")
    assert res.returncode == 0
    assert field(res.stdout, "stop") == "Converged"
    r_inf = float(field(res.stdout, "r_inf"))
    assert r_inf == pytest.approx(-np.sqrt(2.0 * np.pi), abs=1e-5)
    assert float(field(res.stdout, "f")) <= 1e-10
    assert float(field(res.stdout, "res")) <= 1e-8
    int(field(res.stdout, "steps"))


def test_run_preset_thm3_reports_decay(run_cli):
    res = run_cli("run", "--preset", "thm3")
    assert res.returncode == 0
    assert field(res.stdout, "stop") == "Converged"
    assert abs(float(field(res.stdout, "r_inf"))) <= 1e-8
    assert float(field(res.stdout, "decay_rate")) > 0
    # oracle runs the same flow and reports the same fitted rate
    res_oracle = run_cli("oracle", "--preset", "thm3")
    assert res_oracle.returncode == 0
    assert field(res_oracle.stdout, "decay_rate") == field(res.stdout, "decay_rate")
    assert float(field(res_oracle.stdout, "r_gap")) <= 1e-8


def test_run_unknown_coordinate_is_input_error(run_cli):
    res = run_cli("run", "--psi", "cos(x2)", "--torus", "32:1")
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_run_positivity_failure_exit_code(run_cli):
    res = run_cli("run", "--torus", f"64:{TWO_PI_STR}", "--psi", "-1",
                  "--seed", "1", "--dt0", "10", "--safety", "50")
    assert res.returncode == 2
    assert field(res.stdout, "stop") == "PositivityFailure"


def test_usage_errors(run_cli):
    for args in (
        ("run", "--psi", "-1"),                                   # no manifold
        ("run", "--preset", "thm2", "--torus", "8:1"),            # conflict
        ("run", "--torus", "64", "--psi", "-1"),                  # bad N:L
        ("run", "--torus", "64:1", "--psi", "-1", "--c", "auto"),  # dim 1
        ("run", "--torus", "64:1", "--psi", "-1", "--c", "-3"),
        ("run", "--torus", "64:1"),                               # no psi
        ("frobnicate",),
    ):
        res = run_cli(*args)
        assert res.returncode == 1, args
        assert "error:" in res.stderr.lower(), args


def test_eigen_constant_potential(run_cli):
    res = run_cli("eigen", "--torus", f"256:{TWO_PI_STR}", "--psi", "1")
    assert res.returncode == 0
    assert float(field(res.stdout, "lambda1")) == pytest.approx(1.0, abs=1e-10)
    assert float(field(res.stdout, "residual")) <= 1e-10


@pytest.mark.parametrize("a", ["1e16", "-1e16", "1e200", "-1e200"])
def test_eigen_huge_constant_potential(a, run_cli):
    res = run_cli("eigen", "--torus", f"64:{TWO_PI_STR}", f"--psi={a}")
    assert res.returncode == 0, res.stderr
    assert float(field(res.stdout, "lambda1")) == float(a)


def test_eigen_off_mesh(octahedron_path, tmp_path, run_cli):
    res = run_cli("eigen", "--off", str(octahedron_path), "--psi", "2")
    assert res.returncode == 0
    assert float(field(res.stdout, "lambda1")) == pytest.approx(2.0, abs=1e-10)
    # --off and --torus compose into S^2 x S^1, of dimension 3, so --c auto is 8
    sphere = tmp_path / "icosphere2.off"
    write_off(sphere, *make_icosphere(2))
    res = run_cli("eigen", "--off", str(sphere), "--torus", "16:5", "--psi", "2", "--c", "auto")
    assert res.returncode == 0, res.stderr
    assert float(field(res.stdout, "lambda1")) == pytest.approx(2.0, abs=1e-10)


def test_eigen_missing_off_file(run_cli):
    res = run_cli("eigen", "--off", "/nonexistent/mesh.off", "--psi", "1")
    assert res.returncode == 1


def test_oracle_preset_thm2(tmp_path, run_cli):
    out = tmp_path / "oracle.csv"
    res = run_cli("oracle", "--preset", "thm2", "--out", str(out))
    assert res.returncode == 0
    assert float(field(res.stdout, "u_gap")) <= 1e-6
    assert float(field(res.stdout, "r_gap")) <= 1e-8
    assert float(field(res.stdout, "r_newton")) == pytest.approx(
        -np.sqrt(2.0 * np.pi), abs=1e-6
    )
    # --out holds the flow trace, ending at the state Newton started from
    lines = out.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 2
    r_last = float(lines[-1].split(",")[3])
    assert r_last == pytest.approx(float(field(res.stdout, "r_flow")), rel=1e-9)


def _main(capsys, *argv):
    """cli.main in process: its exit code and stdout, with nothing on stderr."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def test_preset_thm2_is_its_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    preset, flags = tmp_path / "preset.csv", tmp_path / "flags.csv"
    got = _main(capsys, "run", "--preset", "thm2", "--out", str(preset))
    want = _main(capsys, "run", "--torus", f"128:{TWO_PI_STR}", "--psi", "-1",
                 "--out", str(flags))
    assert got == want
    assert preset.read_bytes() == flags.read_bytes()


def test_preset_thm3_starts_from_the_bump(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    out = tmp_path / "thm3.csv"
    assert _main(capsys, "run", "--preset", "thm3", "--out", str(out))[0] == 0
    man = circle(128)
    result = flow.run_flow(man, np.zeros(128), bump(man), flow.FlowConfig())
    want = io.StringIO(newline="")
    flow.write_trace_csv(result.trace, want)
    assert out.read_bytes() == want.getvalue().encode()


def test_every_preset_field_is_read():
    # a preset names flags (by argparse dest) of a subcommand that takes
    # --preset, or the start field of run and oracle; nothing else is read
    parser = cli._build_parser()
    dests = {"start"}
    for command in ("run", "eigen", "oracle", "gauss", "sweep"):
        names = vars(parser.parse_args([command]))
        if "preset" in names:
            dests |= set(names) - {"command", "func"}
    for name, preset in cli.PRESETS.items():
        assert set(preset) <= dests, name


@pytest.mark.parametrize("command", ["run", "eigen", "oracle", "gauss", "sweep"])
def test_flags_not_given_keep_the_flow_config_defaults(command):
    args = cli._parse_args([command, "--torus", "4:1,4:1,4:1", "--psi", "1"])
    cfg = cli.resolve_problem(args)[2]
    want = flow.FlowConfig(dt0=1e-3) if command == "gauss" else flow.FlowConfig()
    assert cfg == want  # pytest lists the fields that differ
    if command != "gauss":  # the one subcommand without --c
        args = cli._parse_args([command, "--torus", "4:1,4:1,4:1", "--psi", "1", "--c", "auto"])
        assert cli.resolve_problem(args)[2] == flow.FlowConfig(dt0=want.dt0, c=8.0)


def test_every_budget_flag_reaches_the_flow_config():
    args = cli._parse_args(["run", "--preset", "thm2", "--scheme", "imex", "--dt0", "0.5",
                            "--safety", "0.75", "--tmax", "2", "--max-steps", "0",
                            "--tol-f", "1e-3", "--tol-res", "1e-4", "--trace-every", "3",
                            "--p", "4", "--c", "2"])
    assert cli.resolve_problem(args)[2] == flow.FlowConfig(
        scheme="imex", dt0=0.5, safety=0.75, tol_f=1e-3, tol_res=1e-4, t_max=2.0,
        max_steps=0, trace_every=3, p=4.0, c=2.0)


def test_a_preset_fills_only_what_argv_left_unset(capsys, monkeypatch):
    parses = []
    inner = cli._Parser.parse_args

    def counted(self, *args, **kwargs):
        parses.append(args)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", counted)
    args = cli._parse_args(["run", "--preset", "thm2", "--psi", "0"])
    assert len(parses) == 1  # argv is parsed once, preset or not
    man, psi, _ = cli.resolve_problem(args)
    assert args.torus == cli.PRESETS["thm2"]["torus"] and man.node_count == 128
    assert not psi.any()
    assert cli._parse_args(["run", "--preset", "thm3"]).start == cli.PRESETS["thm3"]["start"]
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    assert cli.main(["run", "--preset", "thm2", "--torus", "8:1"]) == 1
    assert capsys.readouterr().err == "error: --preset already fixes the manifold\n"


def test_psi_with_a_leading_minus_takes_the_equals_form(capsys, monkeypatch):
    # argparse reads a bare "-cos(x1)" as an option, so --psi gets no value;
    # only plain negative numbers such as -1 pass bare
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    argv = ["run", "--torus", f"16:{TWO_PI_STR}", "--max-steps", "1"]
    assert _main(capsys, *argv, "--psi=-cos(x1)")[0] == 0
    assert cli.main([*argv, "--psi", "-cos(x1)"]) == 1
    assert capsys.readouterr().err == "error: argument --psi: expected one argument\n"


@pytest.mark.parametrize("argv", [
    ("run", "--preset", "thm2"),
    ("oracle", "--preset", "thm2"),
    ("sweep", "--preset", "thm2", "--starts", "1"),
    ("gauss", "--torus", "8:1,8:1", "--psi", "1"),
], ids=lambda argv: argv[0])
def test_unwritable_out_fails_before_the_flow_runs(argv, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the flow ran before --out was opened")

    monkeypatch.setattr(flow, "run_flow", must_not_run)
    monkeypatch.setattr(gauss, "run_gauss_flow", must_not_run)
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gauss_offers_no_preset(capsys, monkeypatch):
    # neither its help nor its missing-flag errors name a flag gauss lacks
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["gauss", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert "--psi" in out and "--preset" not in out
    assert cli.main(["gauss", "--psi", "1"]) == 1
    assert capsys.readouterr().err == "error: specify a manifold via --torus or --off\n"
    assert cli.main(["gauss", "--torus", "8:1,8:1"]) == 1
    assert capsys.readouterr().err == "error: specify --psi\n"


def test_gauss_run_reports_drift(run_cli):
    res = run_cli("gauss", "--torus", f"32:{TWO_PI_STR},32:{TWO_PI_STR}",
                  "--psi", "0.3*cos(x1)", "--dt0", "2e-3", "--tmax", "2",
                  "--tol-f", "1e-300")
    assert res.returncode == 0
    assert field(res.stdout, "stop") == "TmaxReached"
    assert abs(float(field(res.stdout, "area_drift"))) < 1e-3
    assert int(field(res.stdout, "steps")) >= 1000


def test_trace_file_format(tmp_path, run_cli):
    out = tmp_path / "trace.csv"
    res = run_cli("run", "--torus", f"64:{TWO_PI_STR}", "--psi", "-1",
                  "--tmax", "2", "--tol-f", "1e-300", "--trace-every", "10",
                  "--out", str(out))
    assert res.returncode == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 10
    float_re = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}")
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 11
        int(parts[0])
        for tok in parts[1:]:
            assert float_re.fullmatch(tok), tok


def test_trace_byte_determinism(tmp_path, run_cli):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli("run", "--torus", f"64:{TWO_PI_STR}", "--psi", "-1",
                      "--scheme", "imex", "--dt0", "1e-2", "--tmax", "3",
                      "--seed", "5", "--out", str(out))
        assert res.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_determinism_and_bound(tmp_path, run_cli):
    outs = []
    stdouts = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        res = run_cli("sweep", "--torus", f"32:{TWO_PI_STR}", "--psi", "-1",
                      "--starts", "2", "--seed", "7", "--tmax", "30",
                      "--out", str(out))
        assert res.returncode == 0
        outs.append(out.read_bytes())
        stdouts.append(res.stdout)
    assert outs[0] == outs[1]
    assert stdouts[0] == stdouts[1]
    lines = outs[0].decode().strip().split("\n")
    assert lines[0] == "start,r_final,E_final,stop"
    assert len(lines) == 3
    y = float(field(stdouts[0], "Y_psi_upper"))
    assert y == pytest.approx(-np.sqrt(2.0 * np.pi), abs=1e-4)


def test_sweep_positivity_failure_exit_code(tmp_path, run_cli):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--torus", f"32:{TWO_PI_STR}", "--psi", "-1", "--starts", "2",
                  "--dt0", "10", "--safety", "50", "--tmax", "10", "--out", str(out))
    assert res.returncode == 2
    # every start still gets its row, and the bound is still printed
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.split(",")[3] for row in rows] == ["PositivityFailure"] * 2
    assert np.isfinite(float(field(res.stdout, "Y_psi_upper")))


def test_log_env_var(run_cli):
    res = run_cli("eigen", "--torus", "32:1", "--psi", "0",
                  env_extra={"CURVFLOW_LOG": "bogus"})
    assert res.returncode == 1
    assert "CURVFLOW_LOG" in res.stderr

    res = run_cli("gauss", "--torus", "16:1,16:1", "--psi", "1",
                  "--tmax", "0.01", env_extra={"CURVFLOW_LOG": "info"})
    assert res.returncode == 0
    assert "INFO curvflow.gauss" in res.stderr


def _binary_off(tmp_path):
    path = tmp_path / "binary.off"
    path.write_bytes(b"OFF\n\xff\xfe\x00\x01\x02")
    return str(path)


def _nan_vertex_off(tmp_path):
    path = tmp_path / "nan.off"
    path.write_text(OCTAHEDRON_OFF.replace("0 0 -1\n", "0 0 nan\n"))
    return str(path)


BAD_INPUTS = {
    "p-below-1": lambda tmp: ("run", "--preset", "thm2", "--p", "0.5"),
    "trace-every-0": lambda tmp: ("run", "--preset", "thm2", "--trace-every", "0"),
    "max-steps-negative": lambda tmp: ("run", "--preset", "thm2", "--max-steps", "-1"),
    "tmax-inf": lambda tmp: ("run", "--torus", f"32:{TWO_PI_STR}", "--psi", "-1", "--tmax", "inf"),
    "tol-inf": lambda tmp: ("run", "--torus", f"32:{TWO_PI_STR}", "--psi", "-1",
                            "--tol-f", "inf", "--tol-res", "inf"),
    "c-inf": lambda tmp: ("run", "--torus", f"32:{TWO_PI_STR}", "--psi", "-1", "--c", "inf"),
    "eigen-c-nan": lambda tmp: ("eigen", "--torus", f"32:{TWO_PI_STR}", "--psi", "-1",
                                "--c", "nan"),
    "psi-overflow": lambda tmp: ("run", "--torus", f"16:{TWO_PI_STR}", "--psi", "exp(1000*x1)"),
    "sweep-no-starts": lambda tmp: ("sweep", "--preset", "thm2", "--starts", "0"),
    "seed-negative": lambda tmp: ("run", "--preset", "thm2", "--seed", "-1"),
    "gauss-seed": lambda tmp: ("gauss", "--torus", "8:1,8:1", "--psi", "1", "--seed", "1"),
    # every preset is a circle, and gauss runs in dimension 2 only
    "gauss-preset": lambda tmp: ("gauss", "--preset", "thm2"),
    "off-directory": lambda tmp: ("eigen", "--off", str(tmp), "--psi", "1"),
    "off-binary": lambda tmp: ("eigen", "--off", _binary_off(tmp), "--psi", "1"),
    "off-nan-vertex": lambda tmp: ("eigen", "--off", _nan_vertex_off(tmp), "--psi", "1"),
    "p-overflow": lambda tmp: ("run", "--torus", f"64:{TWO_PI_STR}", "--psi", "-1", "--p", "300",
                               "--max-steps", "5"),
    "psi-overflow-f": lambda tmp: ("run", "--torus", f"64:{TWO_PI_STR}", "--psi", "1e300",
                                   "--max-steps", "5"),
    "out-directory": lambda tmp: ("run", "--torus", "16:1", "--psi", "-1", "--max-steps", "1",
                                  "--out", str(tmp)),
    "psi-deep-parens": lambda tmp: ("eigen", "--torus", "8:6.28",
                                    "--psi=" + "(" * 300 + "1" + ")" * 300),
    "psi-deep-minus": lambda tmp: ("eigen", "--torus", "8:6.28", "--psi=" + "-" * 985 + "1"),
    "torus-step-zero": lambda tmp: ("eigen", "--torus", "3:5e-324", "--psi", "1"),
    "torus-step-inverse-overflow": lambda tmp: ("eigen", "--torus", "4:1e-310", "--psi", "1"),
    "torus-weight-overflow": lambda tmp: ("eigen", "--torus", "3:3e-300,3:3e300", "--psi", "1"),
    "torus-smoother-overflow": lambda tmp: ("run", "--torus", "8:1e200", "--psi", "-1"),
    # the same on a product, whose smoother is diagonalized rather than factored
    "torus-smoother-overflow-product": lambda tmp: ("run", "--torus", "8:1e200,8:1",
                                                    "--psi", "-1"),
    # M + ell^2 S is finite, but M is lost next to its short-side rows of ell^2 S, which
    # cancel to 0: SuperLU would find it singular, and the product's smoother says so too
    "torus-smoother-singular": lambda tmp: ("run", "--torus", "3:1e50,3:1e-50", "--psi", "-1"),
    "sweep-smoother-singular": lambda tmp: ("sweep", "--torus", "3:1e50,3:1e-50", "--psi", "-1"),
    # overflow in the area integral or in K: the error line comes with no numpy warning
    "gauss-psi-overflow": lambda tmp: ("gauss", "--torus", "8:6.28,8:6.28", "--psi", "1e308"),
    "gauss-psi-overflow-K": lambda tmp: ("gauss", "--torus", "8:6.28,8:6.28",
                                         "--psi", "1e200*cos(x1)", "--max-steps", "5"),
    # u stays finite, but e^{2u} overflows, so f is NaN after one step
    "gauss-f-nan": lambda tmp: ("gauss", "--torus", "8:6.28,8:6.28", "--psi", "1e100*cos(x1)",
                                "--max-steps", "1"),
}


# what the error line must name, where a later failure could mask the cause
BAD_INPUT_NAMES = {"gauss-preset": "--preset",
                   "tol-inf": "tol_f", "c-inf": "--c", "eigen-c-nan": "--c",
                   "off-nan-vertex": "line 8", "p-overflow": "f = inf",
                   "psi-overflow-f": "f = inf", "psi-deep-parens": "nests too deeply",
                   "psi-deep-minus": "nests too deeply", "torus-step-zero": "N/L",
                   "torus-step-inverse-overflow": "N/L", "torus-weight-overflow": "stiffness",
                   "torus-smoother-overflow": "ell^2",
                   "torus-smoother-overflow-product": "ell^2",
                   "torus-smoother-singular": "correlation length",
                   "sweep-smoother-singular": "correlation length",
                   "gauss-f-nan": "f = nan"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_gives_one_error_line(case, tmp_path, capsys, monkeypatch):
    # in process: a warning that a fresh interpreter would print to stderr as lines of
    # its own is recorded here instead, and must not occur
    monkeypatch.delenv("CURVFLOW_LOG", raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for hidden in (DeprecationWarning, PendingDeprecationWarning):
            warnings.simplefilter("ignore", hidden)
        code = cli.main(list(BAD_INPUTS[case](tmp_path)))
    err = capsys.readouterr().err
    assert code == 1
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:")
    assert BAD_INPUT_NAMES.get(case, "") in lines[0]
    assert "Traceback" not in err


def test_entry_point_exits_with_the_error_line():
    # the one run of `python -m curvflow.cli` in a fresh interpreter, for the exit status
    env = dict(os.environ)
    env.pop("CURVFLOW_LOG", None)
    res = subprocess.run([sys.executable, "-m", "curvflow.cli", *BAD_INPUTS["p-below-1"](None)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("first,second", [("quiet", "info"), ("info", "quiet")])
def test_every_main_call_applies_curvflow_log(first, second, capsys, monkeypatch):
    argv = ["gauss", "--torus", "8:1,8:1", "--psi", "1", "--tmax", "0.01"]
    log, root = logging.getLogger("curvflow"), logging.getLogger()
    level, handlers, root_handlers = log.level, list(log.handlers), list(root.handlers)
    try:
        for name in (first, second):
            monkeypatch.setenv("CURVFLOW_LOG", name)
            assert cli.main(argv) == 0
            err = capsys.readouterr().err
            assert ("INFO curvflow.gauss: normalizing term" in err) == (name == "info"), err
        assert sum(isinstance(h, cli._Stderr) for h in log.handlers) == 1
        assert root.handlers == root_handlers
    finally:
        log.setLevel(level)
        log.handlers[:] = handlers
