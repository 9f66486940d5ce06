import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qdecouple.cli import ConfigError, RunConfig, parse_config_file, run_command

SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg_path = _write(tmp_path, """
# comment
[model]
name = two_qubit
g = 10
env_levels = 3

[integrator]
dt = 0.001
t_end = 2.0

[tolerances]
decoupling = 1e-4

[output]
directory = out
""")
    cfg = parse_config_file(cfg_path)
    assert cfg.model == "two_qubit"
    assert cfg.g == 10 + 0j
    assert cfg.t_end == 2.0
    assert cfg.output_dir == "out"


# every key of the six sections: config line, RunConfig field, parsed value
CONFIG_KEYS = [
    ("[model]\nname = restructured", "model", "restructured"),
    ("[model]\nomega0 = 2.5", "omega0", 2.5),
    ("[model]\nomega_env = 0.5", "omega_env", 0.5),
    ("[model]\ng = 3+4j", "g", 3 + 4j),
    ("[model]\nw = 0.5-1j", "w", 0.5 - 1j),
    ("[model]\nj1 = 1.5", "j1", 1.5),
    ("[model]\nj2 = -2", "j2", -2.0),
    ("[model]\nenv_levels = 4", "env_levels", 4),
    ("[model]\nn_sys = 6", "n_sys", 6),
    ("[initial_state]\npreset = random", "state_preset", "random"),
    ("[initial_state]\namplitudes = 1, 0.5j, 0, 1-1j", "amplitudes", [1 + 0j, 0.5j, 0j, 1 - 1j]),
    ("[schedule]\nkind = sinusoidal", "schedule_kind", "sinusoidal"),
    ("[schedule]\nchannels = 1, 4,", "channels", [1, 4]),
    ("[schedule]\nvalues = 0.5, 2", "values", [0.5, 2.0]),
    ("[schedule]\namplitudes = 1.5", "sin_amplitudes", [1.5]),
    ("[schedule]\nfrequencies = 1, 3", "frequencies", [1.0, 3.0]),
    ("[schedule]\nphases = 0, 1.5", "phases", [0.0, 1.5]),
    ("[integrator]\ndt = 1e-4", "dt", 1e-4),
    ("[integrator]\nt_end = 3", "t_end", 3.0),
    ("[integrator]\nnorm_guard = 1e-6", "norm_guard", 1e-6),
    ("[tolerances]\nrank = 1e-8", "tol_rank", 1e-8),
    ("[tolerances]\ninvariance = 1e-7", "tol_invariance", 1e-7),
    ("[tolerances]\ndecoupling = 1e-3", "tol_decoupling", 1e-3),
    ("[output]\ndirectory = out/run", "output_dir", "out/run"),
]


@pytest.mark.parametrize("text,name,value", CONFIG_KEYS,
                         ids=[text.split(" =")[0].replace("\n", " ") for text, _, _ in CONFIG_KEYS])
def test_config_key_sets_its_field(tmp_path, text, name, value):
    cfg = parse_config_file(_write(tmp_path, text + "\n"))
    assert cfg == replace(RunConfig(), **{name: value})
    assert repr(getattr(cfg, name)) == repr(value)  # int stays int, complex stays complex


def test_config_unknown_key_is_line_anchored(tmp_path):
    cfg_path = _write(tmp_path, "[model]\nname = two_qubit\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(cfg_path)
    assert ":3:" in str(err.value)
    assert "bogus" in str(err.value)


def test_config_unknown_section(tmp_path):
    cfg_path = _write(tmp_path, "[nope]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(cfg_path)
    assert ":1:" in str(err.value)


def test_config_key_outside_section(tmp_path):
    cfg_path = _write(tmp_path, "name = two_qubit\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(cfg_path)
    assert "section" in str(err.value)


def test_config_bad_value(tmp_path):
    cfg_path = _write(tmp_path, "[integrator]\ndt = banana\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(cfg_path)
    assert ":2:" in str(err.value)


def test_config_error_exit_code(tmp_path, capsys):
    cfg_path = _write(tmp_path, "[model]\nbogus = 1\n")
    code = run_command(["--config", cfg_path, "dfs", "--qubits", "2",
                        "--output-dir", str(tmp_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[integrator]\nnorm_guard = -1\n", "norm_guard must be finite and positive"),
    ("[tolerances]\nrank = nan\n", "tol_rank must be finite and positive"),
    ("[tolerances]\ndecoupling = 0\n", "tol_decoupling must be finite and positive"),
    ("[schedule]\nkind = piecewise_constant\n",
     ":2: bad value for 'kind': schedule kind 'piecewise_constant' needs explicit "
     "breakpoints; use the library API for piecewise schedules"),
    ("[model]\ng = nan\n", "config error: parameter g must be finite\n"),
], ids=["norm_guard", "rank", "decoupling", "piecewise", "g_nan"])
def test_config_value_rejected_before_running(tmp_path, capsys, text, message):
    cfg_path = _write(tmp_path, text)
    code = run_command(["--config", cfg_path, "simulate", "--model", "two_qubit",
                        "--t-end", "0.01", "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "simulate_report.txt").exists()


def test_model_params_rejected_before_running(tmp_path, capsys):
    code = run_command(["dfs", "--qubits", "2", "--env-levels", "1",
                        "--output-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "config error: env_levels must be >= 2, got 1\n"
    assert out == ""
    assert not (tmp_path / "dfs_2q.txt").exists()


def test_dfs_qubit_range_rejected_before_running(tmp_path, capsys):
    code = run_command(["dfs", "--qubits", "5", "--output-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "config error: n_qubits must be within [1, 4], got 5\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_config_n_sys_rejected_before_running(tmp_path, capsys):
    cfg = tmp_path / "cavity.ini"
    cfg.write_text("[model]\nn_sys = 2\n")
    out_dir = tmp_path / "out"
    code = run_command(["--config", str(cfg), "check", "--model", "electro_optic",
                        "--output-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "config error: n_sys must be >= 3, got 2\n"
    assert out == ""
    assert not out_dir.exists()


def test_off_grid_t_end_rejected_before_running(tmp_path, capsys):
    # 0.0015 is not a whole number of steps of 1e-3; the run would end at 0.002
    code = run_command(["simulate", "--model", "two_qubit", "--t-end", "0.0015",
                        "--output-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ("config error: t_end must be a whole number of steps dt, "
                   "got t_end=0.0015, dt=0.001\n")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_check_one_qubit_not_decouplable(tmp_path, capsys):
    code = run_command(["check", "--model", "one_qubit",
                        "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "NOT DECOUPLABLE" in out
    report = (tmp_path / "check_one_qubit.txt").read_text()
    assert report.startswith("schema-version: 1")


def test_check_two_qubit_not_decouplable(tmp_path, capsys):
    code = run_command(["check", "--model", "two_qubit",
                        "--output-dir", str(tmp_path)])
    assert code == 2


def test_check_restructured_decouplable(tmp_path, capsys):
    code = run_command(["check", "--model", "restructured",
                        "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "DECOUPLABLE" in out


def test_dfs_lists_protected_pair(tmp_path, capsys):
    code = run_command(["dfs", "--qubits", "2", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "(01, 10)" in out


def test_synthesize_demo(tmp_path, capsys):
    code = run_command(["synthesize-demo", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ranks: K=3 q=2 r=17" in out
    assert "beta rank" in out


def test_synthesize_demo_honours_model(tmp_path, capsys):
    code = run_command(["synthesize-demo", "--model", "two_qubit",
                        "--output-dir", str(tmp_path)])
    assert code == 1
    assert "synthesize-demo requires --model restructured" in capsys.readouterr().err
    assert not (tmp_path / "synthesize_demo.txt").exists()


def test_synthesize_demo_honours_config_model(tmp_path, capsys):
    cfg_path = _write(tmp_path, "[model]\nname = two_qubit\n")
    code = run_command(["--config", cfg_path, "synthesize-demo",
                        "--output-dir", str(tmp_path)])
    assert code == 1
    assert "synthesize-demo requires --model restructured" in capsys.readouterr().err
    assert not (tmp_path / "synthesize_demo.txt").exists()


def test_dfs_honours_g(tmp_path, capsys):
    # without coupling every coherence is protected, not only equal-weight pairs
    code = run_command(["dfs", "--qubits", "2", "--g", "0", "--output-dir", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "dfs_2q.txt").read_text()
    assert "coupling: g=0+0j" in report
    assert "protected coherence pairs (16 total, 12 off-diagonal):" in report


@pytest.mark.parametrize("argv", [
    ["synthesize-demo", "--env-levels", "4"],
    ["simulate", "--model", "restructured", "--mode", "closed", "--env-levels", "4"],
])
def test_invariant_basis_failure_is_a_one_line_error(tmp_path, capsys, argv):
    # {I, D, D^2} does not dress a 4-level environment into a valid table
    assert run_command(argv + ["--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: commutation table violated")
    assert err.count("\n") == 1


def test_simulate_writes_csv_deterministically(tmp_path, capsys):
    args = ["simulate", "--model", "two_qubit", "--schedule", "constant",
            "--t-end", "0.05", "--output-dir", str(tmp_path)]
    assert run_command(args) == 0
    first = (tmp_path / "trajectory_two_qubit.csv").read_bytes()
    assert run_command(args) == 0
    second = (tmp_path / "trajectory_two_qubit.csv").read_bytes()
    assert first == second
    header = first.decode().split("\n", 1)[0]
    assert header.startswith("t,re_y,im_y,abs_y,norm,u1")


def test_compare_identical_strengths_pass(tmp_path, capsys):
    code = run_command(["compare", "--model", "two_qubit", "--mode", "open",
                        "--g", "0,0", "--t-end", "0.5",
                        "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert (tmp_path / "compare_two_qubit.csv").exists()


def test_compare_open_contrast_fails(tmp_path, capsys):
    code = run_command(["compare", "--model", "two_qubit", "--mode", "open",
                        "--g", "0,10", "--t-end", "2.0",
                        "--tolerance-decoupling", "0.05",
                        "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out


def test_compare_labels_complex_g_in_full(tmp_path, capsys):
    code = run_command(["compare", "--model", "two_qubit", "--mode", "open",
                        "--g", "0,10j,10", "--t-end", "0.05",
                        "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code in (0, 2)
    labels = [line.split(":", 1)[0] for line in out.splitlines() if line.startswith("g=")]
    assert labels == ["g=0", "g=0+10j", "g=10"]
    assert ("max complex deviation |y - y(g=0)|: g=0 0.000000e+00, g=0+10j "
            in out)
    header = (tmp_path / "compare_two_qubit.csv").read_text().split("\n", 1)[0]
    assert header == "t,abs_y_g=0,abs_y_g=0+10j,abs_y_g=10,dev_g=0+10j,dev_g=10"


def test_compare_protective_passes(tmp_path, capsys):
    code = run_command(["compare", "--model", "restructured", "--mode", "closed",
                        "--feedback", "protective", "--g", "0,10",
                        "--t-end", "1.0", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS max deviation < tol" in out


def test_check_restructured_bracket_line_uses_invariance_tolerance(tmp_path, capsys):
    # the worst bracket residual is about 3e-15, so a tighter tolerance flips the line
    code = run_command(["check", "--model", "restructured", "--tolerance-invariance",
                        "1e-16", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "close into the control span: False" in out
    assert "VERDICT: NOT DECOUPLABLE" in out


# ---------------------------------------------------------------------------
# check reports, pinned line by line
# ---------------------------------------------------------------------------

_BRACKETS = "control brackets with interaction close into the control span: "

CHECK_REPORTS = [
    pytest.param(["--model", "one_qubit"], 2, [
        "schema-version: 1",
        "report: check one_qubit",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=3 depth=3 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_failed",
        "interaction field in ker(dy): False (relative witness norm 8.165e-01)",
        "VERDICT: NOT DECOUPLABLE: [C, H_SE] != 0 or closure escapes",
    ], id="one_qubit"),
    pytest.param(["--model", "two_qubit"], 2, [
        "schema-version: 1",
        "report: check two_qubit",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=9 depth=5 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        "VERDICT: NOT DECOUPLABLE: [C, H_SE] != 0 or closure escapes",
    ], id="two_qubit"),
    pytest.param(["--model", "restructured"], 0, [
        "schema-version: 1",
        "report: check restructured",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=143 depth=7 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_passed_sufficient_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        _BRACKETS + "True (worst relative residual 2.915e-15)",
        "VERDICT: DECOUPLABLE (controlled sufficiency conditions hold)",
    ], id="restructured"),
    pytest.param(["--model", "electro_optic"], 2, [
        "schema-version: 1",
        "report: check electro_optic",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=89 depth=12 converged=False",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_failed",
        "interaction field in ker(dy): False (relative witness norm 8.607e-02)",
        "VERDICT: NOT DECOUPLABLE: [C, H_SE] != 0 or closure escapes",
    ], id="electro_optic"),
    pytest.param(["--model", "ancilla", "--env-levels", "2"], 2, [
        "schema-version: 1",
        "report: check ancilla",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=252 depth=12 converged=False",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        "VERDICT: NOT DECOUPLABLE: [C, H_SE] != 0 or closure escapes",
    ], id="ancilla-env2"),
    pytest.param(["--model", "restructured", "--env-levels", "2"], 0, [
        "schema-version: 1",
        "report: check restructured",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=63 depth=7 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_passed_sufficient_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        _BRACKETS + "True (worst relative residual 5.413e-15)",
        "VERDICT: DECOUPLABLE (controlled sufficiency conditions hold)",
    ], id="restructured-env2"),
    pytest.param(["--model", "restructured", "--env-levels", "4"], 2, [
        "schema-version: 1",
        "report: check restructured",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=255 depth=7 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_passed_sufficient_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        _BRACKETS + "False (worst relative residual 2.722e-01)",
        "VERDICT: NOT DECOUPLABLE",
    ], id="restructured-env4"),
    pytest.param(["--model", "restructured", "--env-levels", "5"], 2, [
        "schema-version: 1",
        "report: check restructured",
        "tolerances: rank=1e-09 invariance=1e-09 decoupling=0.0001",
        "closure: rank=399 depth=7 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_passed_sufficient_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        _BRACKETS + "False (worst relative residual 3.303e-01)",
        "VERDICT: NOT DECOUPLABLE",
    ], id="restructured-env5"),
    pytest.param(["--model", "restructured", "--tolerance-invariance", "1e-16"], 2, [
        "schema-version: 1",
        "report: check restructured",
        "tolerances: rank=1e-09 invariance=1e-16 decoupling=0.0001",
        "closure: rank=143 depth=7 converged=True",
        "open-loop invariance: not_invariant",
        "controller necessity: necessary_failed",
        "interaction field in ker(dy): True (relative witness norm 0.000e+00)",
        _BRACKETS + "False (worst relative residual 2.915e-15)",
        "VERDICT: NOT DECOUPLABLE",
    ], id="restructured-tol1e-16"),
]
# a residual figure at the end of a report line, and the line's cutoff as a
# function of the invariance tolerance
_FIGURE = re.compile(r"^(.*\((?:relative witness norm|worst relative residual) )(\S+)\)$")


def _cutoff(line, tol_invariance):
    return max(tol_invariance, 1e-10) if "ker(dy)" in line else tol_invariance


@pytest.mark.parametrize("argv,exit_code,expected", CHECK_REPORTS)
def test_check_report_lines(tmp_path, capsys, argv, exit_code, expected):
    # every report line byte for byte, except that a printed residual only
    # has to fall on the same side of its cutoff, so that another BLAS build
    # may round it differently; stdout echoes the report after its header
    code = run_command(["check", *argv, "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == exit_code
    report = (tmp_path / f"check_{argv[1]}.txt").read_text()
    lines = report.splitlines()
    assert report == "\n".join(lines) + "\n"
    assert out == "\n".join(lines[3:]) + "\n"
    assert len(lines) == len(expected)
    tol = float(re.search(r"invariance=(\S+)", expected[2]).group(1))
    for got, want in zip(lines, expected):
        got_m, want_m = _FIGURE.match(got), _FIGURE.match(want)
        if want_m is None:
            assert got == want
            continue
        assert got_m is not None and got_m.group(1) == want_m.group(1)
        cutoff = _cutoff(want, tol)
        assert (float(got_m.group(2)) <= cutoff) == (float(want_m.group(2)) <= cutoff)


def _run_into_closed_stdout(tmp_path, argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "qdecouple.cli", *argv], cwd=tmp_path,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the child's first write
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_not_an_error(tmp_path, unbuffered):
    code, err = _run_into_closed_stdout(
        tmp_path, ["dfs", "--qubits", "4", "--output-dir", str(tmp_path)], unbuffered)
    assert code == 0, err.decode()
    assert err == b""
    report = (tmp_path / "dfs_4q.txt").read_text()
    assert "protected coherence pairs (70 total" in report
    assert report.count("\n  (") == 70


def test_help_into_closed_stdout_is_not_an_error(tmp_path):
    # buffered: the help text meets the closed pipe only at the final flush
    code, err = _run_into_closed_stdout(tmp_path, ["simulate", "--help"], "")
    assert code == 0, err.decode()
    assert err == b""


def test_tolerance_override_recorded(tmp_path, capsys):
    code = run_command(["dfs", "--qubits", "1", "--tolerance-invariance", "1e-7",
                        "--output-dir", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "dfs_1q.txt").read_text()
    assert "invariance=1e-07" in report


def test_g_list_outside_compare_is_a_usage_error(tmp_path, capsys):
    code = run_command(["simulate", "--model", "two_qubit", "--g", "0,10",
                        "--t-end", "0.01", "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --g takes one value with simulate")
    assert err.count("\n") == 1
    assert not (tmp_path / "simulate_report.txt").exists()


def test_usage_error_exit_code(capsys):
    assert run_command(["check", "--model", "not_a_model"]) == 1
    assert run_command(["no-such-command"]) == 1
    capsys.readouterr()
