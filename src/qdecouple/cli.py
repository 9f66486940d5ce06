"""Configuration-driven command-line front end.

Subcommands: check (invariance/decouplability verdicts), dfs (protected
coherence discovery), synthesize-demo (feedback synthesis at one state),
simulate (single trajectory to CSV), compare (multi-strength decoupling
report).  Exit codes: 0 success/pass, 2 negative verdict or failed
comparison, 1 usage, configuration or numerical error.

The config file is a flat key = value format with [section] headers, read
through one schema; unknown keys are rejected with a line-anchored
message.  Command-line flags override file values, and values the library
rejects (model parameters, the electro-optic cavity size, dfs's qubit
count) are config errors, raised before anything runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import models as _models
from .invariance import _check_dfs_qubits, decide, find_dfs_coherences
from .models import ModelParams, _check_n_sys
from .simulator import (
    ControlSchedule,
    NormGuardError,
    compare_decoupling,
    integrate_closed_loop,
    integrate_open_loop,
    preset_state,
    write_trajectory_csv,
    _atomic_write,
    _g_label,
    _grid_size,
)
from .synthesis import (
    DegenerateStateError,
    InvariantBasisError,
    build_invariant_basis,
    synthesize_alpha_beta,
)

__all__ = ["main", "run_command", "RunConfig", "ConfigError", "demo_schedule"]

SCHEMA_VERSION = 1

MODEL_BUILDERS = {
    "one_qubit": _models.build_one_qubit,
    "two_qubit": _models.build_two_qubit,
    "electro_optic": _models.build_electrooptic,
    "ancilla": _models.build_ancilla_system,
    "restructured": _models.build_restructured,
}

class ConfigError(ValueError):
    """Malformed configuration; message carries file and line."""


@dataclass
class RunConfig:
    """Flattened run configuration with strict key checking."""

    model: Optional[str] = None  # two_qubit, or restructured for synthesize-demo
    omega0: float = 1.0
    omega_env: float = 1.0
    g: complex = 10.0
    w: complex = 1.0
    j1: float = 1.0
    j2: float = 1.0
    env_levels: int = 3
    n_sys: int = 10
    state_preset: str = "dfs_pair"
    amplitudes: Optional[list[complex]] = None
    schedule_kind: str = "constant"
    channels: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    sin_amplitudes: list[float] = field(default_factory=list)
    frequencies: list[float] = field(default_factory=list)
    phases: list[float] = field(default_factory=list)
    dt: float = 1e-3
    t_end: float = 20.0
    norm_guard: float = 1e-4
    tol_rank: float = 1e-9
    tol_invariance: float = 1e-9
    tol_decoupling: float = 1e-4
    output_dir: str = "."

    def params(self) -> ModelParams:
        return ModelParams(omega0=self.omega0, omega_env=self.omega_env,
                           g=self.g, w=self.w, j1=self.j1, j2=self.j2,
                           env_levels=self.env_levels)


def _csv(item: type):
    """Parser of a comma-separated list of `item` values."""
    return lambda value: [item(x) for x in value.split(",") if x.strip()]


def _model_name(value: str) -> str:
    if value not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {value!r}")
    return value


def _schedule_kind(value: str) -> str:
    if value == "piecewise_constant":
        raise ValueError("schedule kind 'piecewise_constant' needs explicit "
                         "breakpoints; use the library API for piecewise schedules")
    if value not in ("zero", "constant", "sinusoidal"):
        raise ValueError(f"unknown schedule kind {value!r}")
    return value


# [section] key -> (RunConfig field, value parser)
_SCHEMA = {
    "model": {"name": ("model", _model_name), "omega0": ("omega0", float),
              "omega_env": ("omega_env", float), "g": ("g", complex), "w": ("w", complex),
              "j1": ("j1", float), "j2": ("j2", float), "env_levels": ("env_levels", int),
              "n_sys": ("n_sys", int)},
    "initial_state": {"preset": ("state_preset", str), "amplitudes": ("amplitudes", _csv(complex))},
    "schedule": {"kind": ("schedule_kind", _schedule_kind), "channels": ("channels", _csv(int)),
                 "values": ("values", _csv(float)), "amplitudes": ("sin_amplitudes", _csv(float)),
                 "frequencies": ("frequencies", _csv(float)), "phases": ("phases", _csv(float))},
    "integrator": {"dt": ("dt", float), "t_end": ("t_end", float),
                   "norm_guard": ("norm_guard", float)},
    "tolerances": {"rank": ("tol_rank", float), "invariance": ("tol_invariance", float),
                   "decoupling": ("tol_decoupling", float)},
    "output": {"directory": ("output_dir", str)},
}


def parse_config_file(path: str) -> RunConfig:
    """Parse the flat key = value config with line-anchored errors."""
    cfg = RunConfig()
    section = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc

    def err(lineno, msg):
        raise ConfigError(f"{path}:{lineno}: {msg}")

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                err(lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            err(lineno, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            err(lineno, "key outside any [section]")
        if key not in _SCHEMA[section]:
            err(lineno, f"unknown key {key!r} in section [{section}]")
        name, parse = _SCHEMA[section][key]
        try:
            setattr(cfg, name, parse(value))
        except (ValueError, TypeError) as exc:
            err(lineno, f"bad value for {key!r}: {exc}")
    return cfg


def _validate(cfg: RunConfig, n_qubits: Optional[int] = None):
    """Rejects, before anything runs, the values the library would reject;
    `n_qubits` is dfs's register size."""
    for name in ("dt", "t_end", "norm_guard", "tol_rank", "tol_invariance", "tol_decoupling"):
        value = getattr(cfg, name)
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    try:
        cfg.params()
        _check_n_sys(cfg.n_sys)
        _grid_size(cfg.t_end, cfg.dt)
        if n_qubits is not None:
            _check_dfs_qubits(n_qubits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# experiment defaults
# ---------------------------------------------------------------------------

def demo_schedule(n_channels: int, kind: str) -> ControlSchedule:
    """The default drive presets.

    For the 24-channel restructured system the drive enters on channels
    1, 4, 7, 10 (the channels whose bare counterparts are the four
    single-qubit fields); for a 4-control model, on channel 1.  Every
    amplitude is 1; sinusoidal drives have frequencies 1, 1, 2, 2 and
    phases 0, pi/2, 0, pi/2.
    """
    preset = RunConfig(schedule_kind=kind,
                       channels=[1, 4, 7, 10] if n_channels >= 24 else [1],
                       frequencies=[1.0, 1.0, 2.0, 2.0],
                       phases=[0.0, np.pi / 2, 0.0, np.pi / 2])
    return _schedule_from_config(preset, n_channels)


def _schedule_from_config(cfg: RunConfig, n_channels: int) -> ControlSchedule:
    """The configured drive on the 1-based `cfg.channels`, the demo preset
    without them; each value list cycles over the channels."""
    if not cfg.channels:
        return demo_schedule(n_channels, cfg.schedule_kind)
    idx = [c - 1 for c in cfg.channels]
    if any(i < 0 or i >= n_channels for i in idx):
        raise ConfigError(f"channel out of range 1..{n_channels}: {cfg.channels}")

    def spread(vals: list[float], rest: float) -> np.ndarray:
        out = np.full(n_channels, rest)
        for i, ch in enumerate(idx):
            out[ch] = vals[i % len(vals)]
        return out

    if cfg.schedule_kind == "zero":
        return ControlSchedule.zero(n_channels)
    if cfg.schedule_kind == "constant":
        return ControlSchedule.constant(spread(cfg.values or [1.0], 0.0))
    if cfg.schedule_kind == "sinusoidal":
        return ControlSchedule.sinusoidal(spread(cfg.sin_amplitudes or [1.0], 0.0),
                                          spread(cfg.frequencies or [1.0], 1.0),
                                          spread(cfg.phases or [0.0], 0.0))
    raise ValueError(f"unknown schedule preset {cfg.schedule_kind!r}")


def _build_model(cfg: RunConfig):
    builder = MODEL_BUILDERS[cfg.model]
    if cfg.model == "electro_optic":
        return builder(cfg.n_sys, cfg.params())
    return builder(cfg.params())


def _initial_state(cfg: RunConfig, model) -> np.ndarray:
    if cfg.amplitudes is not None:
        xi = np.asarray(cfg.amplitudes, dtype=complex)
        if xi.size != model.dim:
            raise ConfigError(f"initial state needs {model.dim} amplitudes, "
                              f"got {xi.size}")
        n = np.linalg.norm(xi)
        if n == 0:
            raise ConfigError("initial state must be nonzero")
        return xi / n
    return preset_state(model, cfg.state_preset)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _stdout_to_devnull():
    """The reader of stdout is gone: later writes and the final flush go to os.devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


class _Report:
    def __init__(self, cfg: RunConfig, title: str):
        self.lines: list[str] = [
            f"schema-version: {SCHEMA_VERSION}",
            f"report: {title}",
            f"tolerances: rank={cfg.tol_rank:g} invariance={cfg.tol_invariance:g} "
            f"decoupling={cfg.tol_decoupling:g}",
        ]
        self.cfg = cfg
        self.title = title

    def add(self, line: str = ""):
        self.lines.append(line)
        try:
            print(line, flush=True)
        except BrokenPipeError:
            # the rest of the echo goes to os.devnull; the report is still written
            _stdout_to_devnull()

    def write(self, filename: str):
        os.makedirs(self.cfg.output_dir, exist_ok=True)
        path = os.path.join(self.cfg.output_dir, filename)
        _atomic_write(path, (line + "\n" for line in self.lines))
        return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Decision.verdict -> (exit code, VERDICT line); a failed necessity check
# names its condition, read from Decision.condition_1
_VERDICTS = {
    "invariant": (0, "INVARIANT (open loop, immune without controls)"),
    "decouplable": (0, "DECOUPLABLE (controlled sufficiency conditions hold)"),
    "not_decouplable": (2, "NOT DECOUPLABLE"),
    "necessary_failed": (2, "NOT DECOUPLABLE: condition 1 fails, [C, H_SE] != 0"),
    "closure_escapes": (2, "NOT DECOUPLABLE: condition 2 fails, a bracket [T, H_SE] "
                           "leaves the closure's span"),
    "necessary_passed_sufficient_failed":
        (2, "NOT OPEN-LOOP INVARIANT; controller necessary conditions hold"),
}


def _cmd_check(cfg: RunConfig) -> int:
    decision = decide(_build_model(cfg), cfg.tol_rank, cfg.tol_invariance)
    rep = _Report(cfg, f"check {cfg.model}")
    dist = decision.closure
    rep.add(f"closure: rank={dist.rank} depth={dist.depth_reached} "
            f"converged={dist.converged}")
    rep.add(f"open-loop invariance: {decision.open_loop.verdict}")
    rep.add(f"controller necessity: {decision.necessary.verdict}")
    rep.add(f"interaction field in ker(dy): {decision.kernel.member} "
            f"(relative witness norm {decision.kernel.residual:.3e})")
    if decision.brackets_close is not None:
        rep.add(f"control brackets with interaction close into the control span: "
                f"{decision.brackets_close} (worst relative residual "
                f"{decision.bracket_residual:.3e})")
    escapes = decision.verdict == "necessary_failed" and decision.condition_1.member
    exit_code, line = _VERDICTS["closure_escapes" if escapes else decision.verdict]
    rep.add(f"VERDICT: {line}")
    rep.write(f"check_{cfg.model}.txt")
    return exit_code


def _cmd_dfs(cfg: RunConfig, n_qubits: int) -> int:
    rep = _Report(cfg, f"dfs n_qubits={n_qubits}")
    rep.add(f"coupling: g={_g_label(complex(cfg.g))}")
    pairs, _ops = find_dfs_coherences(n_qubits, cfg.env_levels, cfg.tol_invariance,
                                      omega0=cfg.omega0, omega_env=cfg.omega_env,
                                      g=cfg.g)
    off_diag = [(a, b) for a, b in pairs if a != b]
    rep.add(f"protected coherence pairs ({len(pairs)} total, "
            f"{len(off_diag)} off-diagonal):")
    for a, b in pairs:
        rep.add(f"  ({a}, {b})")
    rep.write(f"dfs_{n_qubits}q.txt")
    return 0


def _cmd_synthesize_demo(cfg: RunConfig, lift: bool) -> int:
    if cfg.model != "restructured":
        print("synthesize-demo requires --model restructured", file=sys.stderr)
        return 1
    model = _build_model(cfg)
    basis = build_invariant_basis(model, lift_complement=lift, tol=cfg.tol_rank)
    xi = _initial_state(cfg, model)
    rep = _Report(cfg, "synthesize-demo")
    try:
        sample = synthesize_alpha_beta(xi, model, basis, cfg.tol_rank)
    except DegenerateStateError as exc:
        rep.add(f"DEGENERATE STATE: {exc}")
        rep.write("synthesize_demo.txt")
        return 1
    K, q, r = sample.ranks
    rep.add(f"ranks: K={K} q={q} r={r}")
    rep.add(f"beta rank: {sample.beta_rank} / {model.n_controls}")
    rep.add("least-squares residuals (complement columns, then drift):")
    for i, res in enumerate(sample.residuals):
        label = f"column {i + 1}" if i < q else "alpha"
        rep.add(f"  {label}: {res:.6e}")
    rep.add(f"max |alpha| = {np.abs(sample.alpha).max():.6e}, "
            f"max |beta| = {np.abs(sample.beta).max():.6e}")
    for w in sample.warnings:
        rep.add(f"warning: {w}")
    rep.write("synthesize_demo.txt")
    return 0


def _cmd_simulate(cfg: RunConfig, mode: str, feedback: str, lift: bool,
                  out_csv: Optional[str]) -> int:
    model = _build_model(cfg)
    xi0 = _initial_state(cfg, model)
    schedule = _schedule_from_config(cfg, model.n_controls)
    rep = _Report(cfg, f"simulate {cfg.model} mode={mode}")
    try:
        if mode == "open":
            traj = integrate_open_loop(model, schedule, xi0, cfg.t_end, cfg.dt,
                                       cfg.norm_guard)
        else:
            basis = None
            if feedback == "least_squares":
                basis = build_invariant_basis(model, lift_complement=lift,
                                              tol=cfg.tol_rank)
            traj = integrate_closed_loop(model, schedule, xi0, cfg.t_end, cfg.dt,
                                         basis=basis, tol=cfg.tol_rank,
                                         norm_guard=cfg.norm_guard, feedback=feedback)
    except (NormGuardError, DegenerateStateError) as exc:
        rep.add(f"ABORTED: {exc}")
        rep.write("simulate_report.txt")
        return 1
    rep.add(f"steps: {traj.times.size - 1}, dt={cfg.dt:g}, t_end={cfg.t_end:g}")
    rep.add(f"|y| range: [{traj.abs_y.min():.6f}, {traj.abs_y.max():.6f}]")
    rep.add(f"max norm drift: {traj.max_norm_drift:.3e}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, out_csv or f"trajectory_{cfg.model}.csv")
    write_trajectory_csv(traj, csv_path)
    rep.add(f"trajectory written: {csv_path}")
    rep.write("simulate_report.txt")
    return 0


def _cmd_compare(cfg: RunConfig, g_list: list[complex], mode: str, feedback: str,
                 lift: bool, out_csv: Optional[str]) -> int:
    if cfg.model == "electro_optic":
        print("compare supports the spin-boson models", file=sys.stderr)
        return 1
    builder = MODEL_BUILDERS[cfg.model]
    g_labels = ",".join(map(_g_label, g_list))
    rep = _Report(cfg, f"compare {cfg.model} mode={mode} g={g_labels}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, out_csv or f"compare_{cfg.model}.csv")

    model = builder(cfg.params())
    schedule = _schedule_from_config(cfg, model.n_controls)
    xi0 = _initial_state(cfg, model)
    basis_builder = None
    if mode == "closed" and feedback == "least_squares":
        basis_builder = lambda m: build_invariant_basis(m, lift_complement=lift,
                                                        tol=cfg.tol_rank)
    try:
        report = compare_decoupling(
            builder, g_list, schedule, xi0, cfg.t_end, cfg.dt,
            mode=mode, params=cfg.params(), tolerance=cfg.tol_decoupling,
            tol=cfg.tol_rank, norm_guard=cfg.norm_guard, feedback=feedback,
            basis_builder=basis_builder, csv_path=csv_path)
    except (NormGuardError, DegenerateStateError) as exc:
        rep.add(f"ABORTED: {exc}")
        rep.write("compare_report.txt")
        return 1
    for g in report.g_values:
        rep.add(f"g={_g_label(g)}: max |y| deviation "
                f"{report.max_abs_deviation[g]:.6e}, "
                f"norm drift {report.norm_drift[g]:.3e}, "
                f"runtime {report.runtimes[g]:.1f}s")
    rep.add("max complex deviation |y - y(g=0)|: " + ", ".join(
        f"g={_g_label(g)} {report.max_complex_deviation[g]:.6e}" for g in report.g_values))
    if report.passed:
        rep.add(f"PASS max deviation < tol ({cfg.tol_decoupling:g})")
    else:
        worst = max(v for g, v in report.max_abs_deviation.items() if g != 0)
        rep.add(f"FAIL max deviation {worst:.6e} >= tol ({cfg.tol_decoupling:g})")
    rep.add(f"csv written: {csv_path}")
    rep.write("compare_report.txt")
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecouple",
        description="Geometric decoherence control: invariance checks, protected-"
                    "coherence discovery, feedback synthesis and simulation.")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", choices=sorted(MODEL_BUILDERS))
        p.add_argument("--g", help="interaction strength (complex ok)")
        p.add_argument("--env-levels", type=int, dest="env_levels")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--tolerance-rank", type=float, dest="tol_rank")
        p.add_argument("--tolerance-invariance", type=float, dest="tol_invariance")
        p.add_argument("--tolerance-decoupling", type=float, dest="tol_decoupling")

    p_check = sub.add_parser("check", help="invariance and decouplability verdicts")
    common(p_check)

    p_dfs = sub.add_parser("dfs", help="protected coherence pairs under collective dephasing")
    common(p_dfs)
    p_dfs.add_argument("--qubits", type=int, default=2)

    p_syn = sub.add_parser("synthesize-demo", help="feedback synthesis at one state")
    common(p_syn)
    p_syn.add_argument("--state", dest="state_preset")
    p_syn.add_argument("--lift-complement", action="store_true")

    def integrating(name, help_text, out_help):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--mode", choices=["open", "closed"], default="open")
        p.add_argument("--feedback", choices=["least_squares", "protective"],
                       default="least_squares")
        p.add_argument("--lift-complement", action="store_true")
        p.add_argument("--schedule", dest="schedule_kind",
                       choices=["zero", "constant", "sinusoidal"])
        p.add_argument("--state", dest="state_preset")
        p.add_argument("--dt", type=float)
        p.add_argument("--t-end", type=float, dest="t_end")
        p.add_argument("--out", help=out_help)

    integrating("simulate", "single trajectory to CSV", "trajectory CSV filename")
    integrating("compare", "decoupling comparison across strengths", "comparison CSV filename")
    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None and f.name != "g":
            setattr(cfg, f.name, val)
    g_flag = getattr(args, "g", None)
    if g_flag is not None and "," in g_flag and args.command != "compare":
        raise ValueError(f"--g takes one value with {args.command}; a list is for compare")
    if g_flag is not None and "," not in g_flag:
        cfg.g = complex(g_flag)
    return cfg


def run_command(argv: Optional[list[str]] = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved for
        # negative verdicts here, so usage problems map to 1
        return 0 if exc.code == 0 else 1
    try:
        cfg = parse_config_file(args.config) if args.config else RunConfig()
        cfg = _merge_flags(cfg, args)
        if cfg.model is None:
            cfg.model = "restructured" if args.command == "synthesize-demo" else "two_qubit"
        _validate(cfg, args.qubits if args.command == "dfs" else None)

        if args.command == "check":
            return _cmd_check(cfg)
        if args.command == "dfs":
            return _cmd_dfs(cfg, args.qubits)
        if args.command == "synthesize-demo":
            return _cmd_synthesize_demo(cfg, args.lift_complement)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.mode, args.feedback,
                                 args.lift_complement, args.out)
        # compare: the required subparsers admit no other command
        g_list = _csv(complex)(args.g or "0,10")
        return _cmd_compare(cfg, g_list, args.mode, args.feedback,
                            args.lift_complement, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NormGuardError, InvariantBasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run_command()
    try:
        # argparse's --help may still sit in the buffer: a closed pipe shows here
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
    sys.exit(code)


if __name__ == "__main__":
    main()
