"""The benchmark's workloads: CLI task lists with pinned expected outputs.

Each task is one ``qdecouple.cli.run_command`` call.  Its check receives
the exit code, the captured standard output and the files the command
wrote, and returns a list of problems (empty when the output is as
expected).  The expected values are those of the package as first
benchmarked; tolerances leave room for a legitimate numerical change such
as a different integrator step rule, not for a different verdict.

Why each workload exists:

* ``verdicts`` - operator algebra, commutator closure and invariant-basis
  validation only, no integration.  The closure working set ranges from
  rank 3 to an unconverged rank 252 (ancilla, two environment levels).
* ``trajectories`` - every integrating command: RK4 stepping and CSV
  output under a constant drive (two_qubit) and time-varying ones
  (restructured, sinusoidal), the cheap protective synthesis, and the
  per-state least-squares synthesis that dominates the test suite, at the
  near-singular ``dfs_pair`` state and at a seeded random state that
  reaches the CLI through a config file.  It never runs closure.

The least-squares commands share a workload with the other integrating
commands instead of having their own: on a shared two-CPU host, the time
allowed for all runs leaves room for two workloads whose runs are long
enough to average out the host's speed drift.  The traced run separates
the two syntheses.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

DT = 1e-3
NORM_GUARD = 1e-4
# restructured closed-loop commands run for this long; at dt = 1e-3 that
# is 500 steps and 2000 least-squares samples per trajectory
LSQ_T_END = 0.5
# the restructured open-loop and protective comparisons
RESTRUCTURED_T_END = 5.0
RESTRUCTURED_DIM = 12


@dataclass(frozen=True)
class Outputs:
    exit_code: int
    stdout: str
    files: dict[str, bytes]

    def text(self, name: str) -> str:
        """A written file's text, empty when the command did not write it."""
        return self.files.get(name, b"").decode("utf-8")


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    check: Callable[[Outputs], list[str]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _field(pattern: str, text: str, problems: list[str]) -> re.Match | None:
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        problems.append(f"report lacks /{pattern}/")
    return m


def _exit(out: Outputs, expected: int, problems: list[str]):
    if out.exit_code != expected:
        problems.append(f"exit code {out.exit_code}, expected {expected}")


def check_closure(model: str, rank: int, depth: int, converged: bool,
                  exit_code: int) -> Callable[[Outputs], list[str]]:
    def check(out: Outputs) -> list[str]:
        problems: list[str] = []
        _exit(out, exit_code, problems)
        report = out.text(f"check_{model}.txt")
        m = _field(r"^closure: rank=(\d+) depth=(\d+) converged=(\w+)$", report, problems)
        if m and (int(m[1]), int(m[2]), m[3] == "True") != (rank, depth, converged):
            problems.append(f"closure {m[0]!r}, expected rank={rank} depth={depth} "
                            f"converged={converged}")
        _field(r"^VERDICT: ", report, problems)
        return problems
    return check


def check_dfs(n_qubits: int, n_pairs: int,
              n_off_diagonal: int) -> Callable[[Outputs], list[str]]:
    def check(out: Outputs) -> list[str]:
        problems: list[str] = []
        _exit(out, 0, problems)
        text = out.text(f"dfs_{n_qubits}q.txt")
        pairs = re.findall(r"^  \((\d+), (\d+)\)$", text, re.MULTILINE)
        off = [p for p in pairs if p[0] != p[1]]
        if (len(pairs), len(off)) != (n_pairs, n_off_diagonal):
            problems.append(f"{len(pairs)} pairs ({len(off)} off-diagonal), expected "
                            f"{n_pairs} ({n_off_diagonal})")
        unequal = [p for p in pairs if p[0].count("1") != p[1].count("1")]
        if unequal:
            problems.append(f"pairs of unequal Hamming weight: {unequal[:3]}")
        return problems
    return check


def check_synthesis(K: int, q: int, r: int,
                    beta_rank: int) -> Callable[[Outputs], list[str]]:
    def check(out: Outputs) -> list[str]:
        problems: list[str] = []
        _exit(out, 0, problems)
        text = out.text("synthesize_demo.txt")
        m = _field(r"^ranks: K=(\d+) q=(\d+) r=(\d+)$", text, problems)
        if m and tuple(map(int, m.groups())) != (K, q, r):
            problems.append(f"{m[0]!r}, expected K={K} q={q} r={r}")
        m = _field(r"^beta rank: (\d+) / 24$", text, problems)
        if m and int(m[1]) != beta_rank:
            problems.append(f"beta rank {m[1]}, expected {beta_rank}")
        return problems
    return check


def _csv(data: bytes) -> tuple[list[str], np.ndarray]:
    header = data[:data.index(b"\n")].decode().split(",")
    return header, np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def _rows(values: np.ndarray, t_end: float, problems: list[str]):
    steps = int(round(t_end / DT))
    if values.shape[0] != steps + 1:
        problems.append(f"CSV has {values.shape[0]} rows, expected steps + 1 = {steps + 1}")


def check_compare(model: str, t_end: float, exit_code: int, deviation: float,
                  tolerance: float, abs_y: float | None = None
                  ) -> Callable[[Outputs], list[str]]:
    """Deviation of the g = 10 run against g = 0, norm drift and the CSV."""
    def check(out: Outputs) -> list[str]:
        problems: list[str] = []
        _exit(out, exit_code, problems)
        report = out.text("compare_report.txt")
        drifts = re.findall(r"norm drift ([0-9.e+-]+)", report)
        if len(drifts) != 2 or any(float(d) > NORM_GUARD for d in drifts):
            problems.append(f"norm drifts {drifts}, expected two within {NORM_GUARD:g}")
        name = f"compare_{model}.csv"
        if name not in out.files:
            return problems + [f"no {name}"]
        header, values = _csv(out.files[name])
        _rows(values, t_end, problems)
        dev = float(values[:, header.index("dev_g=10")].max())
        if abs(dev - deviation) > tolerance:
            problems.append(f"max |y| deviation {dev:.6e}, expected {deviation:.6e} "
                            f"within {tolerance:g}")
        if abs_y is not None:
            ys = values[:, [header.index("abs_y_g=0"), header.index("abs_y_g=10")]]
            worst = float(np.abs(ys - abs_y).max())
            if worst > 1e-9:
                problems.append(f"|y| leaves {abs_y} by {worst:.3e}")
        return problems
    return check


def check_simulate(model: str, t_end: float) -> Callable[[Outputs], list[str]]:
    """A completed run: norm drift in budget, CSV consistent with the report."""
    def check(out: Outputs) -> list[str]:
        problems: list[str] = []
        _exit(out, 0, problems)
        report = out.text("simulate_report.txt")
        m = _field(r"^max norm drift: ([0-9.e+-]+)$", report, problems)
        if m and float(m[1]) > NORM_GUARD:
            problems.append(f"norm drift {m[1]} beyond the {NORM_GUARD:g} guard")
        name = f"trajectory_{model}.csv"
        if name not in out.files:
            return problems + [f"no {name}"]
        header, values = _csv(out.files[name])
        _rows(values, t_end, problems)
        m = _field(r"^\|y\| range: \[([0-9.]+), ([0-9.]+)\]$", report, problems)
        col = values[:, header.index("abs_y")]
        if m and (f"{col.min():.6f}", f"{col.max():.6f}") != (m[1], m[2]):
            problems.append(f"|y| range {m[0]!r} disagrees with the CSV")
        drift = float(np.abs(values[:, header.index("norm")] - 1.0).max())
        if drift > NORM_GUARD:
            problems.append(f"CSV norm drift {drift:.3e} beyond the guard")
        return problems
    return check


def random_state_config(seed: int) -> str:
    """Config text with a normalized random restructured-model state."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=RESTRUCTURED_DIM) + 1j * rng.normal(size=RESTRUCTURED_DIM)
    xi /= np.linalg.norm(xi)
    amplitudes = ", ".join(f"{a.real:.17g}{a.imag:+.17g}j" for a in xi)
    return f"[initial_state]\namplitudes = {amplitudes}\n"


# replaced by the path of the run's generated config file
CONFIG_PLACEHOLDER = "{config}"


def workload_tasks(name: str) -> list[Task]:
    """The task list of one workload, in run order."""
    if name == "verdicts":
        return [
            Task(("check", "--model", "restructured"),
                 check_closure("restructured", 143, 7, True, 0)),
            Task(("check", "--model", "two_qubit"),
                 check_closure("two_qubit", 9, 5, True, 2)),
            Task(("check", "--model", "one_qubit"),
                 check_closure("one_qubit", 3, 3, True, 2)),
            Task(("check", "--model", "electro_optic"),
                 check_closure("electro_optic", 89, 12, False, 2)),
            Task(("check", "--model", "ancilla", "--env-levels", "2"),
                 check_closure("ancilla", 252, 12, False, 2)),
            Task(("dfs", "--qubits", "4"), check_dfs(4, 70, 54)),
            Task(("synthesize-demo",), check_synthesis(3, 2, 17, 22)),
            Task(("synthesize-demo", "--lift-complement"), check_synthesis(3, 6, 21, 18)),
        ]
    if name == "trajectories":
        t_end = str(RESTRUCTURED_T_END)
        lsq_t_end = str(LSQ_T_END)
        return [
            Task(("compare", "--model", "two_qubit", "--mode", "open",
                  "--schedule", "constant"),
                 check_compare("two_qubit", 20.0, 2, 0.41872, 1e-5)),
            Task(("compare", "--model", "restructured", "--mode", "open",
                  "--schedule", "sinusoidal", "--t-end", t_end),
                 check_compare("restructured", RESTRUCTURED_T_END, 2, 0.18556, 1e-5)),
            Task(("compare", "--model", "restructured", "--mode", "closed",
                  "--feedback", "protective", "--schedule", "sinusoidal", "--t-end", t_end),
                 check_compare("restructured", RESTRUCTURED_T_END, 0, 0.0, 1e-12)),
            Task(("compare", "--model", "restructured", "--mode", "closed",
                  "--schedule", "zero", "--t-end", lsq_t_end),
                 check_compare("restructured", LSQ_T_END, 0, 0.0, 1e-9, abs_y=0.5)),
            Task(("--config", CONFIG_PLACEHOLDER, "simulate", "--model", "restructured",
                  "--mode", "closed", "--schedule", "zero", "--lift-complement",
                  "--t-end", lsq_t_end),
                 check_simulate("restructured", LSQ_T_END)),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verdicts", "trajectories")
