"""Time integration of open- and closed-loop dynamics and decoupling reports.

The three trajectory functions share one time loop (`_points`), which
validates the inputs, yields the complex coherence y(t) = <xi|C|xi>, the
state norm and the applied controls at each grid point, and aborts through
the norm guard any run whose state norm drifts beyond the configured
budget; `_propagate` collects that stream into a `Trajectory`.  At each grid
point the loop asks a step rule for the applied control and the next state:
fixed-step classical fourth-order integration (`_rk4`) for the open loop,
u = v(t), and the closed loop, u = alpha(xi) + beta(xi) v(t) with the
feedback re-synthesized at every stage; or a cached per-segment matrix
exponential for the exact cross-check.  A (piecewise-)constant drive v is
frozen over each step, so every run is deterministic and reproducible.
"""

from __future__ import annotations

import os
import threading
import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .models import ModelParams, SystemModel
from .operators import TimeOperator
from .synthesis import (
    DegenerateStateError,
    FeedbackSynthesizer,
    InvariantBasis,
    ProtectiveSynthesizer,
    build_invariant_basis,
)

__all__ = [
    "NormGuardError",
    "ControlSchedule",
    "Trajectory",
    "DecouplingReport",
    "integrate_open_loop",
    "integrate_closed_loop",
    "propagate_piecewise_exact",
    "compare_decoupling",
    "write_trajectory_csv",
    "preset_state",
]

DEFAULT_NORM_GUARD = 1e-4
DEFAULT_DT = 1e-3


class NormGuardError(RuntimeError):
    """State norm drifted beyond the configured budget."""


@dataclass(eq=False)
class ControlSchedule:
    """Control amplitudes as a function of time, one entry per channel."""

    kind: str
    n_channels: int
    _fn: Callable[[float], np.ndarray]

    @classmethod
    def zero(cls, n_channels: int) -> "ControlSchedule":
        z = np.zeros(n_channels)
        return cls("constant", n_channels, lambda t: z)

    @classmethod
    def constant(cls, values: Sequence[float]) -> "ControlSchedule":
        v = np.asarray(values, dtype=float)
        return cls("constant", v.size, lambda t: v)

    @classmethod
    def piecewise_constant(cls, breakpoints: Sequence[float],
                           values: Sequence[Sequence[float]]) -> "ControlSchedule":
        """`values[k]` from `breakpoints[k - 1]` on, `values[0]` before the first.

        Every trajectory function (open loop, closed loop and the exact
        propagation) holds such a drive at its value at the start of each
        step, so a breakpoint off the dt grid takes effect at the next grid
        point: with dt = 1e-3, a breakpoint at 0.0015 acts as one at 0.002.
        """
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape[0] != bp.size + 1:
            raise ValueError("need one value row per segment (len(breakpoints)+1)")

        def fn(t: float) -> np.ndarray:
            return vals[int(np.searchsorted(bp, t, side="right"))]

        return cls("piecewise_constant", vals.shape[1], fn)

    @classmethod
    def sinusoidal(cls, amplitudes: Sequence[float], frequencies: Sequence[float],
                   phases: Optional[Sequence[float]] = None) -> "ControlSchedule":
        a = np.asarray(amplitudes, dtype=float)
        w = np.asarray(frequencies, dtype=float)
        p = np.zeros_like(a) if phases is None else np.asarray(phases, dtype=float)
        if not (a.size == w.size == p.size):
            raise ValueError("amplitudes, frequencies, phases must share length")
        return cls("sinusoidal", a.size, lambda t: a * np.sin(w * t + p))

    def __call__(self, t: float) -> np.ndarray:
        u = self._fn(t)
        if u.size != self.n_channels:
            raise ValueError("schedule returned wrong channel count")
        return u


@dataclass(eq=False)
class Trajectory:
    """Time grid, states, coherence trace, norms and applied controls."""

    times: np.ndarray
    states: np.ndarray            # (n_t, dim)
    y: np.ndarray                 # complex coherence per time
    norm: np.ndarray
    controls_applied: np.ndarray  # (n_t, n_channels) effective u at step start
    diagnostics: dict = field(default_factory=dict)

    @property
    def abs_y(self) -> np.ndarray:
        return np.abs(self.y)

    @property
    def max_norm_drift(self) -> float:
        return float(np.abs(self.norm - 1.0).max())


@dataclass(eq=False)
class DecouplingReport:
    """Coherence trace deviations of each run against the zero-interaction
    reference: on |y|, which `passed` judges, and on the complex y."""

    g_values: tuple[complex, ...]
    max_abs_deviation: dict
    max_complex_deviation: dict
    norm_drift: dict
    runtimes: dict
    tolerance: float
    passed: bool


def preset_state(model: SystemModel, name: str = "dfs_pair") -> np.ndarray:
    """Named initial states on the model's layout.

    dfs_pair: (|01> + |10>)/sqrt(2) on the first two qubits, environment in
    its ground state (initial coherence 0.5).  ground: all slots in their
    first basis state.
    """
    dims = model.layout.dims
    if name == "ground":
        xi = np.zeros(model.dim, dtype=complex)
        xi[0] = 1.0
        return xi
    if name == "dfs_pair":
        if len(dims) < 3 or dims[0] != 2 or dims[1] != 2:
            raise ValueError("dfs_pair preset requires a two-qubit layout")
        rest = int(np.prod(dims[2:]))
        sys_state = np.zeros(4, dtype=complex)
        sys_state[1] = sys_state[2] = 1.0 / np.sqrt(2.0)
        env = np.zeros(rest, dtype=complex)
        env[0] = 1.0
        return np.kron(sys_state, env)
    raise ValueError(f"unknown state preset {name!r}")


# step(t, xi, last) -> (control applied at t, state at t + dt; None when last)
StepRule = Callable[[float, np.ndarray, bool], tuple[np.ndarray, Optional[np.ndarray]]]


def _points(model: SystemModel, schedule: ControlSchedule, xi0: np.ndarray,
            t_end: float, dt: float, norm_guard: float, context: str,
            make_step: Callable[[np.ndarray, np.ndarray], StepRule]):
    """The time loop behind every trajectory function.

    Validates the inputs, then builds the step rule from the static
    generator (drift + interaction) and the stacked control generators, and
    yields (t, state, y, norm, applied control) once per grid point; the
    norm guard runs before each step.
    """
    xi = np.asarray(xi0, dtype=complex).ravel()
    if abs(np.linalg.norm(xi) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    n_points = _grid_size(t_end, dt)
    if schedule.n_channels != model.n_controls:
        raise ValueError(f"schedule has {schedule.n_channels} channels, "
                         f"model expects {model.n_controls}")

    step = make_step(model.drift.matrix + model.interaction.matrix,
                     np.stack([op.matrix for op in model.controls]))
    C = model.coherence_op
    for k in range(n_points):
        t = k * dt
        nrm = np.linalg.norm(xi)
        y = np.vdot(xi, (C.evaluate(t) if isinstance(C, TimeOperator) else C).matrix @ xi)
        if abs(nrm - 1.0) > norm_guard:
            raise NormGuardError(
                f"{context}: state norm drifted to {float(nrm)!r} at t = {t:.6f} "
                f"(budget {norm_guard:g}); reduce dt or inspect the control magnitudes")
        u, nxt = step(t, xi, k == n_points - 1)
        yield t, xi, y, nrm, u
        xi = nxt


def _grid_size(t_end: float, dt: float) -> int:
    """Number of points of the time grid 0, dt, ..., t_end; t_end must be a
    whole number (at least 1) of steps dt, within 1e-9 relative."""
    if not (0 < dt < np.inf and 0 < t_end < np.inf):
        raise ValueError("dt and t_end must be finite and positive")
    ratio = t_end / dt
    steps = round(ratio) if np.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"t_end must be a whole number of steps dt, "
                         f"got t_end={t_end:g}, dt={dt:g}")
    return steps + 1


def _propagate(model: SystemModel, t_end: float, dt: float, mode: str,
               points) -> Trajectory:
    """Collects a stream of `_points` into a Trajectory, whose arrays are
    fields of one record table sized to the grid up front."""
    table = np.fromiter(points, [("t", float), ("state", complex, (model.dim,)),
                                 ("y", complex), ("norm", float),
                                 ("u", float, (model.n_controls,))],
                        count=_grid_size(t_end, dt))
    return Trajectory(table["t"], table["state"], table["y"], table["norm"], table["u"],
                      {"mode": mode, "dt": dt, "model": model.name})


def _rk4(static: np.ndarray, ctrl: np.ndarray, schedule: ControlSchedule, dt: float,
         control: Optional[Callable] = None) -> StepRule:
    """Classical fourth-order step for xi' = (static + sum_i u_i ctrl_i) xi.

    u is the drive v itself, or `control(t, state, v)` in closed loop.  A
    (piecewise-)constant drive is frozen at its value at the step start, so
    the stage at t + dt cannot leak the next segment's value into the
    current step; other drives are evaluated at each stage time.  The
    control field sum_i u_i ctrl_i is formed once per drive value: once a
    step for a frozen drive, once for the two midpoint stages of any other
    open-loop drive, and at every stage in closed loop, where u follows the
    state.
    """
    frozen = schedule.kind in ("constant", "piecewise_constant")
    flat = ctrl.reshape(ctrl.shape[0], -1)

    def rhs(t: float, state: np.ndarray, v: np.ndarray, F: Optional[np.ndarray] = None):
        """(xi', applied u, control field); an open-loop stage takes the
        field `F` of an earlier stage with the same drive value."""
        u = v if control is None else control(t, state, v)
        if F is None or control is not None:
            # the product np.tensordot(u, ctrl, axes=1) forms, as one flat dot
            F = np.dot(u[None, :], flat).reshape(ctrl.shape[1:])
        return static @ state + F @ state, u, F

    def step(t: float, xi: np.ndarray, last: bool):
        v1 = schedule(t)
        k1, u1, F1 = rhs(t, xi, v1)
        if last:
            return u1, None
        v2, v4 = (v1, v1) if frozen else (schedule(t + dt / 2), schedule(t + dt))
        F2 = F4 = F1 if frozen else None
        k2, _, F2 = rhs(t + dt / 2, xi + (dt / 2) * k1, v2, F2)
        k3, _, _ = rhs(t + dt / 2, xi + (dt / 2) * k2, v2, F2)
        k4, _, _ = rhs(t + dt, xi + dt * k3, v4, F4)
        return u1, xi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    return step


def integrate_open_loop(model: SystemModel, schedule: ControlSchedule,
                        xi0: np.ndarray, t_end: float, dt: float = DEFAULT_DT,
                        norm_guard: float = DEFAULT_NORM_GUARD) -> Trajectory:
    """Fixed-step RK4 for xi' = (drift + sum u_i(t) control_i + interaction) xi."""
    return _propagate(model, t_end, dt, "open", _points(
        model, schedule, xi0, t_end, dt, norm_guard, "open-loop integration",
        lambda static, ctrl: _rk4(static, ctrl, schedule, dt)))


def propagate_piecewise_exact(model: SystemModel, schedule: ControlSchedule,
                              xi0: np.ndarray, t_end: float,
                              dt: float = DEFAULT_DT) -> Trajectory:
    """Per-segment matrix-exponential propagation (piecewise-constant u).

    Exact up to the matrix exponential; the cross-check for the fixed-step
    integrator.  Schedule breakpoints should lie on the dt grid, otherwise
    segment boundaries are effectively shifted to the next grid point.
    """
    if schedule.kind not in ("constant", "piecewise_constant"):
        raise ValueError("exact propagation requires a (piecewise-)constant schedule")

    import scipy.linalg  # deferred: it more than doubles the package's import time

    def exact_step(static: np.ndarray, ctrl: np.ndarray) -> StepRule:
        cache: dict[bytes, np.ndarray] = {}

        def step(t: float, xi: np.ndarray, last: bool):
            u = schedule(t)
            if last:
                return u, None
            key = u.tobytes()
            if key not in cache:
                cache[key] = scipy.linalg.expm((static + np.tensordot(u, ctrl, axes=1)) * dt)
            return u, cache[key] @ xi

        return step

    return _propagate(model, t_end, dt, "exact", _points(
        model, schedule, xi0, t_end, dt, DEFAULT_NORM_GUARD, "exact propagation",
        exact_step))


def _closed_loop_points(model: SystemModel, v_schedule: ControlSchedule,
                        xi0: np.ndarray, t_end: float, dt: float,
                        basis: Optional[InvariantBasis], tol: float,
                        norm_guard: float, feedback: str, stats: dict):
    """The `_points` stream of `integrate_closed_loop`; `stats` collects the
    synthesis diagnostics as the stream is consumed."""
    stats.update(ranks_seen=set(), synthesis_warnings=0,
                 beta_rank_min=model.n_controls, max_step1_residual=0.0)

    def feedback_step(static: np.ndarray, ctrl: np.ndarray) -> StepRule:
        if feedback == "least_squares":
            synth = FeedbackSynthesizer(
                model, build_invariant_basis(model) if basis is None else basis, tol)
        elif feedback == "protective":
            synth = ProtectiveSynthesizer(model)
        else:
            raise ValueError(f"unknown feedback mode {feedback!r}")

        def control(t: float, state: np.ndarray, v: np.ndarray) -> np.ndarray:
            try:
                s = synth.sample(state)
            except DegenerateStateError as exc:
                raise DegenerateStateError(
                    f"{exc} [closed-loop stage at t = {t:.6f}; state dump: "
                    f"{np.array2string(state, precision=6)}]", K=exc.K) from exc
            stats["ranks_seen"].add(s.ranks)
            stats["synthesis_warnings"] += len(s.warnings)
            stats["beta_rank_min"] = min(stats["beta_rank_min"], s.beta_rank)
            if s.residuals:
                stats["max_step1_residual"] = max(stats["max_step1_residual"],
                                                  max(s.residuals[:-1], default=0.0))
            return s.alpha + s.beta @ v

        return _rk4(static, ctrl, v_schedule, dt, control)

    return _points(model, v_schedule, xi0, t_end, dt, norm_guard,
                   "closed-loop integration", feedback_step)


def integrate_closed_loop(model: SystemModel, v_schedule: ControlSchedule,
                          xi0: np.ndarray, t_end: float, dt: float = DEFAULT_DT,
                          basis: Optional[InvariantBasis] = None,
                          tol: float = 1e-9,
                          norm_guard: float = DEFAULT_NORM_GUARD,
                          feedback: str = "least_squares") -> Trajectory:
    """Closed-loop RK4 with the feedback re-synthesized at every stage.

    The applied control is u = alpha(xi) + beta(xi) v(t); `feedback`
    selects the synthesizer: "least_squares" for the least-squares/null-space
    algorithm (built from `basis`, or from a fresh invariant basis when it is
    None), "protective" for the block-protecting projector feedback.
    """
    stats: dict = {}
    traj = _propagate(model, t_end, dt, f"closed:{feedback}", _closed_loop_points(
        model, v_schedule, xi0, t_end, dt, basis, tol, norm_guard, feedback, stats))
    traj.diagnostics.update(stats, ranks_seen=sorted(stats["ranks_seen"]))
    return traj


def compare_decoupling(model_builder: Callable[[ModelParams], SystemModel],
                       g_values: Sequence[complex],
                       v_schedule: ControlSchedule,
                       xi0: Union[np.ndarray, str],
                       t_end: float,
                       dt: float = DEFAULT_DT,
                       mode: str = "open",
                       params: ModelParams = ModelParams(),
                       tolerance: float = 1e-4,
                       tol: float = 1e-9,
                       norm_guard: float = DEFAULT_NORM_GUARD,
                       feedback: str = "least_squares",
                       basis_builder: Optional[Callable[[SystemModel], InvariantBasis]] = None,
                       csv_path: Optional[str] = None) -> DecouplingReport:
    """Run one trajectory per interaction strength and compare the y traces.

    g_values must contain 0 (the closed-system reference).  `mode` is
    "open" or "closed"; closed mode uses `feedback` ("least_squares" or
    "protective").  Reports the maximum absolute deviation of |y(t)| and of
    the complex y(t) against the reference, per g, and passes when every
    |y| deviation is within `tolerance`.  Each distinct g runs once, and the
    distinct values run side by side (`_run_side_by_side`); an error is the
    one the first failing g raises.
    """
    gs = [complex(g) for g in g_values]
    if not any(g == 0 for g in gs):
        raise ValueError("g_values must include 0 as the reference")

    def run(g: complex):
        """What the report reads of the run at g: times, complex y, norm drift, runtime."""
        model = model_builder(replace(params, g=g))
        start = _time.perf_counter()
        x0 = preset_state(model, xi0) if isinstance(xi0, str) else np.asarray(xi0)
        if mode == "open":
            traj = integrate_open_loop(model, v_schedule, x0, t_end, dt, norm_guard)
        elif mode == "closed":
            basis = basis_builder(model) if basis_builder is not None else None
            traj = integrate_closed_loop(model, v_schedule, x0, t_end, dt,
                                         basis=basis, tol=tol,
                                         norm_guard=norm_guard, feedback=feedback)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return traj.times, traj.y, traj.max_norm_drift, _time.perf_counter() - start

    runs = _run_side_by_side(run, list(dict.fromkeys(gs)))
    times, y_ref = runs[0][:2]
    abs_y = {g: np.abs(y) for g, (_, y, _, _) in runs.items()}
    deviations = {g: float(np.abs(abs_y[g] - abs_y[0]).max()) for g in gs}
    report = DecouplingReport(
        g_values=tuple(gs),
        max_abs_deviation=deviations,
        max_complex_deviation={g: float(np.abs(runs[g][1] - y_ref).max()) for g in gs},
        norm_drift={g: runs[g][2] for g in gs},
        runtimes={g: runs[g][3] for g in gs},
        tolerance=tolerance,
        passed=all(dev <= tolerance for g, dev in deviations.items() if g != 0),
    )
    if csv_path:
        _write_compare_csv(report, times, abs_y, csv_path)
    return report


def _run_side_by_side(run: Callable, gs: list) -> dict:
    """{g: run(g)} for distinct values g, run side by side.

    The values split into contiguous shares, one per CPU this process may
    use and at most one per value.  The calling process runs the first
    share, and a worker started with `fork` runs each other one and sends
    back each result as it completes.  Without `fork`, with one CPU, or
    with other threads running (a fork copies only the calling one), the
    caller's share is every value.  A share stops at its first error, and
    the shares are read in order, so the error raised is the one of the
    first failing value, as in a sequential loop.  No worker outlives the
    call: each is joined, after being terminated if the call fails.
    """
    import multiprocessing  # deferred: 19 modules the other commands never use

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forks = "fork" in multiprocessing.get_all_start_methods() \
        and threading.active_count() == 1
    n = min(len(gs), cpus) if forks else 1
    shares = [gs[len(gs) * i // n:len(gs) * (i + 1) // n] for i in range(n)]
    streams = [_outcomes(run, shares[0])]
    workers = []
    try:
        for share in shares[1:]:
            ctx = multiprocessing.get_context("fork")
            receiver, sender = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_send_outcomes, args=(run, share, sender),
                                 daemon=True)
            worker.start()
            workers.append((worker, receiver))
            sender.close()
            streams.append(_received(worker, receiver, share))
        results = {}
        for share, stream in zip(shares, streams):
            for g, outcome in zip(share, stream):
                if isinstance(outcome, Exception):
                    raise outcome
                results[g] = outcome
        return results
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            worker.join()
            receiver.close()


def _outcomes(run: Callable, share: list):
    """run(g) for each g of the share in order, up to its first error, which
    is yielded in place of a result."""
    for g in share:
        try:
            outcome = run(g)
        except Exception as exc:
            yield exc
            return
        yield outcome


def _send_outcomes(run: Callable, share: list, sender):
    """A worker's body: the share's outcomes, one message each."""
    for outcome in _outcomes(run, share):
        sender.send(outcome)
    sender.close()


def _received(worker, receiver, share: list):
    """The outcomes a worker sends for its share, in order."""
    for g in share:
        try:
            yield receiver.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"the worker running g={_g_label(g)} exited with code "
                               f"{worker.exitcode} before sending its result") from None


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_trajectory_csv(traj: Trajectory, path: str):
    """Column order: t, re_y, im_y, abs_y, norm, then one column per channel."""
    n_ctrl = traj.controls_applied.shape[1]
    header = ["t", "re_y", "im_y", "abs_y", "norm"] + [f"u{j + 1}" for j in range(n_ctrl)]
    lines = [",".join(header)]
    for k in range(traj.times.size):
        row = [traj.times[k], traj.y[k].real, traj.y[k].imag,
               abs(traj.y[k]), traj.norm[k], *traj.controls_applied[k]]
        lines.append(",".join(f"{x:.15g}" for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _g_label(g: complex) -> str:
    """How reports and CSV headers name g: by its real part when g is real."""
    return f"{g.real:g}" if g.imag == 0 else f"{g:g}"


def _write_compare_csv(report: DecouplingReport, times: np.ndarray,
                       abs_traces: dict, path: str):
    gs = list(report.g_values)
    header = ["t"] + [f"abs_y_g={_g_label(g)}" for g in gs] \
        + [f"dev_g={_g_label(g)}" for g in gs if g != 0]
    ref = abs_traces[0]
    lines = [",".join(header)]
    for k in range(times.size):
        row = [times[k]] + [abs_traces[g][k] for g in gs] \
            + [abs(abs_traces[g][k] - ref[k]) for g in gs if g != 0]
        lines.append(",".join(f"{x:.15g}" for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")
