import functools
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from qdecouple import (
    ControlSchedule,
    ModelParams,
    NormGuardError,
    Operator,
    build_invariant_basis,
    build_restructured,
    build_two_qubit,
    compare_decoupling,
    integrate_closed_loop,
    integrate_open_loop,
    make_primitive,
    preset_state,
    propagate_piecewise_exact,
    write_trajectory_csv,
)
from qdecouple.synthesis import DegenerateStateError, ProtectiveSynthesizer
from conftest import random_state


def _u1_schedule(value=1.0):
    v = np.zeros(4)
    v[0] = value
    return ControlSchedule.constant(v)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_kinds():
    c = ControlSchedule.constant([1.0, 2.0])
    assert np.allclose(c(0.3), [1.0, 2.0])
    z = ControlSchedule.zero(3)
    assert np.allclose(z(10.0), 0.0)
    s = ControlSchedule.sinusoidal([1.0], [2.0], [np.pi / 2])
    assert np.isclose(s(0.0)[0], 1.0)
    pw = ControlSchedule.piecewise_constant([1.0, 2.0], [[0.0], [1.0], [2.0]])
    assert pw(0.5)[0] == 0.0 and pw(1.5)[0] == 1.0 and pw(2.5)[0] == 2.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        ControlSchedule.piecewise_constant([2.0, 1.0], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        ControlSchedule.piecewise_constant([1.0], [[0.0]])


# ---------------------------------------------------------------------------
# open loop
# ---------------------------------------------------------------------------

def test_dfs_pair_coherence_constant_without_controls():
    for g in (0.0, 10.0):
        m = build_two_qubit(ModelParams(g=g))
        xi0 = preset_state(m, "dfs_pair")
        traj = integrate_open_loop(m, ControlSchedule.zero(4), xi0, t_end=2.0)
        assert np.abs(traj.abs_y - 0.5).max() < 1e-12
        assert traj.max_norm_drift < 1e-9


def test_open_loop_contrast_with_active_control():
    runs = {}
    for g in (0.0, 10.0):
        m = build_two_qubit(ModelParams(g=g))
        xi0 = preset_state(m, "dfs_pair")
        runs[g] = integrate_open_loop(m, _u1_schedule(), xi0, t_end=2.0)
    dev = np.abs(runs[10.0].abs_y - runs[0.0].abs_y).max()
    assert dev > 0.05


def test_norm_conservation_budget():
    m = build_two_qubit(ModelParams(g=10.0))
    xi0 = preset_state(m, "dfs_pair")
    traj = integrate_open_loop(m, _u1_schedule(), xi0, t_end=5.0, dt=1e-3)
    assert traj.max_norm_drift <= 1e-6


def test_exact_propagation_cross_check():
    m = build_two_qubit(ModelParams(g=10.0))
    xi0 = preset_state(m, "dfs_pair")
    sched = ControlSchedule.piecewise_constant(
        [1.0], [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
    rk = integrate_open_loop(m, sched, xi0, t_end=2.0, dt=1e-3)
    exact = propagate_piecewise_exact(m, sched, xi0, t_end=2.0, dt=1e-3)
    diff = np.linalg.norm(rk.states - exact.states, axis=1).max()
    assert diff < 1e-6


def test_global_phase_leaves_abs_y_unchanged():
    m = build_two_qubit(ModelParams(g=10.0))
    xi0 = preset_state(m, "dfs_pair")
    t1 = integrate_open_loop(m, _u1_schedule(), xi0, t_end=1.0)
    t2 = integrate_open_loop(m, _u1_schedule(), np.exp(1.1j) * xi0, t_end=1.0)
    assert np.abs(t1.abs_y - t2.abs_y).max() < 1e-12


def test_open_loop_richardson_fourth_order():
    # oracle: Richardson comparison against a fine-step reference
    m = build_two_qubit(ModelParams(g=10.0))
    xi0 = preset_state(m, "dfs_pair")
    ref = propagate_piecewise_exact(m, _u1_schedule(), xi0, t_end=1.0, dt=1e-2)

    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate_open_loop(m, _u1_schedule(), xi0, t_end=1.0, dt=dt)
        stride = int(round(1e-2 / dt))
        errs.append(np.abs(traj.abs_y[::stride] - ref.abs_y).max())
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_immunity_verdict_implies_identical_traces(rng):
    # open-loop immunity verdict implies |y| traces match with and without
    # the interaction, for arbitrary piecewise-constant drives
    sx, sy = make_primitive("pauli_x", 2).matrix, make_primitive("pauli_y", 2).matrix
    sz = make_primitive("pauli_z", 2).matrix
    i2 = np.eye(2, dtype=complex)
    block_ops = [np.kron(sz, i2) - np.kron(i2, sz),
                 np.kron(sx, sx) + np.kron(sy, sy),
                 np.kron(sx, sy) - np.kron(sy, sx)]

    def dfs_internal_model(g):
        m = build_two_qubit(ModelParams(g=g))
        eye_env = np.eye(3, dtype=complex)
        controls = tuple(Operator(np.kron(b, eye_env), "hermitian").times_minus_i()
                         for b in block_ops)
        from dataclasses import replace
        return replace(m, controls=controls)

    m0, m1 = dfs_internal_model(0.0), dfs_internal_model(10.0)
    xi0 = preset_state(m0, "dfs_pair")
    for _ in range(20):
        breaks = np.sort(rng.uniform(0.1, 0.9, size=2))
        vals = rng.uniform(-1.0, 1.0, size=(3, 3))
        sched = ControlSchedule.piecewise_constant(breaks, vals)
        y0 = integrate_open_loop(m0, sched, xi0, t_end=1.0).abs_y
        y1 = integrate_open_loop(m1, sched, xi0, t_end=1.0).abs_y
        assert np.abs(y1 - y0).max() <= 1e-6


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def test_closed_loop_zero_drive_is_stationary(restructured_model, restructured_g0):
    for m in (restructured_g0, restructured_model):
        xi0 = preset_state(m, "dfs_pair")
        traj = integrate_closed_loop(m, ControlSchedule.zero(24), xi0,
                                     t_end=1.0, basis=build_invariant_basis(m))
        assert np.abs(traj.abs_y - 0.5).max() < 1e-12
        assert traj.max_norm_drift < 1e-12


def test_closed_loop_least_squares_aborts_on_norm_guard(restructured_model):
    # the per-state least-squares feedback is unbounded near the singular
    # locus; the norm guard must catch the resulting integration blow-up
    m = restructured_model
    basis = build_invariant_basis(m)
    v = np.zeros(24)
    v[[0, 3, 6, 9]] = 1.0
    with pytest.raises(NormGuardError):
        integrate_closed_loop(m, ControlSchedule.constant(v), preset_state(m, "dfs_pair"),
                              t_end=5.0, basis=basis, norm_guard=1e-4)


def test_closed_loop_generator_stays_skew(restructured_model, rng):
    # norm preservation is structural: any real (alpha, beta) composes a
    # skew-Hermitian closed-loop generator
    m = restructured_model
    ctrl = np.stack([op.matrix for op in m.controls])
    for _ in range(20):
        alpha = rng.standard_normal(24)
        beta = rng.standard_normal((24, 24))
        v = rng.standard_normal(24)
        u = alpha + beta @ v
        A = m.drift.matrix + m.interaction.matrix + np.tensordot(u, ctrl, axes=1)
        assert np.abs(A + A.conj().T).max() < 1e-12


def test_closed_loop_protective_short_run(restructured_model):
    m = restructured_model
    xi0 = preset_state(m, "dfs_pair")
    v = np.zeros(24)
    v[[0, 3, 6, 9]] = 1.0
    traj = integrate_closed_loop(m, ControlSchedule.constant(v), xi0,
                                 t_end=2.0, feedback="protective")
    assert np.abs(traj.abs_y - 0.5).max() < 1e-9
    # the constraint rank jumps once while leaving the singular initial
    # state, costing a single O(dt^2) norm glitch
    assert traj.max_norm_drift < 2e-6


def test_closed_loop_protective_richardson(restructured_model, rng):
    # feedback is smooth away from constraint-rank transitions, so the
    # integrator keeps its fourth-order convergence there
    m = restructured_model
    xi0 = random_state(rng, m.dim)
    v = np.zeros(24)
    v[[0, 3, 6, 9]] = 1.0
    sched = ControlSchedule.constant(v)

    # the guard is opened up: the coarse runs exist only to expose the
    # convergence order against the fine-step reference
    ref = integrate_closed_loop(m, sched, xi0, t_end=0.5, dt=6.25e-4,
                                feedback="protective", norm_guard=1.0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate_closed_loop(m, sched, xi0, t_end=0.5, dt=dt,
                                     feedback="protective", norm_guard=1.0)
        errs.append(np.linalg.norm(traj.states[-1] - ref.states[-1]))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


# ---------------------------------------------------------------------------
# the shared time loop
# ---------------------------------------------------------------------------

_TRAJECTORY_FUNCTIONS = {
    "open": integrate_open_loop,
    "exact": propagate_piecewise_exact,
    "closed": functools.partial(integrate_closed_loop, feedback="protective"),
}
_BAD_INPUT_MESSAGES = {"unnormalized": "normalized", "zero_dt": "positive",
                       "negative_t_end": "positive", "wrong_channels": "channels",
                       "off_grid_t_end": "whole number of steps",
                       "sub_step_t_end": "whole number of steps"}
_BAD_T_END = {"negative_t_end": -1.0, "off_grid_t_end": 0.0015, "sub_step_t_end": 0.0005}


@pytest.mark.parametrize("bad", list(_BAD_INPUT_MESSAGES))
@pytest.mark.parametrize("function", sorted(_TRAJECTORY_FUNCTIONS))
def test_trajectory_input_validation(function, bad):
    # every trajectory function rejects the same bad inputs with the same
    # ValueError, before taking a step
    m = build_restructured() if function == "closed" else build_two_qubit()
    xi0 = preset_state(m, "dfs_pair")
    n = m.n_controls - 1 if bad == "wrong_channels" else m.n_controls
    args = {"xi0": 2.0 * xi0 if bad == "unnormalized" else xi0,
            "t_end": _BAD_T_END.get(bad, 0.01),
            "dt": 0.0 if bad == "zero_dt" else 1e-3}
    with pytest.raises(ValueError, match=_BAD_INPUT_MESSAGES[bad]):
        _TRAJECTORY_FUNCTIONS[function](m, ControlSchedule.zero(n), **args)


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_piecewise_drive_is_frozen_per_step(restructured_model, mode):
    # a run across a breakpoint on the grid equals a constant run up to the
    # breakpoint continued by a constant run from the state it reached: the
    # step before the breakpoint must not see the next segment's value
    m = restructured_model
    xi0 = random_state(np.random.default_rng(4711), m.dim)
    first, second = np.zeros(24), np.zeros(24)
    first[[0, 3, 6, 9]] = 1.0
    second[[1, 4, 7, 10]] = 0.5
    run = _TRAJECTORY_FUNCTIONS[mode]
    whole = run(m, ControlSchedule.piecewise_constant([0.1], [first, second]),
                xi0, 0.2, 1e-3)
    head = run(m, ControlSchedule.constant(first), xi0, 0.1, 1e-3)
    tail = run(m, ControlSchedule.constant(second), head.states[-1], 0.1, 1e-3)
    assert np.abs(whole.states[-1] - tail.states[-1]).max() <= 1e-12


# ---------------------------------------------------------------------------
# the RK4 rule against a reference that forms the control field every stage
# ---------------------------------------------------------------------------

def _reference_rk4_states(model, schedule, xi0, t_end, dt, control=None):
    """States of the classical RK4 rule with `np.tensordot(u, ctrl, axes=1)`
    formed at every stage, as the integrator did before it shared the
    control field between stages with the same drive value."""
    static = model.drift.matrix + model.interaction.matrix
    ctrl = np.stack([op.matrix for op in model.controls])
    frozen = schedule.kind in ("constant", "piecewise_constant")

    def rhs(t, state, v):
        u = v if control is None else control(t, state, v)
        return static @ state + np.tensordot(u, ctrl, axes=1) @ state

    xi = np.asarray(xi0, dtype=complex)
    states = [xi]
    for k in range(int(round(t_end / dt))):
        t = k * dt
        v1 = schedule(t)
        v2, v4 = (v1, v1) if frozen else (schedule(t + dt / 2), schedule(t + dt))
        k1 = rhs(t, xi, v1)
        k2 = rhs(t + dt / 2, xi + (dt / 2) * k1, v2)
        k3 = rhs(t + dt / 2, xi + (dt / 2) * k2, v2)
        k4 = rhs(t + dt, xi + dt * k3, v4)
        xi = xi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(xi)
    return np.array(states)


def _drives():
    first, second = np.zeros(24), np.zeros(24)
    first[[0, 3, 6, 9]] = 1.0
    second[[1, 4, 7, 10]] = 0.5
    return {
        "constant": ControlSchedule.constant(first),
        "piecewise_constant": ControlSchedule.piecewise_constant([0.05, 0.1234],
                                                                 [first, second, -first]),
        "sinusoidal": ControlSchedule.sinusoidal(first + second, np.linspace(1.0, 3.0, 24),
                                                 np.linspace(0.0, np.pi, 24)),
    }


@pytest.mark.parametrize("kind", ["constant", "piecewise_constant", "sinusoidal"])
def test_open_loop_rk4_matches_per_stage_field(restructured_model, kind):
    m = restructured_model
    xi0 = random_state(np.random.default_rng(11), m.dim)
    schedule = _drives()[kind]
    traj = integrate_open_loop(m, schedule, xi0, t_end=0.2, dt=1e-3)
    assert np.array_equal(traj.states, _reference_rk4_states(m, schedule, xi0, 0.2, 1e-3))


@pytest.mark.parametrize("kind", ["constant", "sinusoidal"])
def test_protective_closed_loop_rk4_matches_per_stage_field(restructured_model, kind):
    m = restructured_model
    xi0 = random_state(np.random.default_rng(12), m.dim)
    schedule = _drives()[kind]
    synth = ProtectiveSynthesizer(m)

    def control(t, state, v):
        s = synth.sample(state)
        return s.alpha + s.beta @ v

    traj = integrate_closed_loop(m, schedule, xi0, t_end=0.05, dt=1e-3,
                                 feedback="protective")
    assert np.array_equal(traj.states,
                          _reference_rk4_states(m, schedule, xi0, 0.05, 1e-3, control))


def test_rk4_runs_do_not_call_tensordot(restructured_model, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.tensordot called in an RK4 run")

    monkeypatch.setattr(np, "tensordot", forbidden)
    m = restructured_model
    xi0 = random_state(np.random.default_rng(13), m.dim)
    for schedule in _drives().values():
        integrate_open_loop(m, schedule, xi0, t_end=0.01, dt=1e-3)
        integrate_closed_loop(m, schedule, xi0, t_end=0.01, dt=1e-3, feedback="protective")
        integrate_closed_loop(m, schedule, xi0, t_end=0.002, dt=1e-3)


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

def test_compare_identical_runs_zero_deviation(tmp_path):
    csv = str(tmp_path / "cmp.csv")
    report = compare_decoupling(build_two_qubit, [0.0, 0.0], _u1_schedule(),
                                "dfs_pair", t_end=0.5, mode="open", csv_path=csv)
    assert report.passed
    devs = [d for g, d in report.max_abs_deviation.items()]
    assert max(devs) == 0.0
    assert os.path.exists(csv)


def test_compare_requires_reference():
    with pytest.raises(ValueError):
        compare_decoupling(build_two_qubit, [10.0], _u1_schedule(),
                           "dfs_pair", t_end=0.5, mode="open")


def test_compare_open_loop_contrast(tmp_path):
    report = compare_decoupling(build_two_qubit, [0.0, 10.0], _u1_schedule(),
                                "dfs_pair", t_end=2.0, mode="open",
                                tolerance=0.05)
    assert not report.passed
    assert report.max_abs_deviation[10.0 + 0j] > 0.05


def test_compare_protective_decoupling(tmp_path):
    v = np.zeros(24)
    v[[0, 3, 6, 9]] = 1.0
    report = compare_decoupling(build_restructured, [0.0, 10.0],
                                ControlSchedule.constant(v), "dfs_pair",
                                t_end=1.0, mode="closed", feedback="protective",
                                tolerance=1e-4)
    assert report.passed
    assert report.max_abs_deviation[10.0 + 0j] <= 1e-10
    # the feedback decouples the complex coherence, not only |y|
    assert report.max_complex_deviation[0j] == 0.0
    assert report.max_complex_deviation[10.0 + 0j] <= 1e-12


# ---------------------------------------------------------------------------
# side-by-side runs of compare_decoupling
# ---------------------------------------------------------------------------

def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _report_fields(report):
    return (report.g_values, report.max_abs_deviation, report.max_complex_deviation,
            report.norm_drift, report.tolerance, report.passed)


_COMPARES = {
    "open": dict(model_builder=build_two_qubit, v_schedule=_u1_schedule(),
                 t_end=0.5, mode="open"),
    "protective": dict(model_builder=build_restructured,
                       v_schedule=ControlSchedule.sinusoidal(
                           np.ones(24), np.linspace(1.0, 2.0, 24)),
                       t_end=0.2, mode="closed", feedback="protective"),
    "least_squares": dict(model_builder=build_restructured,
                          v_schedule=ControlSchedule.zero(24),
                          t_end=0.01, mode="closed", feedback="least_squares"),
}


@pytest.mark.parametrize("kind", sorted(_COMPARES))
def test_compare_side_by_side_matches_one_cpu(kind, tmp_path, monkeypatch):
    outputs = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        csv = tmp_path / f"cmp{cpus}.csv"
        report = compare_decoupling(g_values=[0.0, 10.0], xi0="dfs_pair",
                                    csv_path=str(csv), **_COMPARES[kind])
        assert multiprocessing.active_children() == []
        outputs[cpus] = _report_fields(report), csv.read_bytes()
    assert outputs[1] == outputs[2]


def _norm_guard_message(g_values, monkeypatch, cpus):
    # dt = 0.1 keeps g = 0 within the norm budget; g = 10 and g = 20 trip it
    _cpus(monkeypatch, cpus)
    with pytest.raises(NormGuardError) as err:
        compare_decoupling(build_two_qubit, g_values, _u1_schedule(), "dfs_pair",
                           t_end=2.0, dt=0.1, mode="open")
    assert multiprocessing.active_children() == []
    return str(err.value)


@pytest.mark.parametrize("g_values", [[0.0, 10.0], [0.0, 20.0, 10.0], [20.0, 0.0, 10.0]])
def test_compare_side_by_side_raises_the_first_failing_g(g_values, monkeypatch):
    sequential = _norm_guard_message(g_values, monkeypatch, 1)
    assert _norm_guard_message(g_values, monkeypatch, len(g_values)) == sequential
    first_failing = next(g for g in g_values if g != 0)
    assert sequential == _norm_guard_message([0.0, first_failing], monkeypatch, 1)


def test_degenerate_state_error_pickles_with_K():
    err = pickle.loads(pickle.dumps(DegenerateStateError("no complement", K=3)))
    assert (type(err), str(err), err.K) == (DegenerateStateError, "no complement", 3)


def test_compare_closed_loop_degenerate_state_keeps_K(monkeypatch):
    # |00> (x) |0> reaches no complement direction: the closed loop's first
    # stage raises, and the report of that stage keeps the rank K
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(DegenerateStateError) as err:
            compare_decoupling(build_restructured, [0.0, 10.0], ControlSchedule.zero(24),
                               "ground", t_end=0.01, mode="closed")
        assert err.value.K is not None and "closed-loop stage at t = 0" in str(err.value)


def test_compare_worker_error_keeps_its_type_and_K(monkeypatch):
    parent = os.getpid()

    def builder(params):
        if params.g != 0:
            assert os.getpid() != parent, "g = 10 ran in the calling process"
            raise DegenerateStateError("worker share failed", K=4)
        return build_two_qubit(params)

    _cpus(monkeypatch, 2)
    with pytest.raises(DegenerateStateError) as err:
        compare_decoupling(builder, [0.0, 10.0], _u1_schedule(), "dfs_pair",
                           t_end=0.01, mode="open")
    assert (str(err.value), err.value.K) == ("worker share failed", 4)
    assert multiprocessing.active_children() == []


def test_compare_worker_death_names_g_and_exit_code(monkeypatch):
    parent = os.getpid()

    def builder(params):
        if params.g != 0:
            assert os.getpid() != parent, "g = 10 ran in the calling process"
            os._exit(3)
        return build_two_qubit(params)

    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"g=10 exited with code 3"):
        compare_decoupling(builder, [0.0, 10.0], _u1_schedule(), "dfs_pair",
                           t_end=0.01, mode="open")
    assert multiprocessing.active_children() == []


def test_compare_runs_each_distinct_g_once(tmp_path, monkeypatch):
    built = []

    def builder(params):
        built.append(params.g)
        return build_two_qubit(params)

    _cpus(monkeypatch, 1)
    csv = tmp_path / "cmp.csv"
    report = compare_decoupling(builder, [0.0, 0.0, 10.0, 0.0], _u1_schedule(),
                                "dfs_pair", t_end=0.05, mode="open", csv_path=str(csv))
    assert built == [0, 10]
    assert report.g_values == (0j, 0j, 10 + 0j, 0j)
    assert list(report.max_abs_deviation) == [0j, 10 + 0j]
    header = csv.read_text().split("\n", 1)[0]
    assert header == "t,abs_y_g=0,abs_y_g=0,abs_y_g=10,abs_y_g=0,dev_g=10"


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def test_trajectory_csv_format(tmp_path):
    m = build_two_qubit()
    xi0 = preset_state(m, "dfs_pair")
    traj = integrate_open_loop(m, _u1_schedule(), xi0, t_end=0.01, dt=1e-3)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(traj, path)

    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["t", "re_y", "im_y", "abs_y", "norm"]
    assert header[5:] == ["u1", "u2", "u3", "u4"]
    assert len(lines) == 1 + traj.times.size

    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert abs(float(row[3]) - 0.5) < 1e-12
    # at least 12 significant digits survive the round trip
    assert abs(float(row[4]) - traj.norm[0]) < 1e-12


def test_preset_state_errors(two_qubit_model):
    with pytest.raises(ValueError):
        preset_state(two_qubit_model, "nope")


def test_open_loop_norm_guard_aborts_unstable_step():
    # dt far beyond the stability limit blows the norm; the guard reports it
    m = build_two_qubit(ModelParams(g=10.0))
    xi0 = preset_state(m, "dfs_pair")
    with pytest.raises(NormGuardError):
        integrate_open_loop(m, _u1_schedule(), xi0, t_end=20.0, dt=0.2)
