"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  Numerical clauses are hard-asserted at their
stated tolerances; wall-clock budgets are printed for reference (they
depend on the host) and are not asserted.

Criterion 5 exercises the per-state least-squares/null-space feedback law,
first with the bare complement operators and, on failure, with the
environment-lifted complement variation.  Both fail to decouple the
coherence trace (see README, "Known limitation"); the criterion is
reported red with the measured deviations rather than weakened.  It steps
the shipped closed loop: the g = 0 and g = 10 point streams behind
`integrate_closed_loop` are consumed in lockstep, so the comparison can
stop both runs once the deviation exceeds 100x the tolerance, which
already decides the verdict.
"""

import time

import numpy as np
import pytest

from qdecouple import (
    ControlSchedule,
    ModelParams,
    Operator,
    build_ancilla_system,
    build_electrooptic,
    build_invariant_basis,
    build_one_qubit,
    build_restructured,
    build_two_qubit,
    cbh_effective_generator,
    check_controller_necessary,
    check_open_loop_invariance,
    commutator,
    find_dfs_coherences,
    generate_ctilde,
    integrate_open_loop,
    kernel_dy_member,
    make_primitive,
    matrix_exponential,
    preset_state,
    span_membership,
    vf_bracket,
)
from qdecouple.cli import demo_schedule
from qdecouple.simulator import _closed_loop_points

RNG = np.random.default_rng(8051)

# trajectories accepted by earlier criteria, checked again by criterion 7
_ACCEPTED_NORM_DRIFTS: dict[str, float] = {}


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_dfs_law():
    t0 = time.perf_counter()
    pairs2, _ = find_dfs_coherences(2)
    words = [format(k, "02b") for k in range(4)]
    expected = {(a, b) for a in words for b in words if a.count("1") == b.count("1")}
    ok = set(pairs2) == expected and ("01", "10") in pairs2

    pairs3, _ = find_dfs_coherences(3)
    ok = ok and ("011", "101") in pairs3 and ("010", "100") in pairs3
    elapsed = time.perf_counter() - t0
    assert _report(1, ok, f"equal-weight coherence pairs exact "
                          f"(n=2 set match, n=3 inclusions) [{elapsed:.2f}s]")


def test_criterion_02_one_qubit_verdict():
    t0 = time.perf_counter()
    m = build_one_qubit()
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    rep = check_controller_necessary(m.coherence_op, dist, m.interaction)
    witness_norm = np.linalg.norm(rep.witness.matrix, 2) if rep.witness is not None else 0.0
    ok = rep.verdict == "necessary_failed" and witness_norm > 0.1
    elapsed = time.perf_counter() - t0
    assert _report(2, ok, f"one-qubit not decouplable, witness spectral norm "
                          f"{witness_norm:.3f} > 0.1 [{elapsed:.2f}s]")


def test_criterion_03_two_qubit_geometric():
    t0 = time.perf_counter()
    m = build_two_qubit()
    ker = kernel_dy_member(m.interaction_field(), m.coherence_op)

    br = vf_bracket(m.control_fields()[0], m.interaction_field())
    sy = make_primitive("pauli_y", 2).matrix
    D = make_primitive("displacement", 3, w=m.params.g).matrix
    target = Operator(np.kron(np.kron(sy, np.eye(2)), D))
    inside = span_membership(br.generator, [target])

    candidate = [m.interaction_field().generator] + [f.generator for f in m.control_fields()]
    outside = span_membership(br.generator, candidate)

    ok = (ker.member and inside.is_member and inside.residual_norm < 1e-10
          and not outside.is_member and outside.residual_norm > 0.1)
    elapsed = time.perf_counter() - t0
    assert _report(3, ok, "interaction in ker(dy); [K1, K_I] along sy1 (x) D "
                          f"(residual {inside.residual_norm:.2e}) and outside "
                          f"span(Delta, G) (residual {outside.residual_norm:.3f}) "
                          f"[{elapsed:.2f}s]")


def test_criterion_04_restructured_sufficiency():
    t0 = time.perf_counter()
    m = build_restructured()
    gens = list(m.controls)
    worst = 0.0
    ok = True
    for g_op in gens:
        br = commutator(g_op, m.interaction)
        res = span_membership(br, gens, tol=1e-9)
        worst = max(worst, res.residual_norm / max(1.0, br.norm()))
        ok = ok and res.is_member
    elapsed = time.perf_counter() - t0
    assert _report(4, ok, f"all 24 control brackets with the interaction stay in "
                          f"the control span (worst residual {worst:.2e} < 1e-9) "
                          f"[{elapsed:.2f}s]")


def _lockstep_closed_loop_deviation(kind: str, lift: bool, t_end=20.0, dt=1e-3,
                                    tolerance=1e-4, bail_factor=100.0):
    """Zip the library's g = 0 and g = 10 closed-loop streams; early-exit on
    decisive failure.  The runs have no norm guard: the drift is reported."""
    streams = []
    for g in (0.0, 10.0):
        m = build_restructured(ModelParams(g=g))
        streams.append(_closed_loop_points(
            m, demo_schedule(24, kind), preset_state(m, "dfs_pair"), t_end, dt,
            build_invariant_basis(m, lift_complement=lift), 1e-9, np.inf,
            "least_squares", {}))
    max_dev = norm_drift = t_reached = 0.0
    start = time.perf_counter()
    for (t, _, y0, norm0, _), (_, _, y10, norm10, _) in zip(*streams):
        max_dev = max(max_dev, abs(abs(y10) - abs(y0)))
        norm_drift = max(norm_drift, abs(norm0 - 1.0), abs(norm10 - 1.0))
        t_reached = t
        if max_dev > bail_factor * tolerance:
            break
    runtime = time.perf_counter() - start
    completed = t_reached >= t_end - dt / 2
    return max_dev, completed, t_reached, norm_drift, runtime


@pytest.mark.parametrize("kind", ["zero", "constant", "sinusoidal"])
def test_criterion_05_closed_loop_decoupling(kind):
    tolerance = 1e-4
    m = build_restructured()
    xi0 = preset_state(m, "dfs_pair")
    y0 = abs(np.vdot(xi0, m.coherence_op.matrix @ xi0))
    assert abs(y0 - 0.5) < 1e-12

    dev, completed, t_reached, drift, runtime = _lockstep_closed_loop_deviation(
        kind, lift=False)
    detail = (f"schedule '{kind}', bare complement: max |y| deviation {dev:.3e} "
              f"{'' if completed else f'(aborted early at t={t_reached:.2f}) '}"
              f"norm drift {drift:.2e} [{runtime:.0f}s]")
    if dev >= tolerance:
        dev2, completed2, t2, drift2, runtime2 = _lockstep_closed_loop_deviation(
            kind, lift=True)
        detail += (f"; lifted complement: deviation {dev2:.3e} "
                   f"{'' if completed2 else f'(aborted at t={t2:.2f}) '}[{runtime2:.0f}s]")
        dev = min(dev, dev2)
    ok = dev < tolerance
    if ok and completed:
        _ACCEPTED_NORM_DRIFTS[f"closed_loop_{kind}"] = drift
    assert _report(5, ok, detail + f"; requirement max deviation < {tolerance:g}")


def test_criterion_06_open_loop_contrast():
    t0 = time.perf_counter()
    v = np.zeros(4)
    v[0] = 1.0
    sched = ControlSchedule.constant(v)
    trajs = {}
    for g in (0.0, 10.0):
        m = build_two_qubit(ModelParams(g=g))
        trajs[g] = integrate_open_loop(m, sched, preset_state(m, "dfs_pair"),
                                       t_end=20.0, dt=1e-3)
    dev = np.abs(trajs[10.0].abs_y - trajs[0.0].abs_y)
    first_t = trajs[0.0].times[int(np.argmax(dev > 0.05))] if (dev > 0.05).any() else None
    ok = dev.max() > 0.05
    for g, traj in trajs.items():
        _ACCEPTED_NORM_DRIFTS[f"open_loop_g{g:g}"] = traj.max_norm_drift
    elapsed = time.perf_counter() - t0
    assert _report(6, ok, f"open-loop deviation reaches {dev.max():.3f} > 0.05 "
                          f"(first exceeded at t = {first_t}) [{elapsed:.0f}s]")


def test_criterion_07_norm_budget():
    assert _ACCEPTED_NORM_DRIFTS, "earlier criteria must register trajectories"
    worst = max(_ACCEPTED_NORM_DRIFTS.values())
    ok = worst <= 1e-6
    assert _report(7, ok, "accepted trajectories keep max | |xi| - 1 | = "
                          f"{worst:.2e} <= 1e-6 over "
                          f"{sorted(_ACCEPTED_NORM_DRIFTS)}")


def test_criterion_08_cbh_scaling():
    t0 = time.perf_counter()
    m = build_ancilla_system()
    HA, HB = m.controls[5], m.controls[8]  # ancilla y field, ancilla-bath coupling
    bracket = commutator(HA, HB)
    ts = np.array([1e-2, 1e-3, 1e-4])
    errs = [(cbh_effective_generator(HA, HB, float(t))[1] - bracket).norm()
            for t in ts]
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    ok = abs(slope - 1.0) <= 0.1
    elapsed = time.perf_counter() - t0
    assert _report(8, ok, f"maneuver remainder scales with slope "
                          f"{slope:.3f} = 1.0 +/- 0.1 [{elapsed:.2f}s]")


def test_criterion_09_algebra_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90210)
    ok = True

    def rand(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    # tensor-commutator identity
    for _ in range(200):
        da, db = rng.integers(2, 5, size=2)
        A, B, Cm, Dm = rand(da), rand(db), rand(da), rand(db)
        lhs = np.kron(A, B) @ np.kron(Cm, Dm) - np.kron(Cm, Dm) @ np.kron(A, B)
        rhs = np.kron(Cm @ A, B @ Dm - Dm @ B) + np.kron(A @ Cm - Cm @ A, B @ Dm)
        ok = ok and np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())

    # Jacobi
    for _ in range(200):
        d = int(rng.integers(2, 5))
        A, B, Cm = (Operator(rand(d)) for _ in range(3))
        total = commutator(A, commutator(B, Cm)).matrix \
            + commutator(B, commutator(Cm, A)).matrix \
            + commutator(Cm, commutator(A, B)).matrix
        ok = ok and np.abs(total).max() < 1e-11 * max(
            1.0, A.norm() * B.norm() * Cm.norm())

    # polarization: expectation values on 4*dim states pin the operator
    for _ in range(200):
        d = int(rng.integers(2, 5))
        states = []
        for _ in range(4 * d):
            s = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            states.append(s / np.linalg.norm(s))
        M = np.stack([np.outer(s.conj(), s).ravel() for s in states])
        recon = np.linalg.lstsq(M, np.zeros(4 * d), rcond=None)[0]
        ok = ok and np.linalg.norm(recon) < 1e-8
        A = rand(d)
        ok = ok and np.abs(M @ A.ravel()).max() > 1e-3 * np.linalg.norm(A)

    # unitarity of skew exponentials
    for _ in range(200):
        d = int(rng.integers(2, 5))
        M = rand(d)
        U = matrix_exponential(Operator(M - M.conj().T, "skew_hermitian")).matrix
        ok = ok and np.linalg.norm(U.conj().T @ U - np.eye(d)) < 1e-10

    elapsed = time.perf_counter() - t0
    assert _report(9, ok, f"4 x 200 randomized algebra properties at stated "
                          f"tolerances [{elapsed:.1f}s]")


def test_criterion_10_electrooptic_check():
    t0 = time.perf_counter()
    model = build_electrooptic(n_sys=10, params=ModelParams(g=1.0))
    n_env = model.params.env_levels
    omega = model.params.omega0

    # [C(t), H_1] = 2 cos(w t) I away from the truncation boundary
    bracket = commutator(model.coherence_op, model.controls[0]).families
    ok = set(bracket) == {(omega, 0), (-omega, 0)}
    keep = np.arange(8)
    for key in ((omega, 0), (-omega, 0)):
        mat = bracket[key].reshape(10, n_env, 10, n_env)
        sub = mat[np.ix_(keep, np.arange(n_env), keep, np.arange(n_env))]
        ok = ok and np.abs(sub.reshape(8 * n_env, 8 * n_env)
                           - np.eye(8 * n_env)).max() < 1e-9

    # drift/clock map annihilates C(t) on the whole truncation
    step = commutator(model.coherence_op, model.drift) + model.coherence_op.derivative()
    ok = ok and step.is_zero(tol=1e-9)

    # and the measurement is not immune to the interaction
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                           depth_cap=2)
    with pytest.warns(UserWarning):
        verdict = check_open_loop_invariance(dist, model.interaction)
    ok = ok and verdict.verdict == "not_invariant"
    elapsed = time.perf_counter() - t0
    assert _report(10, ok, "rotating-quadrature identities hold to 1e-9 on the "
                           f"safe subspace; open-loop verdict not_invariant "
                           f"[{elapsed:.2f}s]")
