from dataclasses import replace

import numpy as np
import pytest

from qdecouple import (
    DimensionMismatchError,
    LinearVectorField,
    Operator,
    build_one_qubit,
    commutator,
    decide,
    generate_ctilde,
    kernel_dy_member,
    make_primitive,
    span_membership,
    vf_bracket,
)
from conftest import random_matrix, random_state


def _skew(rng, d):
    M = random_matrix(rng, d)
    return Operator(M - M.conj().T, "skew_hermitian")


def _field(op, label=""):
    return LinearVectorField(op, label)


# ---------------------------------------------------------------------------
# bracket basics
# ---------------------------------------------------------------------------

def test_vf_bracket_sign_convention(rng):
    # pinned once: vf_bracket(KA, KB).generator == -commutator(A, B)
    A, B = _skew(rng, 4), _skew(rng, 4)
    br = vf_bracket(_field(A), _field(B))
    assert np.allclose(br.generator.matrix, -commutator(A, B).matrix)


def test_vf_bracket_antisymmetry_and_commuting(rng):
    K = _field(_skew(rng, 3))
    assert np.allclose(vf_bracket(K, K).generator.matrix, 0.0)

    D1 = Operator(-1j * np.diag([1.0, 2.0, 3.0]).astype(complex), "skew_hermitian")
    D2 = Operator(-1j * np.diag([0.5, 0.5, 2.0]).astype(complex), "skew_hermitian")
    assert np.allclose(vf_bracket(_field(D1), _field(D2)).generator.matrix, 0.0)


def test_vf_bracket_jacobi(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        KA, KB, KC = (_field(_skew(rng, d)) for _ in range(3))
        total = vf_bracket(KA, vf_bracket(KB, KC)).generator.matrix \
            + vf_bracket(KB, vf_bracket(KC, KA)).generator.matrix \
            + vf_bracket(KC, vf_bracket(KA, KB)).generator.matrix
        scale = max(1.0, KA.generator.norm() * KB.generator.norm() * KC.generator.norm())
        assert np.abs(total).max() < 1e-11 * scale


def test_two_qubit_control_interaction_bracket(two_qubit_model):
    # bracket of the first control with the interaction points along
    # sigma_y^(1) (x) D, a direction outside the model's control span
    m = two_qubit_model
    K1 = m.control_fields()[0]
    KI = m.interaction_field()
    br = vf_bracket(K1, KI)

    sy = make_primitive("pauli_y", 2).matrix
    D = make_primitive("displacement", m.params.env_levels, w=m.params.g).matrix
    target_dir = Operator(np.kron(np.kron(sy, np.eye(2)), D))
    res = span_membership(br.generator, [target_dir])
    assert res.is_member and res.residual_norm < 1e-10


# ---------------------------------------------------------------------------
# ker(dy) membership
# ---------------------------------------------------------------------------

def test_kernel_two_qubit_interaction_in_kernel(two_qubit_model):
    m = two_qubit_model
    out = kernel_dy_member(m.interaction_field(), m.coherence_op)
    assert out.member


def test_kernel_one_qubit_interaction_not_in_kernel():
    m = build_one_qubit()
    out = kernel_dy_member(m.interaction_field(), m.coherence_op)
    assert not out.member
    # witness proportional to |1><0| (x) D
    D = make_primitive("displacement", m.params.env_levels, w=m.params.g).matrix
    proj = np.zeros((2, 2), dtype=complex)
    proj[1, 0] = 1.0
    target = Operator(np.kron(proj, D))
    res = span_membership(Operator(out.witness.matrix), [target])
    assert res.is_member and res.residual_norm < 1e-10


def test_kernel_zero_field_and_precondition(two_qubit_model):
    m = two_qubit_model
    zero = _field(Operator(np.zeros((m.dim, m.dim)), "skew_hermitian"))
    assert kernel_dy_member(zero, m.coherence_op).member
    hermitian_gen = _field(Operator(np.eye(m.dim, dtype=complex), "hermitian"))
    with pytest.raises(ValueError):
        kernel_dy_member(hermitian_gen, m.coherence_op)


def test_kernel_lie_derivative_vanishes_at_states(two_qubit_model, rng):
    # member verdict implies the sampled Lie derivative vanishes everywhere
    m = two_qubit_model
    KI = m.interaction_field()
    C = m.coherence_op.matrix
    A = KI.generator.matrix
    for _ in range(20):
        xi = random_state(rng, m.dim)
        lie = np.vdot(xi, C @ (A @ xi)) - np.vdot(xi, A @ (C @ xi))
        assert abs(lie) < 1e-12 * np.linalg.norm(C) * np.linalg.norm(A)


# ---------------------------------------------------------------------------
# open-loop verdicts
# ---------------------------------------------------------------------------

def test_open_loop_fails_on_control_bracket(two_qubit_model):
    # K_I lies in ker(dy), but the control brackets kick the closure out of
    # the interaction's commutant
    decision = decide(two_qubit_model)
    assert decision.kernel.member
    assert decision.open_loop.verdict == "not_invariant"
    assert decision.open_loop.witness is not None


def test_open_loop_collective_dephasing_closure(two_qubit_model):
    # candidate = bracket closure of {K_I} under the drift, no controls;
    # oracle: independent BFS closure with an SVD rank check
    m = two_qubit_model
    delta = generate_ctilde(m.interaction, m.drift, [])

    mats = [m.interaction.matrix]
    frontier = [m.interaction.matrix]
    for _ in range(12):
        new = []
        for T in frontier:
            B = m.drift.matrix
            cand = B @ T - T @ B  # vf_bracket generator of (T-field, drift)
            if np.linalg.norm(cand) > 1e-9:
                new.append(cand)
        mats.extend(new)
        frontier = new
        if len(mats) > 40:
            break
    stacked = np.stack([mm.ravel() / np.linalg.norm(mm) for mm in mats])
    s = np.linalg.svd(stacked, compute_uv=False)
    oracle_rank = int((s > 1e-9 * s[0]).sum())
    assert delta.converged and delta.rank == oracle_rank

    # without controls the protected coherence is immune in open loop
    decision = decide(replace(m, controls=()))
    assert decision.kernel.member
    assert decision.verdict == "invariant"


def _rank_closure_oracle(seeds, fields, cutoff=1e-9, depth=12):
    # independent of the package's span engines: collect every bracket of
    # every collected matrix with every field and re-SVD the whole stack
    # until the rank stops growing
    def rank(mats):
        stacked = np.stack([mm.ravel() / np.linalg.norm(mm) for mm in mats])
        s = np.linalg.svd(stacked, compute_uv=False)
        return int((s > cutoff * s[0]).sum())

    mats = list(seeds)
    frontier = list(seeds)
    current = rank(mats)
    for _ in range(depth):
        new = [F @ T - T @ F for T in frontier for F in fields]
        new = [c for c in new if np.linalg.norm(c) > cutoff]
        if not new or rank(mats + new) == current:
            break
        mats.extend(new)
        frontier = new
        current = rank(mats)
    return current


def test_closure_with_controls_matches_svd_oracle(two_qubit_model):
    m = two_qubit_model
    delta = generate_ctilde(m.interaction, m.drift, list(m.controls))
    oracle = _rank_closure_oracle([m.interaction.matrix],
                                  [g.matrix for g in (m.drift, *m.controls)])
    assert oracle == 12
    assert delta.rank == oracle


def test_restructured_interaction_closure_rank(restructured_model):
    m = restructured_model
    dist = generate_ctilde(m.interaction, m.drift, list(m.controls))
    assert dist.rank == 143


def test_interaction_closure_generators_unit_norm(two_qubit_model):
    m = two_qubit_model
    delta = generate_ctilde(m.interaction, m.drift, list(m.controls))
    for g in delta.generators:
        assert g.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# controlled decouplability
# ---------------------------------------------------------------------------

def test_controlled_two_qubit_original_fails(two_qubit_model):
    decision = decide(two_qubit_model)
    assert decision.verdict == "necessary_failed"
    assert decision.necessary.witness is not None


def test_controlled_restructured_control_brackets_pass(restructured_model):
    # criterion 4: every [g, H_SE] lands in span(G)
    decision = decide(restructured_model)
    assert decision.kernel.member
    assert decision.brackets_close and decision.bracket_residual <= 1e-9
    assert decision.verdict == "decouplable"


# ---------------------------------------------------------------------------
# consistency of the two formalisms
# ---------------------------------------------------------------------------

def test_formalism_agreement_one_and_two_qubits(two_qubit_model):
    from qdecouple import check_controller_necessary, generate_ctilde

    one = build_one_qubit()
    dist1 = generate_ctilde(one.coherence_op, one.drift, list(one.controls))
    algebra1 = check_controller_necessary(one.coherence_op, dist1, one.interaction)
    geo1 = kernel_dy_member(one.interaction_field(), one.coherence_op)
    assert algebra1.verdict == "necessary_failed" and not geo1.member

    m = two_qubit_model
    dist2 = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    algebra2 = check_controller_necessary(m.coherence_op, dist2, m.interaction)
    geo2 = kernel_dy_member(m.interaction_field(), m.coherence_op)
    geo2_full = decide(m)
    # both formalisms: first necessary condition holds, full immunity fails
    assert algebra2.residuals[0] <= 1e-9 and geo2.member
    assert algebra2.verdict != "invariant" and geo2_full.open_loop.verdict == "not_invariant"


def test_pointwise_membership_follows_generator_membership(rng):
    for _ in range(10):
        # keep dim above the generator count so pointwise spans stay proper
        d = int(rng.integers(5, 8))
        gens = [_skew(rng, d) for _ in range(3)]
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        member_gen = Operator(sum(c * g.matrix for c, g in zip(coeffs, gens)))
        assert span_membership(member_gen, gens).is_member
        for _ in range(10):
            xi = random_state(rng, d)
            vec = member_gen.matrix @ xi
            basis_vecs = [g.matrix @ xi for g in gens]
            assert span_membership(vec, basis_vecs).is_member

        outsider = _skew(rng, d)
        if span_membership(outsider, gens).is_member:
            continue
        pointwise = []
        for _ in range(10):
            xi = random_state(rng, d)
            pointwise.append(span_membership(outsider.matrix @ xi,
                                             [g.matrix @ xi for g in gens]))
        # generically the pointwise test must also fail somewhere
        assert not all(p.is_member for p in pointwise)


def test_closure_rejects_controls_of_different_dimensions():
    D2 = Operator(-1j * np.diag([1.0, 2.0]).astype(complex), "skew_hermitian")
    D3 = Operator(-1j * np.diag([1.0, 2.0, 3.0]).astype(complex), "skew_hermitian")
    with pytest.raises(DimensionMismatchError):
        generate_ctilde(Operator(np.diag([1.0, -1.0]).astype(complex)), D2, [D3])
