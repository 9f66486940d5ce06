import numpy as np
import pytest
import scipy.linalg

from qdecouple import (
    ControlLawSample,
    DegenerateStateError,
    LinearVectorField,
    Operator,
    build_invariant_basis,
    build_two_qubit,
    kernel_dy_member,
    make_primitive,
    preset_state,
    synthesize_alpha_beta,
    synthesize_protective,
    verify_synthesis,
)
from qdecouple import synthesis
from qdecouple.operators import _IncrementalSpan, _numerical_rank
from qdecouple.synthesis import FeedbackSynthesizer, ProtectiveSynthesizer
from conftest import count_time_operators, random_state


@pytest.fixture(scope="module")
def basis(restructured_model):
    return build_invariant_basis(restructured_model)


# ---------------------------------------------------------------------------
# invariant basis
# ---------------------------------------------------------------------------

def test_basis_shapes(basis):
    assert len(basis.delta_ops) == 15
    assert len(basis.complement_ops) == 3
    assert len(basis.system_deltas) == 5


def test_delta4_commutes_with_coherence_oracle():
    # oracle: direct 4x4 commutator on the two-qubit factor
    sx = make_primitive("pauli_x", 2).matrix
    sy = make_primitive("pauli_y", 2).matrix
    delta4 = np.kron(sx, sx) - np.kron(sy, sy)
    C4 = np.zeros((4, 4), dtype=complex)
    C4[1, 2] = 1.0
    assert np.abs(delta4 @ C4 - C4 @ delta4).max() < 1e-15


def test_all_deltas_in_kernel(basis):
    assert basis.coherence_check.max() < 1e-12


def test_identity_delta_is_trivial(basis):
    labels = [op.label for op in basis.system_deltas]
    assert "I" in labels


def test_commutation_table_residuals(basis):
    assert max(basis.bracket_residuals.values()) < 1e-10


def test_complement_not_in_kernel(restructured_model, basis):
    # d2 lifts the Hermitian part of the coherence operator; it must be
    # transverse to ker(dy)
    d2 = basis.complement_ops[1]
    field = LinearVectorField(d2.times_minus_i(), "d2")
    out = kernel_dy_member(field, restructured_model.coherence_op)
    assert not out.member


def test_lifted_complement_variant(restructured_model):
    lifted = build_invariant_basis(restructured_model, lift_complement=True)
    assert len(lifted.complement_ops) == 9
    assert lifted.lifted_complement


@pytest.mark.parametrize("lift", [False, True])
def test_basis_validation_builds_no_time_operator(restructured_model, lift, monkeypatch):
    # the table's brackets and span tests read each constant operator
    # through its own families, never converting it
    built = count_time_operators(monkeypatch)
    basis = build_invariant_basis(restructured_model, lift_complement=lift)
    assert len(basis.complement_ops) == (9 if lift else 3)
    assert built == []


def test_basis_rejects_wrong_model(two_qubit_model):
    with pytest.raises(ValueError):
        build_invariant_basis(two_qubit_model)


# ---------------------------------------------------------------------------
# synthesis at specific states
# ---------------------------------------------------------------------------

def test_synthesis_at_canonical_state(restructured_model, basis):
    m = restructured_model
    xi0 = preset_state(m, "dfs_pair")
    sample = synthesize_alpha_beta(xi0, m, basis)
    K, q, r = sample.ranks
    assert K <= 15 and q <= 3 and r <= 24 + q + K
    assert (K, q) == (3, 2)
    # at this symmetric state the complement directions are orthogonal to
    # everything reachable: the first-step residuals equal their norms and
    # the corresponding beta columns vanish
    assert np.allclose(sample.beta[:, :q], 0.0, atol=1e-12)
    for res in sample.residuals[:q]:
        assert res > 1.0
    # the drift vanishes at this state, so alpha solves an all-zero system
    assert np.allclose(sample.alpha, 0.0)
    assert sample.beta_rank == 24 - q


def test_synthesis_against_independent_qr_oracle(restructured_model, basis, rng):
    # oracle: assemble the real-ified least-squares systems independently
    # and solve with a QR factorization (different LAPACK path than pinv);
    # the fitted projections and residuals must agree
    m = restructured_model
    xi = random_state(rng, m.dim)
    sample = synthesize_alpha_beta(xi, m, basis)
    K, q, r = sample.ranks

    def realify(vecs):
        return np.concatenate([np.asarray(vecs).real, np.asarray(vecs).imag], axis=-1)

    delta_vecs = [(-1j * op.matrix) @ xi for op in basis.delta_ops]
    comp_vecs = [(-1j * op.matrix) @ xi for op in basis.complement_ops]
    ctrl_vecs = [op.matrix @ xi for op in m.controls]

    # independent in-order greedy selection via explicit Gram-Schmidt
    sel = []
    Q = []
    scale = max(np.linalg.norm(realify(v)) for v in delta_vecs + comp_vecs + ctrl_vecs)
    for group, vecs in (("delta", delta_vecs), ("comp", comp_vecs), ("ctrl", ctrl_vecs)):
        for i, v in enumerate(vecs):
            rv = realify(v)
            for qv in Q:
                rv = rv - (qv @ rv) * qv
            for qv in Q:
                rv = rv - (qv @ rv) * qv
            n = np.linalg.norm(rv)
            if n > 1e-9 * scale:
                sel.append((group, i))
                Q.append(rv / n)
    K_oracle = sum(1 for g, _ in sel if g == "delta")
    q_oracle = sum(1 for g, _ in sel if g == "comp")
    assert (K_oracle, q_oracle, len(sel)) == (K, q, r)

    sel_delta = [i for g, i in sel if g == "delta"]
    sel_comp = [i for g, i in sel if g == "comp"]
    sel_ctrl = [i for g, i in sel if g == "ctrl"]
    A = np.concatenate([realify(ctrl_vecs),
                        -realify([delta_vecs[i] for i in sel_delta]),
                        -realify([ctrl_vecs[i] for i in sel_ctrl])], axis=0).T
    for col in range(q):
        b = realify(comp_vecs[sel_comp[col]])
        x_or, *_ = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")
        # the least-squares residual is unique even when the coefficient
        # vector is not (rank-deficient system)
        assert abs(np.linalg.norm(A @ x_or - b) - sample.residuals[col]) < 1e-8


def test_degenerate_state_raises(restructured_model, basis):
    m = restructured_model
    xi = np.zeros(m.dim, dtype=complex)
    xi[0] = 1.0  # |00> (x) |0>: every complement field vanishes here
    with pytest.raises(DegenerateStateError) as err:
        synthesize_alpha_beta(xi, m, basis)
    # the invariant span is strictly smaller than at a generic state
    generic = synthesize_alpha_beta(
        random_state(np.random.default_rng(5), m.dim), m, basis)
    assert err.value.K < generic.ranks[0]


def test_phase_invariance(restructured_model, basis, rng):
    m = restructured_model
    xi = random_state(rng, m.dim)
    s1 = synthesize_alpha_beta(xi, m, basis)
    s2 = synthesize_alpha_beta(np.exp(0.7j) * xi, m, basis)
    assert np.allclose(s1.alpha, s2.alpha, atol=1e-8)
    assert np.allclose(s1.beta, s2.beta, atol=1e-8)


def test_determinism(restructured_model, basis, rng):
    m = restructured_model
    xi = random_state(rng, m.dim)
    s1 = synthesize_alpha_beta(xi.copy(), m, basis)
    s2 = synthesize_alpha_beta(xi.copy(), m, basis)
    assert np.array_equal(s1.alpha, s2.alpha)
    assert np.array_equal(s1.beta, s2.beta)


def test_generic_state_full_beta_rank(restructured_model, basis, rng):
    m = restructured_model
    sample = synthesize_alpha_beta(random_state(rng, m.dim), m, basis)
    assert sample.ranks[1] == 3
    assert sample.beta_rank == 24
    # at generic states the complement directions are reachable
    assert max(sample.residuals[:3]) < 1e-8


def test_alpha_beta_real(restructured_model, basis, rng):
    sample = synthesize_alpha_beta(random_state(rng, restructured_model.dim),
                                   restructured_model, basis)
    assert sample.alpha.dtype == np.float64
    assert sample.beta.dtype == np.float64


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_identity_feedback_fails_on_bare_model(two_qubit_model, basis, rng):
    # positive control: no synthesis at all cannot make the invariant family
    # closed-loop invariant
    m = two_qubit_model
    xi = random_state(rng, m.dim)
    sample = ControlLawSample(state=xi, alpha=np.zeros(4), beta=np.eye(4),
                              ranks=(0, 0, 0), residuals=(), beta_rank=4)
    report = verify_synthesis(sample, m, basis)
    assert not report.passed
    assert report.worst_bracket > 1e-2


def test_verify_dfs_state_zero_disturbance(basis):
    # g = 0, identity feedback, state inside the protected pair: every
    # closed-loop field leaves the coherence untouched at this state
    from qdecouple import ModelParams
    m = build_two_qubit(ModelParams(g=0.0))
    xi0 = preset_state(m, "dfs_pair")
    sample = ControlLawSample(state=xi0, alpha=np.zeros(4), beta=np.eye(4),
                              ranks=(0, 0, 0), residuals=(), beta_rank=4)
    report = verify_synthesis(sample, m, basis)
    assert abs(report.lie_y_drift) < 1e-12
    assert np.abs(report.lie_y_controls).max() < 1e-12


def test_verify_reports_shapes(restructured_model, basis, rng):
    m = restructured_model
    xi = random_state(rng, m.dim)
    sample = synthesize_alpha_beta(xi, m, basis)
    report = verify_synthesis(sample, m, basis)
    assert report.bracket_residuals.shape == (15, 25)
    assert report.lie_y_controls.shape == (24,)


def test_verify_least_squares_feedback_measured_outcome(restructured_model, basis, rng):
    # regression anchor for the documented limitation: the pointwise
    # least-squares feedback does not achieve closed-loop invariance of the
    # family (README, "Known limitation"); flip deliberately if that changes
    m = restructured_model
    xi = random_state(rng, m.dim)
    sample = synthesize_alpha_beta(xi, m, basis)
    report = verify_synthesis(sample, m, basis)
    assert not report.passed
    assert report.worst_bracket > 0.5


# ---------------------------------------------------------------------------
# protective feedback
# ---------------------------------------------------------------------------

def test_protective_beta_is_projector(restructured_model, rng):
    m = restructured_model
    sample = synthesize_protective(random_state(rng, m.dim), m)
    B = sample.beta
    assert np.allclose(B, B.T, atol=1e-12)
    assert np.allclose(B @ B, B, atol=1e-10)
    assert np.allclose(sample.alpha, 0.0)


def test_protective_nulls_protected_block(restructured_model, rng):
    from qdecouple.synthesis import protected_block_indices
    m = restructured_model
    pidx = protected_block_indices(m)
    synth = ProtectiveSynthesizer(m)
    ctrl = np.stack([op.matrix for op in m.controls])
    for _ in range(5):
        xi = random_state(rng, m.dim)
        sample = synth.sample(xi)
        for _ in range(3):
            v = rng.standard_normal(24)
            u = sample.beta @ v
            field = np.tensordot(u, ctrl, axes=1) @ xi
            assert np.abs(field[pidx]).max() < 1e-10


def test_protected_block_indices(restructured_model):
    from qdecouple.synthesis import protected_block_indices
    idx = protected_block_indices(restructured_model)
    # states |01> and |10> tensored with the three environment levels
    assert sorted(idx) == [3, 4, 5, 6, 7, 8]


# ---------------------------------------------------------------------------
# pinned corpus: the selection against the loop it replaced
# ---------------------------------------------------------------------------

class _PreviousSelection:
    """The in-order selection loop `sample` ran before it shared the closure's
    span engine, behind the engine's interface: one `add(row, threshold)` per
    field row, returning the row's residual.  It always reorthogonalizes in
    the refine band, rejected rows included, and its preallocated buffer
    holds at most `width` rows (every corpus matrix has more rows)."""

    def __init__(self, width, dtype):
        self.Q = np.empty((width, width))
        self.k = 0

    def add(self, x, threshold):
        k = self.k
        if k:
            qk = self.Q[:k]
            x = x - (qk @ x) @ qk
            rn2 = float(x @ x)
            refine_band = 1e6 * threshold
            if rn2 < refine_band * refine_band:
                x = x - (qk @ x) @ qk
                rn2 = float(x @ x)
            rn = np.sqrt(rn2)
        else:
            rn = float(np.sqrt(x @ x))
        if rn > threshold and k < self.Q.shape[0]:
            self.Q[k] = x / rn
            self.k += 1
        return rn


def _pinned_corpus(model):
    """dfs_pair, 5 perturbations of it at each of 1e-2..1e-8, 200 random states."""
    rng = np.random.default_rng(20101)
    dfs = preset_state(model, "dfs_pair")
    states = [dfs]
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        for _ in range(5):
            v = dfs + eps * (rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim))
            states.append(v / np.linalg.norm(v))
    return states + [random_state(rng, model.dim) for _ in range(200)]


def _accepted(span_class, synth, xi):
    vecs = synth.all_gen @ xi
    X = np.concatenate([vecs.real, vecs.imag], axis=1)
    threshold = synth.tol * np.linalg.norm(X, axis=1).max()
    span = span_class(X.shape[1], float)
    return np.array([span.add(x, threshold) for x in X]) > threshold


def test_selection_matches_previous_loop_on_pinned_corpus(restructured_model, monkeypatch):
    m = restructured_model
    states = _pinned_corpus(m)
    warned = 0
    for lift in (False, True):
        synth = FeedbackSynthesizer(m, build_invariant_basis(m, lift_complement=lift))
        new = [synth.sample(xi) for xi in states]
        masks = [_accepted(synthesis._IncrementalSpan, synth, xi) for xi in states]
        with monkeypatch.context() as patch:
            patch.setattr(synthesis, "_IncrementalSpan", _PreviousSelection)
            old = [synth.sample(xi) for xi in states]
        for xi, mask, a, b in zip(states, masks, new, old):
            assert np.array_equal(mask, _accepted(_PreviousSelection, synth, xi))
            assert a.ranks == b.ranks
            assert a.beta_rank == b.beta_rank
            assert a.warnings == b.warnings
            assert a.residuals == b.residuals
            assert np.array_equal(a.alpha, b.alpha)
            assert np.array_equal(a.beta, b.beta)
        warned += sum(bool(a.warnings) for a in new)
    # the corpus reaches the rank-straddle warning, so its text is compared too
    assert warned >= 1


def _previous_sample(self, xi):
    """`FeedbackSynthesizer.sample` as it was before its solve stage called
    LAPACK directly and took the completion basis from the pivoted QR of the
    step-1 columns: scipy.linalg lstsq, svd and qr and numpy qr, verbatim."""
    xi = np.asarray(xi, dtype=complex).ravel()
    tol = self.tol
    nc = self.n_ctrl
    nd, ncp = self.n_delta, self.n_comp

    vecs = self.all_gen @ xi
    X = np.concatenate([vecs.real, vecs.imag], axis=1)       # rows are fields
    k0 = self.drift @ xi
    k0r = np.concatenate([k0.real, k0.imag])

    scale = float(np.linalg.norm(X, axis=1).max(initial=0.0))
    if scale == 0.0:
        raise ValueError("all candidate fields vanish at this state")
    threshold = tol * scale

    # in-order greedy independence selection: a field is accepted when
    # its residual against the fields accepted before it clears the
    # cutoff, by the accept/reject rule the commutator closure uses
    span = _IncrementalSpan(X.shape[1], float)
    rdiag = np.array([span.add(x, threshold) for x in X])
    accepted = rdiag > threshold

    sel_delta = np.nonzero(accepted[:nd])[0]
    sel_comp = np.nonzero(accepted[nd:nd + ncp])[0]
    sel_g = np.nonzero(accepted[nd + ncp:])[0]
    K = len(sel_delta)
    q = len(sel_comp)
    if q == 0:
        raise DegenerateStateError(
            "no complement direction extends the invariant span at this "
            f"state (K = {K}); the feedback construction is undefined here",
            K=K)
    r_total = K + q + len(sel_g)

    warnings: list[str] = []
    rej = rdiag[~accepted]
    if accepted.any() and rej.size:
        gap = rdiag[accepted].min() / max(rej.max(), 1e-300)
        if gap < 10.0:
            warnings.append(
                f"rank estimation instability: residuals straddle the cutoff "
                f"within factor {gap:.2f}")

    Dl = X[:nd]
    Cl = X[nd:nd + ncp]
    Gl = X[nd + ncp:]
    V_delta = Dl[sel_delta]
    V_comp = Cl[sel_comp]
    V_gc = Gl[sel_g]

    # steps 1 and 3 share one coefficient matrix: [G, -V_delta, -V_gcomp];
    # one batched minimum-norm least-squares solve covers all targets
    A = np.concatenate([Gl, -V_delta, -V_gc], axis=0).T
    targets = np.concatenate([V_comp[:q], -k0r[None, :]], axis=0).T
    sol, _, _, _ = scipy.linalg.lstsq(A, targets, cond=tol,
                                      lapack_driver="gelsd",
                                      check_finite=False)
    fit = A @ sol - targets
    beta = np.zeros((nc, nc))
    residuals: list[float] = []
    for i in range(q):
        beta[:, i] = sol[:nc, i]
        residuals.append(float(np.linalg.norm(fit[:, i])))
    alpha = sol[:nc, q]
    residuals.append(float(np.linalg.norm(fit[:, q])))

    # completion: null space of [G, V].  Candidates are the projections
    # of the bare channel directions onto the null space (the projector
    # is canonical, so the completion inherits phase invariance); beta
    # parts are picked greedily for independence from the step-1 columns
    # by one pivoted QR (pivot order = greedy largest-residual selection)
    Mt = np.concatenate([Gl, V_delta, V_comp, V_gc], axis=0)  # (nc + r, 2n)
    u_m, s_m, _ = scipy.linalg.svd(Mt, full_matrices=False, check_finite=False,
                                   lapack_driver="gesdd")
    rank_m = _numerical_rank(s_m, tol)
    u_beta = u_m[:nc, :rank_m]                  # row-space basis, beta block
    cand = np.eye(nc) - u_beta @ u_beta.T       # beta part of P_null e_j

    fixed = beta[:, :q]
    _, Rf, pivf = scipy.linalg.qr(fixed, mode="economic", pivoting=True,
                                  check_finite=False)
    rf = np.abs(np.diag(Rf))
    # the floor keeps pure-noise step-1 columns (unreachable targets)
    # from polluting the completion basis
    fixed_rank = int((rf > tol * max(rf[0], 1.0)).sum()) if rf.size else 0
    Qb = np.linalg.qr(fixed[:, sorted(pivf[:fixed_rank])])[0] \
        if fixed_rank else np.zeros((nc, 0))

    proj = cand - Qb @ (Qb.T @ cand) if Qb.shape[1] else cand
    _, Rp, piv = scipy.linalg.qr(proj, mode="economic", pivoting=True,
                                 check_finite=False)
    rp = np.abs(np.diag(Rp))
    take = [int(piv[j]) for j in range(min(len(piv), nc - q))
            if j < rp.size and rp[j] > tol]
    for j, c_idx in enumerate(take):
        beta[:, q + j] = cand[:, c_idx]

    s_beta = scipy.linalg.svd(beta, compute_uv=False, check_finite=False)
    beta_rank = _numerical_rank(s_beta, tol)

    return ControlLawSample(
        state=xi.copy(),
        alpha=alpha,
        beta=beta,
        ranks=(K, q, r_total),
        residuals=tuple(residuals),
        beta_rank=beta_rank,
        warnings=tuple(warnings),
    )


def test_solve_stage_matches_previous_on_pinned_corpus(restructured_model):
    m = restructured_model
    states = _pinned_corpus(m)
    for lift in (False, True):
        synth = FeedbackSynthesizer(m, build_invariant_basis(m, lift_complement=lift))
        for xi in states:
            a, b = synth.sample(xi), _previous_sample(synth, xi)
            assert a.ranks == b.ranks
            assert a.beta_rank == b.beta_rank
            assert a.warnings == b.warnings
            assert a.residuals == b.residuals
            assert np.array_equal(a.alpha, b.alpha)
            assert np.array_equal(a.beta, b.beta)


def test_alpha_only_sample_matches_full_sample_on_pinned_corpus(restructured_model):
    # the closed loop asks only for alpha under a zero drive: the solve stage
    # alone must give the full sample's alpha, ranks, residuals and warnings
    m = restructured_model
    states = _pinned_corpus(m)
    for lift in (False, True):
        synth = FeedbackSynthesizer(m, build_invariant_basis(m, lift_complement=lift))
        for xi in states:
            full, alone = synth.sample(xi), synth.sample(xi, alpha_only=True)
            assert (alone.beta, alone.beta_rank) == (None, None)
            assert alone.ranks == full.ranks
            assert alone.residuals == full.residuals
            assert alone.warnings == full.warnings
            assert np.array_equal(alone.alpha, full.alpha)
            assert np.array_equal(alone.state, full.state)
