import numpy as np
import pytest

from qdecouple import (
    ModelParams,
    Operator,
    Span,
    TensorLayout,
    build_ancilla_system,
    build_electrooptic,
    build_one_qubit,
    build_restructured,
    build_two_qubit,
    cbh_effective_generator,
    commutator,
    kron_embed,
    make_primitive,
    span_membership,
)
from qdecouple.models import _coherence, restructured_system_operators
from qdecouple.operators import NumericalError
import scipy.linalg


ALL_BUILDERS = [build_one_qubit, build_two_qubit, build_ancilla_system, build_restructured]


# ---------------------------------------------------------------------------
# structural contracts
# ---------------------------------------------------------------------------

def test_one_qubit_structure():
    m = build_one_qubit()
    assert m.dim == 6 and m.n_controls == 2
    assert m.layout.dims == (2, 3)


def test_two_qubit_structure(two_qubit_model):
    assert two_qubit_model.dim == 12
    assert two_qubit_model.n_controls == 4


def test_ancilla_structure():
    m = build_ancilla_system()
    assert m.dim == 24 and m.n_controls == 9
    assert m.layout.dims == (2, 2, 2, 3)


def test_restructured_structure(restructured_model):
    assert restructured_model.dim == 12
    assert restructured_model.n_controls == 24
    # environment factor varies fastest in the control ordering
    labels = [op.label for op in restructured_model.controls]
    assert labels[0:3] == ["sx1 D^0", "sx1 D^1", "sx1 D^2"]
    assert labels[3].startswith("sy1")


def test_all_generators_skew():
    for build in ALL_BUILDERS:
        m = build()
        assert m.drift.hermiticity == "skew_hermitian"
        assert m.interaction.hermiticity == "skew_hermitian"
        assert all(c.hermiticity == "skew_hermitian" for c in m.controls)


def test_zero_coupling_gives_zero_interaction():
    m = build_one_qubit(ModelParams(g=0.0))
    assert m.interaction.norm() == 0.0
    m2 = build_two_qubit(ModelParams(g=0.0))
    assert m2.interaction.norm() == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(env_levels=1)
    with pytest.raises(ValueError):
        ModelParams(omega0=float("inf"))
    for levels in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="env_levels must be an integer"):
            ModelParams(env_levels=levels)
    assert build_two_qubit(ModelParams(env_levels=np.int64(3))).layout.total_dim == 12
    # frequencies, Ising couplings, g and w are numbers; the field is named
    for name, value in (("omega0", "1"), ("omega_env", None), ("j1", [1.0]), ("j2", "1"),
                        ("g", "10"), ("w", b"1")):
        with pytest.raises(ValueError, match=f"parameter {name} must be a number"):
            ModelParams(**{name: value})
    for value in (2, 2.5, np.float32(2.5), np.int64(2)):
        ModelParams(omega0=value, omega_env=value, j1=value, j2=value, g=value, w=value)
    # g and w may be complex; the frequencies and Ising couplings are real,
    # also when a complex value has no imaginary part
    for value in (2.5 + 0.5j, np.complex128(1j)):
        ModelParams(g=value, w=value)
    for name in ("omega0", "omega_env", "j1", "j2"):
        for value in (1j, 2.5 + 0.5j, np.complex128(1j), 1 + 0j):
            with pytest.raises(ValueError, match=f"parameter {name} must be real, got "):
                ModelParams(**{name: value})


def test_electrooptic_requires_three_levels():
    with pytest.raises(ValueError):
        build_electrooptic(n_sys=2)


@pytest.mark.parametrize("build,n_qubits,coupled", [
    (build_one_qubit, 1, 1),
    (build_two_qubit, 2, 2),
    (build_ancilla_system, 3, 2),
    (build_restructured, 2, 2),
])
def test_collective_dephasing_drift_and_interaction(build, n_qubits, coupled):
    # oracle: H0 = (w0/2) sum_k sz_k + w_env n and H_SE = (sum_{k<coupled} sz_k) D_g,
    # assembled here slot by slot
    p = ModelParams(omega0=0.7, omega_env=1.3, g=2.5 - 1.5j, w=0.4 + 0.9j, env_levels=4)
    m = build(p)
    layout = TensorLayout((2,) * n_qubits + (4,))
    assert m.layout.dims == layout.dims
    sz = [kron_embed(make_primitive("pauli_z", 2), k, layout).matrix for k in range(n_qubits)]
    b = make_primitive("boson_lower", 4)
    number = kron_embed(b.dagger() @ b, n_qubits, layout).matrix
    d_g = kron_embed(make_primitive("displacement", 4, w=p.g), n_qubits, layout).matrix
    h0 = (p.omega0 / 2) * sum(sz) + p.omega_env * number
    h_se = sum(sz[:coupled]) @ d_g
    assert np.abs(m.drift.matrix - (-1j) * h0).max() < 1e-12
    assert np.abs(m.interaction.matrix - (-1j) * h_se).max() < 1e-12
    # every qubit's splitting is in H0; only the coupled ones dephase (not the ancilla)
    for k in range(n_qubits):
        assert np.vdot(sz[k], 1j * m.drift.matrix).real == pytest.approx(p.omega0 / 2 * m.dim)
        overlap = abs(np.vdot(sz[k] @ d_g, 1j * m.interaction.matrix))
        assert (overlap > 1.0) == (k < coupled)


def _kron_coherence(layout, ket, bra):
    """|ket><bra| (x) I as `models._coherence` built it before it filled the
    matrix by index: np.kron of the qubit projector with the identity."""
    proj = np.zeros((2 ** len(ket), 2 ** len(ket)), dtype=complex)
    proj[int(ket, 2), int(bra, 2)] = 1.0
    return np.kron(proj, np.eye(layout.total_dim // proj.shape[0], dtype=complex))


@pytest.mark.parametrize("env_levels", [2, 3])
def test_coherence_is_byte_equal_to_kron_form(env_levels):
    p = ModelParams(env_levels=env_levels)
    shipped = [(build_one_qubit(p), "1", "0")]
    shipped += [(build(p), "01", "10") for build in ALL_BUILDERS[1:]]
    for m, ket, bra in shipped:
        assert m.coherence_op.matrix.tobytes() == \
            _kron_coherence(m.layout, ket, bra).tobytes(), m.name
    for n in range(1, 5):  # the candidates of find_dfs_coherences
        layout = TensorLayout((2,) * n + (env_levels,))
        words = [format(k, f"0{n}b") for k in range(2 ** n)]
        for ket in words:
            for bra in words:
                C = _coherence(layout, ket, bra)
                assert C.matrix.tobytes() == _kron_coherence(layout, ket, bra).tobytes()
                assert C.hermiticity == "general" and C.label == f"|{ket}><{bra}|"


# ---------------------------------------------------------------------------
# electro-optic identities
# ---------------------------------------------------------------------------

def test_electrooptic_control_bracket_is_cosine_on_safe_levels():
    model = build_electrooptic(n_sys=10, params=ModelParams(g=1.0))
    C = model.coherence_op
    bracket = commutator(C, model.controls[0]).families
    n_env = model.params.env_levels
    keep = np.arange(8)
    for key in ((model.params.omega0, 0), (-model.params.omega0, 0)):
        mat = bracket[key].reshape(10, n_env, 10, n_env)
        sub = mat[np.ix_(keep, np.arange(n_env), keep, np.arange(n_env))]
        sub = sub.reshape(8 * n_env, 8 * n_env)
        assert np.abs(sub - np.eye(8 * n_env)).max() < 1e-9


def test_electrooptic_coherence_constant_under_drift(rng):
    # oracle: exact propagation by matrix exponential, u = 0 and g = 0
    model = build_electrooptic(n_sys=8, params=ModelParams(g=0.0))
    dim = model.dim
    xi0 = np.zeros(dim, dtype=complex)
    xi0[0] = 0.6
    xi0[model.params.env_levels] = 0.8  # cavity level 1, env ground
    xi0 /= np.linalg.norm(xi0)

    y0 = np.vdot(xi0, model.coherence_op.evaluate(0.0).matrix @ xi0)
    for t in (0.3, 1.7, 4.0):
        U = scipy.linalg.expm(model.drift.matrix * t)
        xi = U @ xi0
        y = np.vdot(xi, model.coherence_op.evaluate(t).matrix @ xi)
        assert abs(abs(y) - abs(y0)) < 1e-10


# ---------------------------------------------------------------------------
# ancilla commutators and maneuver chains
# ---------------------------------------------------------------------------

def _embed_ancilla(mat_q1, mat_q2, mat_b, mat_env):
    return np.kron(np.kron(np.kron(mat_q1, mat_q2), mat_b), mat_env)


def test_ancilla_h6_h9_bracket():
    m = build_ancilla_system()
    h6, h9 = m.controls[5], m.controls[8]
    sx = make_primitive("pauli_x", 2).matrix
    i2 = np.eye(2, dtype=complex)
    Dw = make_primitive("displacement", 3, w=m.params.w).matrix
    target = Operator(_embed_ancilla(i2, i2, sx, Dw))
    res = span_membership(commutator(h6, h9), [target])
    assert res.is_member and res.residual_norm < 1e-10


def test_ancilla_h4_h8_bracket():
    m = build_ancilla_system()
    h4, h8 = m.controls[3], m.controls[7]
    sx = make_primitive("pauli_x", 2).matrix
    sz = make_primitive("pauli_z", 2).matrix
    i2 = np.eye(2, dtype=complex)
    target = Operator(_embed_ancilla(i2, sx, sz, np.eye(3, dtype=complex)))
    res = span_membership(commutator(h4, h8), [target])
    assert res.is_member and res.residual_norm < 1e-10


def _trace_ancilla(mat24):
    t = mat24.reshape(2, 2, 2, 3, 2, 2, 2, 3)
    return np.einsum("abkcdekf->abcdef", t).reshape(12, 12)


@pytest.mark.parametrize("chain_controls,target_sys", [
    # qubit-2 coupling: [[H4,H8],[[H8,H5],[H6,H9]]] ~ sigma_y^(2) (x) D
    (((3, 7), ((7, 4), (5, 8))), "sy2"),
    # qubit-1 coupling: [[H2,H7],[[H7,H5],[H6,H9]]] ~ sigma_y^(1) (x) D
    (((1, 6), ((6, 4), (5, 8))), "sy1"),
])
def test_maneuver_chain_reproduces_restructured_control(chain_controls, target_sys):
    m = build_ancilla_system()
    c = m.controls

    (i1, j1), ((a1, a2), (b1, b2)) = chain_controls
    left = commutator(c[i1], c[j1])
    right = commutator(commutator(c[a1], c[a2]), commutator(c[b1], c[b2]))
    chain = commutator(left, right)

    traced = Operator(_trace_ancilla(chain.matrix))
    sy = make_primitive("pauli_y", 2).matrix
    i2 = np.eye(2, dtype=complex)
    Dw = make_primitive("displacement", 3, w=m.params.w).matrix
    sys_op = np.kron(sy, i2) if target_sys == "sy1" else np.kron(i2, sy)
    target = Operator(np.kron(sys_op, Dw))
    res = span_membership(traced, [target])
    assert res.is_member and res.residual_norm < 1e-9 * max(1.0, traced.norm())
    assert traced.norm() > 1e-6  # the chain is not vacuously zero


def test_restructured_control_brackets_close(restructured_model):
    m = restructured_model
    gens = list(m.controls)
    for g_op in gens:
        br = commutator(g_op, m.interaction)
        res = span_membership(br, gens)
        assert res.residual_norm < 1e-9 * max(1.0, br.norm())


@pytest.mark.parametrize("env_levels,degree", [(n, p) for n in range(2, 6)
                                               for p in range(1, n + 2)])
def test_internal_model_law(env_levels, degree):
    # the internal model principle: the brackets of the eight system operators
    # dressed with D_w^0 ... D_w^(degree-1) close with H_SE into their span
    # (criterion 4, tested as `check` does) iff the dressing carries the model
    # of the whole truncated environment, degree >= env_levels
    params = ModelParams(env_levels=env_levels)
    d_w = make_primitive("displacement", env_levels, w=params.w).matrix
    powers = [np.linalg.matrix_power(d_w, i) for i in range(degree)]
    controls = [Operator(np.kron(s_op, env), "hermitian").times_minus_i()
                for s_op in restructured_system_operators() for env in powers]
    interaction = build_restructured(params).interaction
    span = Span(controls, 1e-9)
    worst = 0.0
    for g_op in controls:
        br = commutator(g_op, interaction)
        worst = max(worst, span.membership(br).residual_norm / max(br.norm(), 1e-300))
    assert (worst <= 1e-9) == (degree >= env_levels), worst
    if (env_levels, degree) == (3, 3):
        shipped = build_restructured(params).controls
        assert all(np.allclose(a.matrix, b.matrix, rtol=0, atol=1e-12)
                   for a, b in zip(controls, shipped, strict=True))


# ---------------------------------------------------------------------------
# pulse maneuvers
# ---------------------------------------------------------------------------

def test_cbh_commuting_generators():
    A = Operator(-1j * np.diag([1.0, 2.0]).astype(complex), "skew_hermitian")
    B = Operator(-1j * np.diag([0.5, 0.25]).astype(complex), "skew_hermitian")
    U, eff = cbh_effective_generator(A, B, 1e-2)
    assert np.abs(U.matrix - np.eye(2)).max() < 1e-12
    assert eff.norm() < 1e-8


def test_cbh_effective_approaches_bracket():
    m = build_ancilla_system()
    HA, HB = m.controls[5], m.controls[8]
    bracket = commutator(HA, HB)
    _, eff = cbh_effective_generator(HA, HB, 1e-3)
    rel = (eff - bracket).norm() / bracket.norm()
    assert rel < 5e-3  # O(t) remainder at t = 1e-3


def test_cbh_scaling_slope():
    # oracle: log-log regression of the remainder over exact matrix products
    m = build_ancilla_system()
    HA, HB = m.controls[5], m.controls[8]
    bracket = commutator(HA, HB)
    ts = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for t in ts:
        _, eff = cbh_effective_generator(HA, HB, float(t))
        errs.append((eff - bracket).norm())
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert abs(slope - 1.0) < 0.1


def test_cbh_rejects_bad_inputs():
    H = Operator(np.eye(2, dtype=complex), "hermitian")
    S = Operator(-1j * np.eye(2, dtype=complex), "skew_hermitian")
    with pytest.raises(ValueError):
        cbh_effective_generator(H, S, 1e-3)
    with pytest.raises(ValueError):
        cbh_effective_generator(S, S, -1.0)
