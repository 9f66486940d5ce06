import numpy as np
import pytest

from qdecouple import (
    DimensionMismatchError,
    ModelParams,
    Operator,
    TensorLayout,
    TimeOperator,
    TimeTerm,
    bilinear_form,
    build_electrooptic,
    commutator,
    kron_embed,
    make_primitive,
    matrix_exponential,
    span_membership,
)
from qdecouple.operators import _brackets, _collect_keys, _stack, vectorize
from conftest import random_matrix, random_state

SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_pauli_z_convention():
    sz = make_primitive("pauli_z", 2)
    assert np.allclose(sz.matrix, np.diag([1.0, -1.0]))
    assert sz.hermiticity == "hermitian"


def test_boson_lower_matches_ladder_coefficients():
    # oracle: textbook sqrt(n) coefficients as an explicit 3x3 matrix
    expected = np.array([[0, 1, 0], [0, 0, SQ2], [0, 0, 0]], dtype=complex)
    b = make_primitive("boson_lower", 3)
    assert np.allclose(b.matrix, expected)
    ket1 = np.array([0, 1, 0], dtype=complex)
    ket2 = np.array([0, 0, 1], dtype=complex)
    assert np.allclose(b.matrix @ ket1, [1, 0, 0])
    assert np.allclose(b.matrix @ ket2, [0, SQ2, 0])


def test_boson_raise_truncates_top_level():
    bd = make_primitive("boson_raise", 3)
    top = np.array([0, 0, 1], dtype=complex)
    assert np.allclose(bd.matrix @ top, 0.0)


def test_displacement_is_hermitian():
    for w in (1.0, 0.3 - 2.0j):
        D = make_primitive("displacement", 3, w=w)
        assert D.hermiticity == "hermitian"


def test_primitive_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        make_primitive("pauli_x", 3)
    with pytest.raises(DimensionMismatchError):
        make_primitive("boson_lower", 1)


# ---------------------------------------------------------------------------
# kron_embed
# ---------------------------------------------------------------------------

def test_kron_embed_first_slot():
    layout = TensorLayout((2, 2))
    sx = make_primitive("pauli_x", 2)
    assert np.allclose(kron_embed(sx, 0, layout).matrix,
                       np.kron(sx.matrix, np.eye(2)))


def test_kron_embed_identity_any_slot():
    layout = TensorLayout((2, 3, 2))
    for slot, d in enumerate(layout.dims):
        ident = make_primitive("identity", d)
        assert np.allclose(kron_embed(ident, slot, layout).matrix, np.eye(12))


def test_kron_embed_against_explicit_matrix_vector_product():
    # oracle: build the embedded operator entry-wise from index arithmetic
    layout = TensorLayout((2, 2, 3))
    sz = make_primitive("pauli_z", 2)
    embedded = kron_embed(sz, 1, layout)

    dim = 12
    explicit = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        i0, rem = divmod(i, 6)
        i1, i2 = divmod(rem, 3)
        for j in range(dim):
            j0, rem = divmod(j, 6)
            j1, j2 = divmod(rem, 3)
            if i0 == j0 and i2 == j2:
                explicit[i, j] = sz.matrix[i1, j1]
    assert np.allclose(embedded.matrix, explicit)

    # |0>|1>|0> is the basis vector with index 0*6 + 1*3 + 0 = 3
    state = np.zeros(dim, dtype=complex)
    state[3] = 1.0
    assert np.allclose(embedded.matrix @ state, -state)
    assert np.allclose(explicit @ state, -state)


def test_kron_embed_errors():
    layout = TensorLayout((2, 3))
    with pytest.raises(DimensionMismatchError):
        kron_embed(make_primitive("pauli_x", 2), 1, layout)
    with pytest.raises(DimensionMismatchError):
        kron_embed(make_primitive("pauli_x", 2), 5, layout)


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------

def test_pauli_commutator_oracle():
    # oracle: direct 2x2 multiplication
    sx, sy, sz = (make_primitive(k, 2) for k in ("pauli_x", "pauli_y", "pauli_z"))
    direct = sx.matrix @ sy.matrix - sy.matrix @ sx.matrix
    assert np.allclose(direct, 2j * sz.matrix)
    assert np.allclose(commutator(sx, sy).matrix, direct)


def test_commutator_antisymmetry_and_disjoint_slots(rng):
    A = Operator(random_matrix(rng, 4))
    assert np.allclose(commutator(A, A).matrix, 0.0)

    layout = TensorLayout((2, 2))
    sx0 = kron_embed(make_primitive("pauli_x", 2), 0, layout)
    sz1 = kron_embed(make_primitive("pauli_z", 2), 1, layout)
    assert np.allclose(commutator(sx0, sz1).matrix, 0.0)


def test_commutator_flags():
    sx = make_primitive("pauli_x", 2)
    sy = make_primitive("pauli_y", 2)
    assert commutator(sx, sy).hermiticity == "skew_hermitian"
    assert commutator(sx.times_minus_i(), sy.times_minus_i()).hermiticity == "skew_hermitian"


def test_stacked_brackets_have_the_bits_of_each_pair(rng):
    # one stacked product per generator gives each pair's product bit for
    # bit, and commutator is its one-pair case
    x = random_matrix(rng, 6)
    ys = np.stack([random_matrix(rng, 6) for _ in range(5)])
    for y, b in zip(ys, _brackets(x, ys)):
        assert b.tobytes() == (x @ y - y @ x).tobytes()
        assert commutator(Operator(x), Operator(y)).matrix.tobytes() == b.tobytes()
    T = TimeOperator((TimeTerm(x, 1.0, 2.0, 0), TimeTerm(ys[0], 1.0, 0.0, 1)))
    mixed = commutator(T, Operator(ys[1])).families
    assert mixed[(2.0, 0)].tobytes() == (x @ ys[1] - ys[1] @ x).tobytes()
    assert mixed[(0.0, 1)].tobytes() == (ys[0] @ ys[1] - ys[1] @ ys[0]).tobytes()
    with pytest.raises(DimensionMismatchError):
        _brackets(x, ys[:, :5, :5])
    with pytest.raises(DimensionMismatchError):
        _stack([x, x[:5, :5]], 6)
    assert _stack([], 6).shape == (0, 6, 6)


def test_tensor_commutator_identity(rng):
    # [A (x) B, C (x) D] = CA (x) [B, D] + [A, C] (x) BD, 200 random draws
    for _ in range(200):
        da = rng.integers(2, 5)
        db = rng.integers(2, 5)
        A, C = random_matrix(rng, da), random_matrix(rng, da)
        B, D = random_matrix(rng, db), random_matrix(rng, db)
        lhs = np.kron(A, B) @ np.kron(C, D) - np.kron(C, D) @ np.kron(A, B)
        rhs = np.kron(C @ A, B @ D - D @ B) + np.kron(A @ C - C @ A, B @ D)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


def test_jacobi_identity(rng):
    for _ in range(200):
        d = rng.integers(2, 5)
        A, B, C = (Operator(random_matrix(rng, d)) for _ in range(3))
        total = commutator(A, commutator(B, C)).matrix \
            + commutator(B, commutator(C, A)).matrix \
            + commutator(C, commutator(A, B)).matrix
        scale = max(1.0, A.norm() * B.norm() * C.norm())
        assert np.abs(total).max() < 1e-11 * scale


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_exp_zero_is_identity():
    Z = Operator(np.zeros((4, 4)), "hermitian")
    assert np.allclose(matrix_exponential(Z).matrix, np.eye(4))


def test_exp_pauli_rotation_against_eigendecomposition():
    # oracle: eigendecomposition of sigma_x
    sx = make_primitive("pauli_x", 2)
    gen = Operator(-1j * (np.pi / 2) * sx.matrix, "skew_hermitian")
    vals, vecs = np.linalg.eigh(sx.matrix)
    expected = vecs @ np.diag(np.exp(-1j * (np.pi / 2) * vals)) @ vecs.conj().T
    got = matrix_exponential(gen).matrix
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(got, -1j * sx.matrix, atol=1e-12)


def test_exp_skew_preserves_norm(rng):
    for _ in range(200):
        d = int(rng.integers(2, 6))
        M = random_matrix(rng, d)
        skew = Operator(M - M.conj().T, "skew_hermitian")
        U = matrix_exponential(skew).matrix
        xi = random_state(rng, d)
        assert abs(np.linalg.norm(U @ xi) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# span membership
# ---------------------------------------------------------------------------

def test_span_member_by_construction(rng):
    basis = [Operator(random_matrix(rng, 3)) for _ in range(3)]
    res = span_membership(basis[0], basis)
    assert res.is_member and res.residual_norm < 1e-10


def test_span_orthogonal_complement_not_member(rng):
    v1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    v2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    target = np.array([0.0, 0.0, 2.0], dtype=complex)
    res = span_membership(target, [v1, v2])
    assert not res.is_member
    assert np.isclose(res.residual_norm, 2.0)


def test_span_coefficients_via_normal_equations():
    # oracle: hand-solved 2x2 normal equations for an independent basis
    b1 = np.array([1.0, 1.0, 0.0], dtype=complex)
    b2 = np.array([0.0, 1.0, 1.0], dtype=complex)
    target = 2.0 * b1 - 3.0 * b2
    # normal equations: [[<b1,b1>, <b1,b2>], [<b2,b1>, <b2,b2>]] c = [<b1,t>, <b2,t>]
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    rhs = np.array([np.vdot(b1, target), np.vdot(b2, target)])
    oracle = np.linalg.solve(G, rhs)
    assert np.allclose(oracle, [2.0, -3.0])
    res = span_membership(target, [b1, b2])
    assert res.is_member
    assert np.allclose(res.coefficients, [2.0, -3.0], atol=1e-10)


def test_span_empty_basis():
    target = np.array([1.0, 2.0], dtype=complex)
    res = span_membership(target, [])
    assert not res.is_member
    assert np.isclose(res.residual_norm, np.linalg.norm(target))


def test_span_projection_idempotent(rng):
    basis = [random_state(rng, 5) for _ in range(3)]
    target = random_state(rng, 5)
    first = span_membership(target, basis)
    projected = np.stack(basis, axis=1) @ first.coefficients
    second = span_membership(projected, basis)
    assert second.residual_norm < 1e-12


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

def _coherence_12():
    proj = np.zeros((4, 4), dtype=complex)
    proj[1, 2] = 1.0
    return Operator(proj, "general", "|01><10|")


def test_bilinear_dfs_pair_gives_half():
    C = _coherence_12()
    xi = np.zeros(4, dtype=complex)
    xi[1] = xi[2] = 1 / SQ2
    assert np.isclose(bilinear_form(xi, C), 0.5)


def test_bilinear_orthogonal_support_and_identity(rng):
    C = _coherence_12()
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    assert bilinear_form(e00, C) == 0.0
    ident = make_primitive("identity", 4)
    xi = random_state(rng, 4)
    assert np.isclose(bilinear_form(xi, ident), 1.0)


def test_bilinear_norm_precondition():
    C = _coherence_12()
    with pytest.raises(ValueError):
        bilinear_form(np.array([1.0, 1.0, 0, 0]), C)


def test_polarization_recovers_zero_operator(rng):
    # <xi|A|xi> = 0 on 4*dim random states forces A ~ 0; random A is detected
    dim = 4
    states = [random_state(rng, dim) for _ in range(4 * dim)]
    M = np.stack([np.outer(s.conj(), s).ravel() for s in states])

    A_zero = np.zeros((dim, dim), dtype=complex)
    y = M @ A_zero.ravel()
    recon = np.linalg.lstsq(M, y, rcond=None)[0].reshape(dim, dim)
    assert np.linalg.norm(recon) < 1e-8

    A_rand = random_matrix(rng, dim)
    y = M @ A_rand.ravel()
    assert np.abs(y).max() > 1e-3 * np.linalg.norm(A_rand)
    recon = np.linalg.lstsq(M, y, rcond=None)[0].reshape(dim, dim)
    assert np.linalg.norm(recon - A_rand) < 1e-8 * np.linalg.norm(A_rand)


# ---------------------------------------------------------------------------
# time operators
# ---------------------------------------------------------------------------

def _rotating_quadrature(n=4, omega=1.3):
    a = make_primitive("boson_lower", n)
    return TimeOperator((
        TimeTerm(a.matrix, 1.0, omega, 0),
        TimeTerm(a.dagger().matrix, 1.0, -omega, 0),
    ))


def test_time_derivative_of_rotating_quadrature():
    omega = 1.3
    T = _rotating_quadrature(omega=omega)
    families = T.derivative().families
    a = make_primitive("boson_lower", 4).matrix
    assert np.allclose(families[(omega, 0)], 1j * omega * a)
    assert np.allclose(families[(-omega, 0)], -1j * omega * a.conj().T)


def test_time_derivative_of_constant_is_zero():
    T = TimeOperator.constant(make_primitive("pauli_x", 2))
    assert T.derivative().is_zero()


def test_time_operator_evaluation_at_zero():
    T = _rotating_quadrature()
    a = make_primitive("boson_lower", 4).matrix
    assert np.allclose(T.evaluate(0.0).matrix, a + a.conj().T)


def test_time_operator_derivative_matches_sampling(rng):
    # exact coefficient calculus vs finite differences at random times
    T = TimeOperator((
        TimeTerm(random_matrix(rng, 3), 0.7 - 0.2j, 1.1, 2),
        TimeTerm(random_matrix(rng, 3), -1.3j, -0.4, 0),
    ))
    dT = T.derivative()
    eps = 1e-6
    for t in rng.uniform(0.0, 10.0, size=16):
        fd = (T.evaluate(t + eps).matrix - T.evaluate(t - eps).matrix) / (2 * eps)
        assert np.abs(fd - dT.evaluate(t).matrix).max() < 1e-6


def test_time_commutator_stays_in_family():
    T = _rotating_quadrature(n=3, omega=2.0)
    other = TimeOperator.constant(Operator(np.diag([0.0, 1.0, 2.0]).astype(complex)))
    bracket = commutator(T, other)
    keys = set(bracket.families)
    assert keys <= {(2.0, 0), (-2.0, 0)}


# canonical form: one matrix per (frequency, power) family

FAMILIES = [(0.0, 0), (1.5, 0), (-1.5, 0), (0.7, 1), (0.0, 2)]


def _random_terms(rng, n_terms, dim=3):
    """TimeTerms over a few keys, so several terms share one family."""
    picks = rng.integers(len(FAMILIES), size=n_terms)
    return [TimeTerm(random_matrix(rng, dim), complex(*rng.standard_normal(2)), *FAMILIES[i])
            for i in picks]


def _evaluate_terms(terms, t):
    """sum of a t^p e^(i nu t) M, one term at a time: the reference."""
    return sum(x.amplitude * t ** x.power * np.exp(1j * x.frequency * t) * x.matrix
               for x in terms)


def _derivative_terms(terms, t):
    return sum(x.amplitude * (1j * x.frequency * t ** x.power
                              + (x.power * t ** (x.power - 1) if x.power else 0.0))
               * np.exp(1j * x.frequency * t) * x.matrix for x in terms)


def _assert_close(got, ref):
    assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_terms_sharing_a_key_merge_into_one_family():
    rng = np.random.default_rng(101)
    A, B, C = (random_matrix(rng, 3) for _ in range(3))
    # frequencies equal at FREQ_DECIMALS share a key
    T = TimeOperator((TimeTerm(A, 0.5, 1.5, 1), TimeTerm(C, 2.0, -0.3, 0),
                      TimeTerm(B, -1j, 1.5 + 1e-14, 1)))
    assert list(T.families) == [(1.5, 1), (-0.3, 0)]
    assert np.array_equal(T.families[(1.5, 1)], 0.5 * A + (-1j) * B)
    assert np.array_equal(T.families[(-0.3, 0)], 2.0 * C)


def test_cancelling_terms_leave_no_family_and_keep_dim():
    rng = np.random.default_rng(102)
    A, B = random_matrix(rng, 3), random_matrix(rng, 3)
    T = TimeOperator((TimeTerm(A, 1.0, 0.7, 1), TimeTerm(B, 1.0, 0.0, 0),
                      TimeTerm(A, -1.0, 0.7, 1)))
    assert list(T.families) == [(0.0, 0)]
    empty = T + (-1.0) * T
    for op in [empty, TimeOperator((TimeTerm(A, 2.0), TimeTerm(A, -2.0))),
               commutator(TimeOperator.constant(Operator(A)), Operator(A)),
               TimeOperator.constant(Operator(B)).derivative()]:
        assert dict(op.families) == {}
        assert op.dim == 3
        assert op.norm() == 0.0 and op.is_zero()
        assert np.array_equal(op.evaluate(0.9).matrix, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        TimeOperator(())


def test_time_operator_is_read_only():
    rng = np.random.default_rng(103)
    T = TimeOperator(_random_terms(rng, 6))
    U = TimeOperator(_random_terms(rng, 6))
    for op in [T, T + U, 2.0 * T, T.derivative(), commutator(T, U)]:
        with pytest.raises(AttributeError):
            op.families = {}
        key, m = next(iter(op.families.items()))
        with pytest.raises(TypeError):
            op.families[key] = m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_operators_compare_and_hash_by_identity():
    # a value comparison of matrices needs a tolerance, so == is identity
    # and never raises, even between distinct objects with equal matrices
    a = np.arange(9.0).reshape(3, 3)
    pairs = [(Operator(a), Operator(a)), (TimeTerm(a), TimeTerm(a)),
             (TimeOperator.constant(Operator(a)), TimeOperator.constant(Operator(a)))]
    for x, y in pairs:
        assert x == x and not x != x
        assert x != y and not x == y
        assert len({x, y, x}) == 2


def test_time_operator_algebra_matches_term_by_term_evaluation():
    rng = np.random.default_rng(104)
    for _ in range(20):
        terms_a, terms_b = _random_terms(rng, 7), _random_terms(rng, 5)
        A, B = TimeOperator(terms_a), TimeOperator(terms_b)
        c = complex(*rng.standard_normal(2))
        total, scaled, dA, bracket = A + B, c * A, A.derivative(), commutator(A, B)
        for t in rng.uniform(0.0, 3.0, size=4):
            a_t, b_t = _evaluate_terms(terms_a, t), _evaluate_terms(terms_b, t)
            _assert_close(A.evaluate(t).matrix, a_t)
            _assert_close(total.evaluate(t).matrix, a_t + b_t)
            _assert_close(scaled.evaluate(t).matrix, c * a_t)
            _assert_close(dA.evaluate(t).matrix, _derivative_terms(terms_a, t))
            _assert_close(bracket.evaluate(t).matrix, a_t @ b_t - b_t @ a_t)


def test_is_zero_bounds_every_family_absolutely():
    unit = np.diag([1.0, 0.0]).astype(complex)
    T = TimeOperator((TimeTerm(unit, 3e-13, 1.5), TimeTerm(unit, 8e-13, 0.0, 1)))
    assert T.is_zero(1e-12) and T.is_zero(9e-13)
    assert not T.is_zero(5e-13) and not T.is_zero()
    # a residue of large terms that cancel is judged by its own norm, not
    # relative to the terms it came from
    big = 100.0 * np.ones((2, 2), dtype=complex)
    R = TimeOperator((TimeTerm(big), TimeTerm(big, -1.0), TimeTerm(unit, 1e-11)))
    assert not R.is_zero(1e-12) and R.is_zero(1e-11)


def test_truncation_caveat_ladder_commutator():
    # [b, b+] = I except on the top truncated level
    n = 5
    b = make_primitive("boson_lower", n)
    comm = commutator(b, b.dagger()).matrix
    assert np.allclose(comm[: n - 1, : n - 1], np.eye(n - 1))
    assert np.isclose(comm[n - 1, n - 1], -(n - 1))


def test_time_operator_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        TimeOperator((TimeTerm(np.eye(2, dtype=complex)),
                      TimeTerm(np.eye(3, dtype=complex))))


def test_time_term_rejects_a_non_integer_power():
    m = np.eye(2, dtype=complex)
    for power in (1.5, 2.0, -1, "1"):
        with pytest.raises(ValueError, match="non-negative integer"):
            TimeTerm(m, power=power)
    term = TimeTerm(m, power=np.int64(2))
    assert term.power == 2 and type(term.power) is int


# a constant Operator is its single (0, 0) family

def test_operator_families_is_its_one_constant_family():
    op = Operator(random_matrix(np.random.default_rng(105), 3))
    assert list(op.families) == [(0.0, 0)]
    assert op.families[(0.0, 0)] is op.matrix
    with pytest.raises(TypeError):
        op.families[(1.0, 0)] = op.matrix
    with pytest.raises(AttributeError):
        op.families = {}


def _same_families(x, y):
    assert list(x.families) == list(y.families)
    assert all(np.array_equal(x.families[k], y.families[k]) for k in x.families)


def _assert_read_as_constant(op, partners, keys):
    const = TimeOperator.constant(op)
    assert _collect_keys([op]) == _collect_keys([const]) == ((0.0, 0),)
    assert np.array_equal(vectorize(op, keys), vectorize(const, keys))
    for other in partners:
        assert _collect_keys([op, other]) == _collect_keys([const, other])
        _same_families(commutator(op, other), commutator(const, other))
        _same_families(commutator(other, op), commutator(other, const))


def test_constant_operator_reads_like_its_time_operator_constant():
    rng = np.random.default_rng(106)
    for _ in range(10):
        op, other = Operator(random_matrix(rng, 3)), Operator(random_matrix(rng, 3))
        timed = TimeOperator(_random_terms(rng, 6))
        _assert_read_as_constant(op, [other, timed], tuple(sorted(FAMILIES)))


def test_electrooptic_operators_read_like_their_time_operator_constants():
    model = build_electrooptic(n_sys=10, params=ModelParams(g=1.0))
    C, (control,), h_se = model.coherence_op, model.controls, model.interaction
    keys = _collect_keys([C, control])
    assert len(keys) == 3
    for op, partners in [(control, [C, h_se]), (h_se, [C, control])]:
        _assert_read_as_constant(op, partners, keys)
