"""Span: one factorization of a basis, tested against many targets; and the
in-order incremental span shared by the closure walk and the synthesis.

Every case is compared with an inline SVD least-squares reference that
vectorizes target and basis together over the union of their coefficient
families and factors the basis afresh for each target.
"""

import numpy as np
import pytest

from qdecouple import (
    DimensionMismatchError,
    ModelParams,
    Operator,
    Span,
    TimeOperator,
    TimeTerm,
    build_restructured,
    commutator,
    generate_ctilde,
    span_membership,
)
from qdecouple.operators import _IncrementalSpan
from conftest import random_matrix

TOL = 1e-9


def _families(op):
    if isinstance(op, TimeOperator):
        return op.families
    return {(0.0, 0): op.matrix}


def _reference(target, basis, tol=TOL):
    """(is_member, coefficients, residual, rank) by a fresh SVD per target."""
    if isinstance(target, np.ndarray):
        t = target.ravel().astype(complex)
        cols = [np.asarray(b, dtype=complex).ravel() for b in basis]
    else:
        fams = [_families(op) for op in [target] + list(basis)]
        keys = sorted(set().union(*fams))
        size = target.dim ** 2

        def flat(f):
            return np.concatenate([f[k].ravel() if k in f else np.zeros(size, complex)
                                   for k in keys])
        t = flat(fams[0])
        cols = [flat(f) for f in fams[1:]]
    tnorm = np.linalg.norm(t)
    threshold = tol * max(1.0, tnorm)
    if not cols:
        return tnorm <= threshold, np.zeros(0, complex), tnorm, 0
    B = np.stack(cols, axis=1)
    u, s, vh = np.linalg.svd(B, full_matrices=False)
    rank = int((s > tol * s[0]).sum()) if s[0] > 0 else 0
    if rank == 0:
        return tnorm <= threshold, np.zeros(len(cols), complex), tnorm, 0
    coeffs = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ t) / s[:rank])
    residual = np.linalg.norm(B @ coeffs - t)
    return residual <= threshold, coeffs, residual, rank


def _assert_matches(result, target, basis, tol=TOL):
    member, coeffs, residual, rank = _reference(target, basis, tol)
    scale = max(1.0, np.linalg.norm(coeffs))
    assert result.is_member == member
    assert result.rank_used == rank
    assert abs(result.residual_norm - residual) <= 1e-10 * max(1.0, residual)
    assert np.linalg.norm(result.coefficients - coeffs) <= 1e-10 * scale


def _targets(rng, basis, n_random=3):
    """In-span combinations and generic targets for a list of Operators."""
    dim = basis[0].dim
    inside = [Operator(sum(c * b.matrix for c, b in zip(rng.standard_normal(len(basis)),
                                                        basis)))
              for _ in range(2)]
    return inside + [Operator(random_matrix(rng, dim)) for _ in range(n_random)]


def test_full_rank_operator_basis(rng):
    basis = [Operator(random_matrix(rng, 3)) for _ in range(5)]
    span = Span(basis, TOL)
    assert span.rank == 5
    for target in _targets(rng, basis):
        _assert_matches(span.membership(target), target, basis)


def test_rank_deficient_operator_basis(rng):
    free = [Operator(random_matrix(rng, 3)) for _ in range(4)]
    basis = free + [free[0] + free[1], Operator(2.0 * free[2].matrix - free[3].matrix)]
    span = Span(basis, TOL)
    assert span.rank == 4
    targets = _targets(rng, free)
    results = [span.membership(t) for t in targets]
    assert [r.is_member for r in results] == [True, True, False, False, False]
    for target, result in zip(targets, results):
        _assert_matches(result, target, basis)


def test_vector_targets(rng):
    basis = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
    basis.append(basis[0] - 0.5j * basis[2])
    span = Span(basis, TOL)
    targets = [basis[1] + 3.0 * basis[2], rng.standard_normal(6) + 0j]
    for target in targets:
        _assert_matches(span.membership(target), target, basis)
    assert span.membership(targets[0]).is_member
    assert not span.membership(targets[1]).is_member


def _time_op(rng, families, dim=3):
    return TimeOperator(tuple(TimeTerm(random_matrix(rng, dim), complex(rng.standard_normal()),
                                       freq, power) for freq, power in families))


def test_time_operator_targets(rng):
    basis = [_time_op(rng, [(0.0, 0), (1.0, 0)]), _time_op(rng, [(1.0, 0), (0.0, 1)]),
             _time_op(rng, [(0.0, 0)]), _time_op(rng, [(0.0, 1)])]
    span = Span(basis, TOL)
    inside = basis[0] + (-2.0) * basis[3]
    constant = Operator(random_matrix(rng, 3))
    for target in [inside, _time_op(rng, [(1.0, 0), (0.0, 1)]), constant]:
        _assert_matches(span.membership(target), target, basis)
    assert span.membership(inside).is_member


def test_target_family_missing_from_basis_counts_fully(rng):
    basis = [_time_op(rng, [(0.0, 0)]), _time_op(rng, [(1.0, 0)])]
    outside = _time_op(rng, [(2.0, 0)])
    target = basis[0] + outside
    span = Span(basis, TOL)
    result = span.membership(target)
    _assert_matches(result, target, basis)
    assert not result.is_member
    assert np.isclose(result.residual_norm, outside.norm(), rtol=1e-12)


def test_empty_basis(rng):
    target = Operator(random_matrix(rng, 2))
    result = Span([], TOL).membership(target)
    _assert_matches(result, target, [])
    assert not result.is_member and result.coefficients.size == 0
    assert Span([], TOL).rank == 0
    _assert_matches(Span([], TOL).membership(Operator(np.zeros((2, 2)))),
                    Operator(np.zeros((2, 2))), [])


def test_all_zero_basis(rng):
    basis = [Operator(np.zeros((3, 3))) for _ in range(3)]
    span = Span(basis, TOL)
    assert span.rank == 0
    for target in [Operator(random_matrix(rng, 3)), Operator(np.zeros((3, 3)))]:
        result = span.membership(target)
        _assert_matches(result, target, basis)
        assert result.coefficients.shape == (3,)


def test_target_dimension_must_match_basis(rng):
    operators = [Operator(random_matrix(rng, 2)) for _ in range(2)]
    vectors = [rng.standard_normal(4) + 0j for _ in range(2)]
    zero = [Operator(np.zeros((2, 2)))]
    cases = [(operators, Operator(random_matrix(rng, 3))),
             (operators, _time_op(rng, [(0.0, 0), (1.0, 0)], dim=3)),
             (vectors, rng.standard_normal(6) + 0j),
             (vectors, rng.standard_normal(2) + 0j),
             (zero, Operator(random_matrix(rng, 3)))]
    for basis, target in cases:
        with pytest.raises(DimensionMismatchError):
            Span(basis, TOL).membership(target)
        with pytest.raises(DimensionMismatchError):
            span_membership(target, basis, TOL)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_span_membership_wraps_span(rng, tol):
    free = [Operator(random_matrix(rng, 3)) for _ in range(3)]
    basis = free + [Operator(free[0].matrix + 1e-8 * free[1].matrix)]
    for target in _targets(rng, free):
        result = span_membership(target, basis, tol)
        _assert_matches(result, target, basis, tol)


@pytest.fixture(scope="module")
def restructured_closure():
    model = build_restructured(ModelParams())
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls), tol=TOL)
    return model, dist


def test_distribution_membership_matches_span_membership(restructured_closure, rng):
    model, dist = restructured_closure
    hse = model.interaction
    targets = [commutator(T, hse) for T in dist.generators[::15]]
    targets += [Operator(random_matrix(rng, model.dim)), dist.generators[7]]
    span = Span(dist.generators, TOL)
    assert span.rank == dist.rank
    for target in targets:
        shared = span.membership(target)
        _assert_matches(shared, target, dist.generators)
        fresh = span_membership(target, dist.generators, TOL)
        assert shared.is_member == fresh.is_member
        assert shared.rank_used == fresh.rank_used == dist.rank
        assert abs(shared.residual_norm - fresh.residual_norm) <= \
            1e-10 * max(1.0, fresh.residual_norm)
        assert np.linalg.norm(shared.coefficients - fresh.coefficients) <= \
            1e-10 * max(1.0, np.linalg.norm(fresh.coefficients))


# ---------------------------------------------------------------------------
# the in-order incremental span
# ---------------------------------------------------------------------------

def _grow(rows, dtype):
    """Add rows in order at the relative cutoff; (span, residuals)."""
    cutoff = TOL * max(np.linalg.norm(r) for r in rows)
    span = _IncrementalSpan(rows[0].size, dtype)
    return span, [span.add(r, cutoff) for r in rows], cutoff


def _assert_in_order(span, rows, residuals, cutoff):
    """Each residual against the rows accepted before it, by the reference."""
    accepted = []
    for row, residual in zip(rows, residuals):
        expected = _reference(row, accepted)[2]
        assert abs(residual - expected) <= 1e-10 * max(1.0, np.linalg.norm(row))
        if expected > cutoff:
            accepted.append(row)
    assert span.rows.shape[0] == len(accepted)
    gram = span.rows.conj() @ span.rows.T
    assert np.abs(gram - np.eye(len(accepted))).max() < 1e-12
    for row in accepted:  # the rows span exactly the accepted inputs
        assert _reference(row, list(span.rows))[2] < 1e-12 * np.linalg.norm(row)
    return [r > cutoff for r in residuals]


def _row_sets(rng, real):
    def draw():
        v = rng.standard_normal(6)
        return v if real else v + 1j * rng.standard_normal(6)
    free = [draw() for _ in range(4)]
    c = 0.5 if real else 0.5j
    deficient = [free[0], free[1], free[0] - c * free[1], free[2],
                 2.0 * free[2] + free[1], free[3]]
    return free, deficient


@pytest.mark.parametrize("real", [True, False])
def test_incremental_span_full_rank(real):
    free, _ = _row_sets(np.random.default_rng(11), real)
    dtype = float if real else complex
    span, residuals, cutoff = _grow(free, dtype)
    assert _assert_in_order(span, free, residuals, cutoff) == [True] * 4
    assert span.rows.dtype == dtype


@pytest.mark.parametrize("real", [True, False])
def test_incremental_span_rank_deficient(real):
    _, rows = _row_sets(np.random.default_rng(12), real)
    span, residuals, cutoff = _grow(rows, float if real else complex)
    assert _assert_in_order(span, rows, residuals, cutoff) == \
        [True, True, False, True, False, True]


def test_incremental_span_widens_with_zero_columns():
    rng = np.random.default_rng(13)
    old = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
    new = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    span = _IncrementalSpan()
    span.widen(4)
    for row in old:
        span.add(row, 1e-9)
    span.widen(4)
    assert span.rows.shape == (2, 8)
    assert not span.rows[:, 4:].any()
    padded = [np.concatenate([row, np.zeros(4)]) for row in old]
    rows = padded + [new, padded[0] + 2.0 * new]
    residuals = [span.add(row, 1e-9) for row in rows[2:]]
    assert residuals[0] > 1e-9 >= residuals[1]
    fresh, fresh_residuals, _ = _grow(rows, complex)
    assert _assert_in_order(fresh, rows, fresh_residuals, 1e-9) == [True, True, True, False]
    assert np.allclose(np.abs(span.rows.conj() @ fresh.rows.T), np.eye(3), atol=1e-12)


def test_incremental_span_rejects_other_dimensions():
    rng = np.random.default_rng(14)
    span = _IncrementalSpan(4)
    span.add(rng.standard_normal(4) + 0j, 1e-9)
    with pytest.raises(DimensionMismatchError):
        span.add(rng.standard_normal(9) + 0j, 1e-9)
    span.widen(4)  # a second coefficient family of a 2x2 operator
    with pytest.raises(DimensionMismatchError):
        span.add(rng.standard_normal(18) + 0j, 1e-9)
