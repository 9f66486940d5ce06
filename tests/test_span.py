"""Span: one factorization of a basis, tested against many targets; and the
in-order incremental span shared by the closure walk and the synthesis.

Every case is compared with an inline SVD least-squares reference that
vectorizes target and basis together over the union of their coefficient
families and factors the basis afresh for each target.
"""

import math
import warnings

import numpy as np
import pytest

from qdecouple import (
    DimensionMismatchError,
    ModelParams,
    Operator,
    Span,
    TimeOperator,
    TimeTerm,
    build_ancilla_system,
    build_electrooptic,
    build_invariant_basis,
    build_one_qubit,
    build_restructured,
    build_two_qubit,
    check_controller_necessary,
    commutator,
    generate_ctilde,
    span_membership,
    synthesis,
)
from qdecouple.operators import _IncrementalSpan
from qdecouple.synthesis import FeedbackSynthesizer
from conftest import generator_bytes, random_matrix, random_state

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


def test_many_target_membership_matches_single_target(rng):
    # members, near-members and outsiders of full-rank, partial and empty
    # spans, tested in one projection and one at a time
    controls = list(build_restructured(ModelParams()).controls)
    targets = [commutator(a, b).matrix for a in controls[:4] for b in controls[::3]]
    targets += [c.matrix for c in controls[:3]]
    targets += [controls[0].matrix - 2.0 * controls[5].matrix + 1e-10 * controls[9].matrix]
    targets += [random_matrix(rng, 12), np.zeros((12, 12), complex)]
    targets = np.stack(targets)
    for basis in (controls, controls[:8], [Operator(np.zeros((12, 12)))], []):
        span = Span(basis, TOL)
        member, residual = span.memberships(targets)
        singles = [span.membership(t) for t in targets]
        assert member.tolist() == [r.is_member for r in singles]
        for t, r, single in zip(targets, residual, singles):
            assert abs(r - single.residual_norm) <= 1e-15 * max(1.0, np.linalg.norm(t))
    assert {True, False} <= set(Span(controls[:8], TOL).memberships(targets)[0].tolist())
    with pytest.raises(DimensionMismatchError):
        Span(controls, TOL).memberships(np.zeros((2, 4, 4), complex))


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


# ---------------------------------------------------------------------------
# the span's smaller side: equivalence with the Gram-Schmidt engine
# ---------------------------------------------------------------------------

def _previous_add(self, v, cutoff):
    """`_IncrementalSpan.add` as it was before it tested on the complement
    once the rows fill half a wide space: classical Gram-Schmidt against
    all accepted rows, verbatim."""
    rows = self.rows
    if v.size != rows.shape[1]:
        raise DimensionMismatchError(f"vector has {v.size} entries, the span "
                                     f"{rows.shape[1]}")
    # (R @ v*)* is R* @ v without copying the rows to conjugate them;
    # conj returns real arrays as they are
    v = v - rows.dot(v.conj()).conj().dot(rows)
    rn = math.sqrt(np.vdot(v, v).real)
    if cutoff < rn < 1e6 * cutoff:
        v = v - rows.dot(v.conj()).conj().dot(rows)
        rn = math.sqrt(np.vdot(v, v).real)
    if rn > cutoff:
        n = rows.shape[0]
        if n == self._buf.shape[0]:
            self._buf = np.empty((max(2 * n, 1), rows.shape[1]), dtype=rows.dtype)
            self._buf[:n] = rows
        self._buf[n] = v / rn
        self.rows = self._buf[:n + 1]
    return rn


def _stream(rng, width, real):
    """Random rows, and every fourth a combination of up to five rows drawn
    before it, enough of them that the span fills completely."""
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)
    rows = []
    for i in range(4 * width // 3 + 40):
        if i % 4 == 3:
            picks = rng.choice(len(rows), size=min(5, len(rows)), replace=False)
            rows.append(draw(len(picks)) @ np.stack([rows[p] for p in picks]))
        else:
            rows.append(draw(width))
    return rows


def _projector(rows):
    return rows.T @ rows.conj()


def _assert_same_span(new, old, rows, new_residuals, old_residuals, cutoff):
    assert [r > cutoff for r in new_residuals] == [r > cutoff for r in old_residuals]
    for row, a, b in zip(rows, new_residuals, old_residuals):
        assert abs(a - b) <= 1e-12 * np.linalg.norm(row)
    assert new.rows.shape == old.rows.shape
    assert np.abs(_projector(new.rows) - _projector(old.rows)).max() <= 1e-12


@pytest.mark.parametrize("width", [100, 144, 256, 300])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_complement_side_matches_gram_schmidt(width, real, monkeypatch):
    rows = _stream(np.random.default_rng(width + real), width, real)
    dtype = float if real else complex
    cutoff = TOL * max(np.linalg.norm(r) for r in rows)
    new = _IncrementalSpan(width, dtype)
    new_residuals = [new.add(r, cutoff) for r in rows]
    assert new._complement is not None and new._complement.shape == (0, width)
    monkeypatch.setattr(_IncrementalSpan, "add", _previous_add)
    old = _IncrementalSpan(width, dtype)
    old_residuals = [old.add(r, cutoff) for r in rows]
    assert old.rows.shape[0] == width
    _assert_same_span(new, old, rows, new_residuals, old_residuals, cutoff)


def test_widen_drops_the_complement_and_switches_again(monkeypatch):
    # 90 rows of 120 entries switch; 60 more columns leave 90 of 180, which
    # switches again at once, and the span grows on into the new columns
    rng = np.random.default_rng(15)
    first = _stream(rng, 120, False)[:120]
    more = _stream(rng, 180, False)

    def grow(span):
        residuals = [span.add(r, 1e-9) for r in first]
        switched = span._complement is not None
        span.widen(60)
        dropped = span._complement is None
        residuals += [span.add(r, 1e-9) for r in more]
        return residuals, switched, dropped

    new = _IncrementalSpan(120)
    new_residuals, switched, dropped = grow(new)
    assert switched and dropped and new._complement is not None
    monkeypatch.setattr(_IncrementalSpan, "add", _previous_add)
    old = _IncrementalSpan(120)
    old_residuals = grow(old)[0]
    padded = [np.concatenate([r, np.zeros(60)]) for r in first]
    _assert_same_span(new, old, padded + more, new_residuals, old_residuals, 1e-9)


_CLOSURE_MODELS = [build_one_qubit, build_two_qubit, build_restructured, build_electrooptic,
                   lambda: build_ancilla_system(ModelParams(env_levels=2))]


@pytest.mark.parametrize("build", _CLOSURE_MODELS,
                         ids=["one_qubit", "two_qubit", "restructured", "electro_optic",
                              "ancilla"])
def test_closures_match_gram_schmidt_walk(build, monkeypatch):
    model = build()
    args = (model.coherence_op, model.drift, list(model.controls))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unconverged closures at low caps
        new = [generate_ctilde(*args, cap, TOL) for cap in range(1, 13)]
        with monkeypatch.context() as patch:
            patch.setattr(_IncrementalSpan, "add", _previous_add)
            old = [generate_ctilde(*args, cap, TOL) for cap in range(1, 13)]
        for a, b in zip(new, old):
            assert [generator_bytes(g) for g in a.generators] == \
                [generator_bytes(g) for g in b.generators]
            assert (a.depth_reached, a.converged, a.keys) == (b.depth_reached, b.converged, b.keys)
            assert np.abs(a.basis - b.basis).max() <= 1e-12
            ra, rb = (check_controller_necessary(model.coherence_op, d, model.interaction)
                      for d in (a, b))
            assert ra.verdict == rb.verdict
            assert (ra.witness is None) == (rb.witness is None)
            if ra.witness is not None:
                assert generator_bytes(ra.witness) == generator_bytes(rb.witness)
            assert len(ra.residuals) == len(rb.residuals)
            assert max(abs(x - y) for x, y in zip(ra.residuals, rb.residuals)) <= 1e-12
    if model.name in ("restructured", "ancilla"):  # wide enough, and filled past half
        assert 2 * new[-1].rank >= model.dim ** 2 >= 100


def test_field_selection_never_switches(restructured_model, monkeypatch):
    # the synthesis's selection is 24 entries wide, under the width floor,
    # so every candidate field is tested on the rows
    m = restructured_model
    spans = []

    class Recorded(_IncrementalSpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

        def add(self, v, cutoff):
            rn = super().add(v, cutoff)
            assert self._complement is None
            return rn

    monkeypatch.setattr(synthesis, "_IncrementalSpan", Recorded)
    rng = np.random.default_rng(16)
    synth = FeedbackSynthesizer(m, build_invariant_basis(m, lift_complement=True))
    for _ in range(5):
        synth.sample(random_state(rng, m.dim))
    assert spans and {s.rows.shape[1] for s in spans} == {2 * m.dim}
