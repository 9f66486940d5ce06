import itertools
import warnings
from collections import Counter

import numpy as np
import pytest

from qdecouple import (
    ModelParams,
    Operator,
    TimeOperator,
    build_ancilla_system,
    build_electrooptic,
    build_one_qubit,
    build_restructured,
    build_two_qubit,
    check_controller_necessary,
    check_open_loop_invariance,
    commutator,
    find_dfs_coherences,
    generate_ctilde,
    geometry,
    invariance,
    make_primitive,
    models,
    operators,
)
from qdecouple.geometry import LinearVectorField, _kernel_member, kernel_dy_member
from qdecouple.operators import Span, TimeTerm, _collect_keys, _IncrementalSpan, vectorize
from conftest import count_time_operators, generator_bytes


# ---------------------------------------------------------------------------
# closure generation
# ---------------------------------------------------------------------------

def test_ctilde_trivial_when_everything_commutes():
    # constant C commuting with the drift, no controls -> span{C}
    C = Operator(np.diag([1.0, -1.0, 0.0]).astype(complex))
    H = Operator(-1j * np.diag([0.3, 0.7, 1.1]).astype(complex), "skew_hermitian")
    dist = generate_ctilde(C, H, [])
    assert dist.converged
    assert dist.rank == 1


def test_ctilde_rank_matches_brute_force_bracket_words(two_qubit_model):
    # oracle: enumerate all bracket words of C with {drift, controls} up to
    # depth 6 and take the SVD rank of the stacked vectorized matrices
    m = two_qubit_model
    maps = [m.drift.matrix] + [c.matrix for c in m.controls]
    C0 = m.coherence_op.matrix

    words = [C0]
    frontier = [C0]
    for _ in range(6):
        new = []
        for T in frontier:
            for X in maps:
                new.append(T @ X - X @ T)
        words.extend(new)
        frontier = new

    stack = []
    for Wd in words:
        n = np.linalg.norm(Wd)
        if n > 1e-12:
            stack.append(Wd.ravel() / n)
    s = np.linalg.svd(np.stack(stack), compute_uv=False)
    oracle_rank = int((s > 1e-9 * s[0]).sum())

    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls), depth_cap=12)
    assert dist.converged
    assert dist.rank == oracle_rank


def test_ctilde_rank_independent_of_control_order(two_qubit_model):
    m = two_qubit_model
    base = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 0, 3, 1]):
        permuted = [m.controls[i] for i in perm]
        alt = generate_ctilde(m.coherence_op, m.drift, permuted)
        assert alt.rank == base.rank


def _reference_walk(C, H, controls, depth_cap, tol=1e-9, frontier=False):
    """The closure walk pair by pair, one `commutator` and one span test per
    candidate, with the noise floor and accept rule of `generate_ctilde`.
    By default it is the walk before the frontier rule: every sweep brackets
    every generator held at its start, so each pair is tried again in every
    later sweep.  `frontier` brackets only the generators the previous sweep
    accepted, as `generate_ctilde` does.  Returns the generators, the depth,
    whether the walk converged and the rank after each sweep."""
    span = _IncrementalSpan()
    keys = []
    gens = []

    def add(op, floor):
        n = op.norm()
        if n > floor and np.isfinite(n):
            op = (1.0 / n) * op
            new = [k for k in _collect_keys([op]) if k not in keys]
            if new:
                keys.extend(new)
                span.widen(len(new) * op.dim * op.dim)
            if span.add(vectorize(op, tuple(keys)), tol) > tol:
                gens.append(op)

    add(C, 0.0)
    h_norm = H.norm()
    depth = start = 0
    sizes = []
    for depth in range(1, depth_cap + 1):
        before = len(gens)
        for T in gens[start if frontier else 0:before]:
            t_norm = T.norm()
            for Hi in controls:
                add(commutator(T, Hi), 1e-12 * max(1.0, 2.0 * t_norm * Hi.norm()))
            drift_scale = t_norm * (2.0 * h_norm + invariance._derivative_bound(T))
            add(invariance._drift_step(T, H), 1e-12 * max(1.0, drift_scale))
        sizes.append(len(gens))
        if len(gens) == before:
            return gens, depth, True, sizes
        start = before
    return gens, depth, False, sizes


@pytest.mark.parametrize("name", ["two_qubit_model", "restructured_model"])
def test_closure_brackets_each_pair_once(name, request, monkeypatch):
    # every bracket goes through the one stacked helper, a control block
    # and a drift step alike, so its rows count the bracketed pairs
    model = request.getfixturevalue(name)
    pairs = 0
    brackets = operators._brackets

    def counted(x, ys):
        nonlocal pairs
        pairs += len(ys)
        return brackets(x, ys)

    monkeypatch.setattr(operators, "_brackets", counted)
    monkeypatch.setattr(invariance, "_brackets", counted)
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls))
    assert dist.converged
    assert pairs == dist.rank * (len(model.controls) + 1)


def test_constant_closure_builds_no_time_operator(restructured_model, monkeypatch):
    # a constant operator is read through its own families, never converted
    m = restructured_model
    built = count_time_operators(monkeypatch)
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    assert dist.rank > 100
    assert built == []


def test_frontier_walk_matches_full_walk(two_qubit_model, restructured_model, monkeypatch):
    # the walk at cap k is the first k sweeps of the walk at a higher cap, so
    # one reference walk per case checks each of its caps.  Below rounding
    # (tol=1e-16) a re-tried pair may join, so the reference there is the
    # pair-by-pair frontier walk, and every candidate above the noise floor
    # must take the in-order span test, as it does there.
    span_tests = 0
    add = _IncrementalSpan.add

    def counted(self, v, cutoff):
        nonlocal span_tests
        span_tests += 1
        return add(self, v, cutoff)

    monkeypatch.setattr(_IncrementalSpan, "add", counted)
    ancilla = build_ancilla_system(ModelParams(env_levels=2))
    cases = [(build_one_qubit(), range(1, 7), 1e-9), (two_qubit_model, range(1, 7), 1e-9),
             (build_electrooptic(), range(1, 13), 1e-9), (restructured_model, [12], 1e-9),
             (ancilla, range(1, 9), 1e-9), (two_qubit_model, range(1, 13), 1e-16),
             (restructured_model, [12], 1e-16)]
    for model, caps, tol in cases:
        args = (model.coherence_op, model.drift, list(model.controls))
        span_tests = 0
        ref_gens, ref_depth, ref_converged, sizes = _reference_walk(
            *args, max(caps), tol, frontier=tol < 1e-9)
        ref_tests = span_tests
        for cap in caps:
            span_tests = 0
            dist = generate_ctilde(*args, cap, tol)
            if ref_converged and cap >= ref_depth:
                expected = (ref_gens, ref_depth, True)
            else:
                expected = (ref_gens[:sizes[cap - 1]], cap, False)
            assert [generator_bytes(g) for g in dist.generators] == \
                [generator_bytes(g) for g in expected[0]], (model.name, cap, tol)
            assert (dist.depth_reached, dist.converged) == expected[1:]
        if tol < 1e-9:
            assert span_tests == ref_tests


def _restrict_time_op(T: TimeOperator, proj: np.ndarray) -> TimeOperator:
    return TimeOperator(tuple(TimeTerm(proj @ m @ proj, 1.0, nu, p)
                              for (nu, p), m in T.families.items()))


def test_electrooptic_first_level_closure_on_safe_subspace():
    # one closure sweep; away from the truncation boundary the family is
    # exactly span{C(t), I cos(w t)} (higher commutators vanish there)
    model = build_electrooptic(n_sys=10, params=ModelParams(g=1.0))
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                           depth_cap=1)

    n_sys, n_env = model.layout.dims
    keep = np.zeros(n_sys)
    keep[:8] = 1.0
    proj = np.kron(np.diag(keep), np.eye(n_env)).astype(complex)

    omega = model.params.omega0
    a = np.kron(make_primitive("boson_lower", n_sys).matrix, np.eye(n_env))
    targets = [
        _restrict_time_op(TimeOperator((
            TimeTerm(a, 1.0, omega, 0), TimeTerm(a.conj().T, 1.0, -omega, 0))), proj),
        _restrict_time_op(TimeOperator((
            TimeTerm(np.eye(n_sys * n_env, dtype=complex), 1.0, omega, 0),
            TimeTerm(np.eye(n_sys * n_env, dtype=complex), 1.0, -omega, 0))), proj),
    ]

    keys = ((-omega, 0), (omega, 0))
    T = np.stack([vectorize(t, keys) for t in targets], axis=1)

    for gen in dist.generators:
        g_res = _restrict_time_op(gen if isinstance(gen, TimeOperator)
                                  else TimeOperator.constant(gen), proj)
        v = vectorize(g_res, keys)
        coeff, *_ = np.linalg.lstsq(T, v, rcond=None)
        assert np.linalg.norm(T @ coeff - v) < 1e-9 * max(1.0, np.linalg.norm(v))


def test_electrooptic_drift_step_annihilates_coherence_operator():
    # (bracket with drift) + d/dt maps C(t) to zero on the whole truncation
    model = build_electrooptic(n_sys=10, params=ModelParams(g=1.0))
    from qdecouple.operators import commutator
    C = model.coherence_op
    step = commutator(C, model.drift) + C.derivative()
    assert step.is_zero(tol=1e-12)


# the float closure equals an exact closure over GF(p) through depth 16;
# deeper it over-counts (exact: rank 198, converged at depth 21), so no
# deeper rank is pinned
ELECTROOPTIC_RANKS = (2, 4, 7, 11, 16, 22, 29, 37, 47, 59, 73, 89, 107, 126, 144, 160)


def test_electrooptic_closure_ranks_through_depth_16():
    model = build_electrooptic()
    for cap, rank in enumerate(ELECTROOPTIC_RANKS, start=1):
        dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                               depth_cap=cap)
        assert (dist.rank, dist.depth_reached, dist.converged) == (rank, cap, False)


def test_electrooptic_closure_keeps_two_families_per_generator():
    # C(t) has the families e^(+i w t) and e^(-i w t); brackets with the
    # constant drift and controls keep them, so the form cannot grow
    model = build_electrooptic()
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                           depth_cap=22)
    assert max(len(gen.families) for gen in dist.generators) <= 2


# ---------------------------------------------------------------------------
# open-loop invariance
# ---------------------------------------------------------------------------

def test_electrooptic_not_invariant():
    model = build_electrooptic(n_sys=6, params=ModelParams(g=1.0))
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                           depth_cap=2)
    with pytest.warns(UserWarning, match="did not converge"):
        report = check_open_loop_invariance(dist, model.interaction)
    assert report.verdict == "not_invariant"
    assert report.witness is not None


def test_zero_interaction_is_invariant(two_qubit_model):
    m = two_qubit_model
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    zero = Operator(np.zeros((m.dim, m.dim)), "skew_hermitian")
    report = check_open_loop_invariance(dist, zero)
    assert report.verdict == "invariant"


def test_collective_dephasing_invariant_without_controls(two_qubit_model):
    m = two_qubit_model
    dist = generate_ctilde(m.coherence_op, m.drift, [])
    report = check_open_loop_invariance(dist, m.interaction)
    assert report.verdict == "invariant"


def test_dfs_internal_controls_keep_invariance(two_qubit_model):
    # controls acting inside the protected pair commute with the interaction
    m = two_qubit_model
    sx, sy, sz = (make_primitive(k, 2).matrix for k in ("pauli_x", "pauli_y", "pauli_z"))
    i2 = np.eye(2, dtype=complex)
    eye_env = np.eye(m.params.env_levels, dtype=complex)
    block_ops = [np.kron(sz, i2) - np.kron(i2, sz),
                 np.kron(sx, sx) + np.kron(sy, sy),
                 np.kron(sx, sy) - np.kron(sy, sx)]
    controls = [Operator(np.kron(b, eye_env), "hermitian").times_minus_i()
                for b in block_ops]
    dist = generate_ctilde(m.coherence_op, m.drift, controls)
    report = check_open_loop_invariance(dist, m.interaction)
    assert report.verdict == "invariant"


# ---------------------------------------------------------------------------
# controller necessity
# ---------------------------------------------------------------------------

def test_one_qubit_necessary_failed():
    m = build_one_qubit()
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    report = check_controller_necessary(m.coherence_op, dist, m.interaction)
    assert report.verdict == "necessary_failed"
    # witness is the non-vanishing [C, H_SE]
    assert report.witness is not None
    assert report.witness.norm() > 0.1


def test_two_qubit_first_condition_passes_subset_fails(two_qubit_model):
    m = two_qubit_model
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    report = check_controller_necessary(m.coherence_op, dist, m.interaction)
    assert report.residuals[0] <= 1e-9          # [C, H_SE] = 0
    assert report.verdict == "necessary_failed"  # closure escapes its own span
    assert report.witness is not None


def test_identity_interaction_trivially_invariant(two_qubit_model):
    m = two_qubit_model
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    ident = Operator(np.eye(m.dim, dtype=complex) * -1j, "skew_hermitian")
    report = check_controller_necessary(m.coherence_op, dist, ident)
    assert report.verdict == "invariant"
    assert max(report.residuals) <= 1e-12


def _previous_necessary(C, dist, H_SE, tol=1e-9):
    """`check_controller_necessary` as it was before condition 2 tested
    against the closure walk's own rows: one SVD-factored `Span` of the
    generators and one `commutator` and `membership` per generator, verbatim."""
    kernel = kernel_dy_member(LinearVectorField(H_SE), C, tol)
    if not kernel.member:
        return invariance.InvarianceReport("necessary_failed", kernel.witness,
                                           (kernel.residual,))

    h_norm = H_SE.norm()
    residuals = [kernel.residual]
    sufficient = True
    span = None  # factored when the first generator fails to commute
    for T in dist.generators:
        R = commutator(T, H_SE)
        rel_norm = R.norm() / max(T.norm() * h_norm, 1e-300)
        if rel_norm > tol:
            sufficient = False
            if span is None:
                span = Span(dist.generators, tol)
            member = span.membership(R)
            residuals.append(member.residual_norm / max(R.norm(), 1e-300))
            if not member.is_member:
                return invariance.InvarianceReport("necessary_failed", T, tuple(residuals))
        else:
            residuals.append(0.0)
    if sufficient:
        return invariance.InvarianceReport("invariant", None, tuple(residuals))
    return invariance.InvarianceReport("necessary_passed_sufficient_failed", None,
                                       tuple(residuals))


def test_necessary_matches_previous_check():
    # the same verdict, witness and residual layout as the check that
    # factored its own span, for converged and unconverged closures.  one_qubit
    # and electro_optic fail condition 1, so each closure is also checked with
    # the identity as C, which passes it and sends every generator, constant
    # or time-dependent, to condition 2.  electro_optic at tol 1e-16 stops at
    # cap 6: its closure at cap 12 has 3 073 generators and takes half a minute.
    models = [build_one_qubit(), build_two_qubit(), build_restructured(),
              build_electrooptic(), build_ancilla_system(ModelParams(env_levels=2))]
    verdicts = set()
    for model in models:
        identity = Operator(np.eye(model.dim, dtype=complex), "hermitian")
        for tol in (1e-9, 1e-16):
            for cap in (3, 6, 12):
                if model.name == "electro_optic" and tol < 1e-9 and cap > 6:
                    continue
                dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                                       cap, tol)
                for C in (model.coherence_op, identity):
                    new = check_controller_necessary(C, dist, model.interaction, tol)
                    old = _previous_necessary(C, dist, model.interaction, tol)
                    case = (model.name, tol, cap, C is identity)
                    assert new.verdict == old.verdict, case
                    if len(old.residuals) == 1:  # condition 1's witness, built afresh
                        assert generator_bytes(new.witness) == generator_bytes(old.witness), case
                    else:
                        assert new.witness is old.witness, case
                    assert len(new.residuals) == len(old.residuals), case
                    if max(old.residuals) > 1.0:
                        # a projection never lengthens its target, but the SVD at
                        # tol 1e-16 divides by singular values near 1e-16 of the
                        # largest: a bracket wholly outside the span reads
                        # 1.0000079 there, and 1 against the walk's rows
                        assert case == ("electro_optic", 1e-16, 6, True)
                        assert max(new.residuals) <= 1.0 + 1e-12
                        continue
                    assert np.allclose(new.residuals, old.residuals, rtol=0, atol=1e-12), case
                    verdicts.add(new.verdict)
    # the matrix reaches both a failing and a passing necessity verdict
    assert verdicts == {"necessary_failed", "necessary_passed_sufficient_failed"}


def _previous_open_loop(dist, H_SE, tol=1e-9):
    """`check_open_loop_invariance`'s loop as it was before the bracket block:
    one `commutator` per generator up to the first that does not commute,
    verbatim (its unconverged-closure warning left out)."""
    h_norm = H_SE.norm()
    residuals = []
    for T in dist.generators:
        R = commutator(T, H_SE)
        rel = R.norm() / max(T.norm() * h_norm, 1e-300)
        residuals.append(rel)
        if rel > tol:
            return invariance.InvarianceReport("not_invariant", T, tuple(residuals))
    return invariance.InvarianceReport("invariant", None, tuple(residuals))


def _previous_kernel(model, C, tol):
    """`decide`'s ker(dy) line as it was before the bracket block, verbatim."""
    return kernel_dy_member(model.interaction_field(), C, max(tol, 1e-10))


def _assert_same_open_loop(new, old, dist, case):
    assert new.verdict == old.verdict, case
    assert new.witness is old.witness, case  # a closure generator, or None
    assert len(new.residuals) == len(old.residuals), case
    for T, a, b in zip(dist.generators, new.residuals, old.residuals):
        if isinstance(T, TimeOperator):
            assert abs(a - b) <= 1e-15 * max(abs(b), 1e-300), case
        else:
            assert a == b, case


def _assert_same_kernel(new, old, case):
    assert (new.member, new.residual) == (old.member, old.residual), case
    assert generator_bytes(new.witness) == generator_bytes(old.witness), case
    assert type(new.witness) is type(old.witness), case
    if isinstance(old.witness, Operator):
        assert new.witness.hermiticity == old.witness.hermiticity, case


def test_bracket_block_matches_previous_open_loop_and_kernel():
    # open-loop invariance and the ker(dy) line read off the one bracket
    # block give the verdicts, witnesses, residuals and memberships of the
    # per-generator loop and the separate kernel_dy_member call, over the
    # matrix of test_necessary_matches_previous_check, with C both the
    # coherence and the identity; `decide` is checked at both tolerances
    models = [build_one_qubit(), build_two_qubit(), build_restructured(),
              build_electrooptic(), build_ancilla_system(ModelParams(env_levels=2))]
    verdicts = set()
    for model in models:
        H_SE = model.interaction
        identity = Operator(np.eye(model.dim, dtype=complex), "hermitian")
        for tol in (1e-9, 1e-16):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                decision = invariance.decide(model, tol_invariance=tol)
            _assert_same_open_loop(decision.open_loop,
                                   _previous_open_loop(decision.closure, H_SE, tol),
                                   decision.closure, (model.name, tol))
            _assert_same_kernel(decision.kernel,
                                _previous_kernel(model, model.coherence_op, tol), (model.name, tol))
            for cap in (3, 6, 12):
                if model.name == "electro_optic" and tol < 1e-9 and cap > 6:
                    continue
                dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls),
                                       cap, tol)
                old = _previous_open_loop(dist, H_SE, tol)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    new = check_open_loop_invariance(dist, H_SE, tol)
                _assert_same_open_loop(new, old, dist, (model.name, tol, cap))
                verdicts.add(new.verdict)
                for C in (model.coherence_op, identity):
                    case = (model.name, tol, cap, C is identity)
                    (W, w_norm, _), *rows = invariance._interaction_brackets(
                        [C, *dist.generators], H_SE)
                    _assert_same_kernel(_kernel_member(C, H_SE, W, w_norm, max(tol, 1e-10)),
                                        _previous_kernel(model, C, tol), case)
                    _assert_same_kernel(_kernel_member(C, H_SE, W, w_norm, tol),
                                        kernel_dy_member(LinearVectorField(H_SE), C, tol), case)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        _assert_same_open_loop(invariance._open_loop(dist, rows, tol), old,
                                               dist, case)
    # no shipped closure commutes with H_SE; the two_qubit pair without
    # controls does, so the invariant path is read too
    m = models[1]
    dist = generate_ctilde(m.coherence_op, m.drift, [])
    new = check_open_loop_invariance(dist, m.interaction)
    _assert_same_open_loop(new, _previous_open_loop(dist, m.interaction), dist, "no controls")
    assert verdicts | {new.verdict} == {"invariant", "not_invariant"}


@pytest.mark.parametrize("build", [build_two_qubit, build_restructured, build_electrooptic],
                         ids=["two_qubit", "restructured", "electro_optic"])
def test_decide_brackets_each_generator_with_interaction_once(build, monkeypatch):
    # C and every closure generator that a check reads meet H_SE in exactly
    # one bracket: a row of a stacked product with the H_SE matrix, or a
    # commutator(T, H_SE) call for a time-dependent T.  When condition 1
    # fails (electro_optic), only open loop reads the generators, up to its
    # first non-commuting one.  The restructured model's criterion 4
    # brackets its controls with H_SE too, a family of its own.
    model = build()
    H_SE = model.interaction
    seen = Counter()
    brackets, bracket = operators._brackets, operators.commutator

    def counted_brackets(x, ys):
        if x is H_SE.matrix:
            seen.update(y.tobytes() for y in ys)
        return brackets(x, ys)

    def counted_commutator(A, B):
        if B is H_SE:
            seen[id(A)] += 1
        return bracket(A, B)

    monkeypatch.setattr(invariance, "_brackets", counted_brackets)
    monkeypatch.setattr(invariance, "commutator", counted_commutator)
    monkeypatch.setattr(geometry, "commutator", counted_commutator)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decision = invariance.decide(model)
    read = decision.closure.generators
    if not decision.condition_1.member:
        read = read[:len(decision.open_loop.residuals)]
    assert (len(read) < decision.closure.rank) == (model.name == "electro_optic")
    ops = [model.coherence_op, *read]
    keys = [T.matrix.tobytes() if isinstance(T, Operator) else id(T) for T in ops]
    assert [seen[k] for k in keys] == [1] * len(ops)
    criterion_4 = len(model.controls) if model.name == "restructured" else 0
    assert sum(seen.values()) == len(ops) + criterion_4
    assert any(isinstance(T, TimeOperator) for T in ops) == (model.name == "electro_optic")


@pytest.mark.parametrize("build", [build_restructured,
                                   lambda: build_ancilla_system(ModelParams(env_levels=2))],
                         ids=["restructured", "ancilla"])
def test_necessary_factors_no_span(build, monkeypatch):
    # condition 2 tests against the rows the closure walk built
    model = build()
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls))

    def no_span(*args, **kwargs):
        raise AssertionError("check_controller_necessary factored a Span")

    monkeypatch.setattr(invariance, "Span", no_span)
    report = check_controller_necessary(model.coherence_op, dist, model.interaction)
    assert len(report.residuals) > 2  # condition 2 ran, past the first generator


def _previous_criterion_4(model, tol_rank):
    """`decide`'s criterion-4 worst residual as it was before its brackets
    were tested in one projection: one span test per bracket, verbatim."""
    H_SE = model.interaction
    span = Span(list(model.controls), tol_rank)
    brackets = -operators._brackets(
        H_SE.matrix, operators._stack([g.matrix for g in model.controls], H_SE.dim))
    return max(span.membership(b).residual_norm / max(operators.opnorm(b), 1e-300)
               for b in brackets)


@pytest.mark.parametrize("env_levels", [2, 3, 4, 5])
def test_criterion_4_matches_per_target_loop(env_levels):
    model = build_restructured(ModelParams(env_levels=env_levels))
    old = _previous_criterion_4(model, 1e-9)
    for tol in (1e-9, 1e-16):
        decision = invariance.decide(model, tol_invariance=tol)
        closes = old <= tol
        passed = (closes and decision.kernel.member
                  and decision.necessary.verdict != "necessary_failed")
        assert decision.verdict == ("decouplable" if passed else "not_decouplable")
        assert decision.brackets_close is closes
        assert abs(decision.bracket_residual - old) <= 1e-14


# ---------------------------------------------------------------------------
# protected-coherence discovery
# ---------------------------------------------------------------------------

def test_dfs_two_qubits_exact_set():
    pairs, ops = find_dfs_coherences(2)
    diagonal = {(w, w) for w in ("00", "01", "10", "11")}
    assert set(pairs) == diagonal | {("01", "10"), ("10", "01")}
    assert len(ops) == len(pairs)


def test_dfs_three_qubits_contains_expected_pairs():
    pairs, _ = find_dfs_coherences(3)
    assert ("011", "101") in pairs
    assert ("010", "100") in pairs


def test_dfs_one_qubit_only_diagonal():
    # oracle: [|1><0| (x) I, sigma_z (x) D] does not vanish
    sz = make_primitive("pauli_z", 2).matrix
    D = make_primitive("displacement", 3, w=1.0).matrix
    proj = np.zeros((2, 2), dtype=complex)
    proj[1, 0] = 1.0
    C = np.kron(proj, np.eye(3))
    H = np.kron(sz, D)
    assert np.abs(C @ H - H @ C).max() > 0.1

    pairs, _ = find_dfs_coherences(1)
    assert set(pairs) == {("0", "0"), ("1", "1")}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dfs_hamming_weight_law(n):
    pairs, _ = find_dfs_coherences(n)
    words = [format(k, f"0{n}b") for k in range(2 ** n)]
    expected = {(a, b) for a in words for b in words
                if a.count("1") == b.count("1")}
    assert set(pairs) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dfs_pairs_come_in_lexicographic_order_with_their_projectors(n):
    pairs, ops = find_dfs_coherences(n)
    assert pairs == sorted(pairs)
    assert len(ops) == len(pairs)
    for (ket, bra), op in zip(pairs, ops):
        proj = np.zeros((2 ** n, 2 ** n), dtype=complex)
        proj[int(ket, 2), int(bra, 2)] = 1.0
        assert np.array_equal(op.matrix, np.kron(proj, np.eye(op.dim // 2 ** n)))


def _previous_dfs(n_qubits, env_levels, g, tol=1e-9, omega0=1.0, omega_env=1.0):
    """`find_dfs_coherences` as it was before its bracket pass decided it:
    every candidate, built by np.kron, closed and checked, verbatim but for
    the candidate's construction."""
    params = ModelParams(omega0=omega0, omega_env=omega_env, g=g, env_levels=env_levels)
    layout, drift, interaction = models._collective_dephasing(
        params, tuple(f"q{i}" for i in range(n_qubits)), n_qubits)
    rest = np.eye(layout.total_dim // 2 ** n_qubits, dtype=complex)
    words = [format(k, f"0{n_qubits}b") for k in range(2 ** n_qubits)]
    pairs, ops = [], []
    for wi in words:
        for wj in words:
            proj = np.zeros((2 ** n_qubits, 2 ** n_qubits), dtype=complex)
            proj[int(wi, 2), int(wj, 2)] = 1.0
            C = Operator(np.kron(proj, rest), "general", f"|{wi}><{wj}|")
            dist = generate_ctilde(C, drift, [], tol=tol)
            report = check_open_loop_invariance(dist, interaction, tol)
            if report.verdict == "invariant":
                pairs.append((wi, wj))
                ops.append(C)
    return pairs, ops


@pytest.mark.parametrize("g", [1.0, 0.0, 0.3 + 0.2j], ids=["g1", "g0", "complex"])
@pytest.mark.parametrize("env_levels", [2, 3])
def test_dfs_matches_previous_loop(env_levels, g):
    # at the default cutoff and below rounding, and at unequal frequencies
    for n, tol, (omega0, omega_env) in itertools.product(
            range(1, 5), (1e-9, 1e-16), ((1.0, 1.0), (0.3, 0.7))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no walk may stop unconverged
            pairs, ops = find_dfs_coherences(n, env_levels, tol, omega0, omega_env, g)
            old_pairs, old_ops = _previous_dfs(n, env_levels, g, tol, omega0, omega_env)
        assert pairs == old_pairs
        assert [(C.matrix.tobytes(), C.hermiticity, C.label) for C in ops] == \
            [(C.matrix.tobytes(), C.hermiticity, C.label) for C in old_ops]
        if g == 0.0:  # no interaction: every candidate commutes with it
            assert len(pairs) == 4 ** n


@pytest.mark.parametrize("g, survivors", [(1.0, 70), (0.0, 256)])
def test_dfs_walks_no_closure(g, survivors, monkeypatch):
    # the bracket pass decides every candidate: at n = 4 the survivors are
    # the 70 equal-weight pairs, with no interaction all 256, and none is
    # walked or checked; the returned operators are the candidates built
    built, calls = [], Counter()
    coherence = invariance._coherence

    def counted_coherence(*args):
        built.append(coherence(*args))
        return built[-1]

    def counted(name):
        original = getattr(invariance, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(invariance, "_coherence", counted_coherence)
    for name in ("generate_ctilde", "check_open_loop_invariance"):
        monkeypatch.setattr(invariance, name, counted(name))
    pairs, ops = find_dfs_coherences(4, g=g)
    assert calls == Counter()
    assert len(built) == 256
    assert len(ops) == survivors == len(pairs)
    by_label = {C.label: C for C in built}
    assert all(by_label[f"|{a}><{b}|"] is C for (a, b), C in zip(pairs, ops))


def test_dfs_guard_range():
    with pytest.raises(ValueError):
        find_dfs_coherences(0)
    with pytest.raises(ValueError):
        find_dfs_coherences(5)
