import numpy as np
import pytest

from qdecouple import (
    ModelParams,
    Operator,
    TimeOperator,
    build_electrooptic,
    build_one_qubit,
    build_two_qubit,
    check_controller_necessary,
    check_open_loop_invariance,
    commutator,
    find_dfs_coherences,
    generate_ctilde,
    invariance,
    make_primitive,
)
from qdecouple.operators import TimeTerm, _collect_keys, _IncrementalSpan, vectorize
from conftest import count_time_operators


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


def _full_walk(C, H, controls, depth_cap, tol=1e-9):
    """The closure walk before the frontier rule: every sweep brackets every
    generator held at its start, so each pair is tried again in every later
    sweep.  The brackets, noise floor and accept rule are those of
    `generate_ctilde`."""
    span = _IncrementalSpan()
    keys = []
    largest = 0.0
    gens = []

    def add(op, floor):
        nonlocal largest
        n = op.norm()
        if n > floor and np.isfinite(n):
            op = (1.0 / n) * op
            new = [k for k in _collect_keys([op]) if k not in keys]
            if new:
                keys.extend(new)
                span.widen(len(new) * op.dim * op.dim)
            v = vectorize(op, tuple(keys))
            largest = max(largest, float(np.linalg.norm(v)))
            cutoff = tol * largest
            if span.add(v, cutoff) > cutoff:
                gens.append(op)

    add(C, 0.0)
    h_norm = H.norm()
    depth = 0
    for depth in range(1, depth_cap + 1):
        before = len(gens)
        for T in gens[:before]:
            t_norm = T.norm()
            for Hi in controls:
                add(commutator(T, Hi), 1e-12 * max(1.0, 2.0 * t_norm * Hi.norm()))
            drift_scale = t_norm * (2.0 * h_norm + invariance._derivative_bound(T))
            add(invariance._drift_step(T, H), 1e-12 * max(1.0, drift_scale))
        if len(gens) == before:
            return gens, depth, True
    return gens, depth, False


def _generator_bytes(op):
    if isinstance(op, TimeOperator):
        return [(key, m.tobytes()) for key, m in op.families.items()]
    return op.matrix.tobytes()


@pytest.mark.parametrize("name", ["two_qubit_model", "restructured_model"])
def test_closure_brackets_each_pair_once(name, request, monkeypatch):
    model = request.getfixturevalue(name)
    calls = 0

    def counted(A, B):
        nonlocal calls
        calls += 1
        return commutator(A, B)

    monkeypatch.setattr(invariance, "commutator", counted)
    dist = generate_ctilde(model.coherence_op, model.drift, list(model.controls))
    assert dist.converged
    assert calls == dist.rank * (len(model.controls) + 1)


def test_constant_closure_builds_no_time_operator(restructured_model, monkeypatch):
    # a constant operator is read through its own families, never converted
    m = restructured_model
    built = count_time_operators(monkeypatch)
    dist = generate_ctilde(m.coherence_op, m.drift, list(m.controls))
    assert dist.rank > 100
    assert built == []


def test_frontier_walk_matches_full_walk(two_qubit_model, restructured_model):
    cases = [(build_one_qubit(), cap) for cap in range(1, 7)]
    cases += [(two_qubit_model, cap) for cap in range(1, 7)]
    cases += [(build_electrooptic(), cap) for cap in range(1, 5)]
    cases += [(restructured_model, 12)]
    for model, depth_cap in cases:
        args = (model.coherence_op, model.drift, list(model.controls), depth_cap)
        dist = generate_ctilde(*args)
        ref_gens, ref_depth, ref_converged = _full_walk(*args)
        assert [_generator_bytes(g) for g in dist.generators] == \
            [_generator_bytes(g) for g in ref_gens]
        assert (dist.depth_reached, dist.converged) == (ref_depth, ref_converged)


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


def test_dfs_guard_range():
    with pytest.raises(ValueError):
        find_dfs_coherences(0)
    with pytest.raises(ValueError):
        find_dfs_coherences(5)
