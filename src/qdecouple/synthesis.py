"""State-feedback synthesis for the restructured 24-control system.

The invariant family is spanned by five two-qubit operators that commute
with the coherence operator, dressed by the environment powers {I, D, D^2}
(15 generators), completed by three operators that deliberately do not
commute with it.  At a given state the feedback pair (alpha, beta) is
assembled from minimum-norm least-squares solves and a null-space
completion, all over the reals (stacked real/imaginary parts), since the
control amplitudes are physical field strengths.

Two synthesizers are provided:

* :func:`synthesize_alpha_beta` - the per-state least-squares/null-space
  algorithm.  Faithful to its construction; see the README for measured
  limitations of its disturbance rejection.
* :func:`synthesize_protective` - a feedback that pointwise cancels the
  controls' net action on the protected coherence block.  This one renders
  the monitored coherence exactly immune to the interaction strength and is
  used by the simulator's "protective" mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .models import SystemModel, _environment_powers
from .operators import (_PAULI, Operator, Span, _brackets, _IncrementalSpan, _numerical_rank,
                        _stack, opnorm)

__all__ = [
    "DegenerateStateError",
    "InvariantBasisError",
    "InvariantBasis",
    "ControlLawSample",
    "SynthesisVerification",
    "build_invariant_basis",
    "synthesize_alpha_beta",
    "verify_synthesis",
    "synthesize_protective",
    "protected_block_indices",
    "FeedbackSynthesizer",
    "ProtectiveSynthesizer",
]

DEFAULT_TOL = 1e-9


class DegenerateStateError(RuntimeError):
    """No complement direction is reachable at this state (q = 0)."""

    def __init__(self, message: str, K: Optional[int] = None):
        super().__init__(message)
        self.K = K


class InvariantBasisError(RuntimeError):
    """The invariant-basis commutation table failed to validate."""


_I2 = np.eye(2, dtype=complex)


def system_delta_operators() -> list[tuple[np.ndarray, str]]:
    """The five two-qubit operators commuting with |01><10| (and |10><01|)."""
    sx, sy, sz, i2 = _PAULI["pauli_x"], _PAULI["pauli_y"], _PAULI["pauli_z"], _I2
    return [
        (np.kron(sz, i2) + np.kron(i2, sz), "sz1+sz2"),
        (np.kron(sz, sz), "sz1 sz2"),
        (np.eye(4, dtype=complex), "I"),
        (np.kron(sx, sx) - np.kron(sy, sy), "sx sx - sy sy"),
        (np.kron(sx, sy) + np.kron(sy, sx), "sx sy + sy sx"),
    ]


def complement_operators() -> list[tuple[np.ndarray, str]]:
    """Three two-qubit operators transverse to ker(dy)."""
    sx, sy, sz, i2 = _PAULI["pauli_x"], _PAULI["pauli_y"], _PAULI["pauli_z"], _I2
    return [
        (np.kron(sz, i2) - np.kron(i2, sz), "sz1-sz2"),
        (np.kron(sx, sx) + np.kron(sy, sy), "sx sx + sy sy"),
        (np.kron(sx, sy) - np.kron(sy, sx), "sx sy - sy sx"),
    ]


@dataclass(eq=False)
class InvariantBasis:
    """Validated generators of the invariant family and its complement."""

    delta_ops: tuple[Operator, ...]        # 15: system deltas x {I, D, D^2}
    complement_ops: tuple[Operator, ...]   # 3 bare (or 9 when env-lifted)
    system_deltas: tuple[Operator, ...]    # the 5 system-space operators
    coherence_check: np.ndarray            # |[delta_i, C]| residuals
    bracket_residuals: dict[str, float]    # worst residual per table entry kind
    lifted_complement: bool = False

    def delta_generators(self) -> np.ndarray:
        """Stacked skew generators (-1j * delta_ops) for field evaluation."""
        return np.stack([(-1j) * op.matrix for op in self.delta_ops])

    def complement_generators(self) -> np.ndarray:
        return np.stack([(-1j) * op.matrix for op in self.complement_ops])


@dataclass(eq=False)
class ControlLawSample:
    """Feedback pair synthesized at one state, with solve diagnostics."""

    state: np.ndarray
    alpha: np.ndarray                 # real, one entry per control channel
    beta: Optional[np.ndarray]        # real, channels x channels; None if alpha only
    ranks: tuple[int, int, int]       # (K, q, r)
    residuals: tuple[float, ...]      # step-1 residual per complement column, then alpha
    beta_rank: Optional[int]          # None if alpha only
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = None if self.beta is None else np.asarray(self.beta, dtype=float)


@dataclass(eq=False)
class SynthesisVerification:
    """Controlled-invariance residuals of a frozen feedback sample."""

    bracket_residuals: np.ndarray     # (n_delta, 1 + n_channels) relative residuals
    lie_y_drift: complex              # <xi|[C, closed-loop drift]|xi>
    lie_y_controls: np.ndarray        # same for each closed-loop control field
    worst_bracket: float
    passed: bool


def _check_restructured(model: SystemModel):
    if model.n_controls != 24 or model.layout.dims[:2] != (2, 2):
        raise ValueError("the feedback synthesis expects the restructured "
                         f"24-control model, got {model.name!r} with "
                         f"{model.n_controls} controls")


def build_invariant_basis(model: SystemModel, lift_complement: bool = False,
                          tol: float = DEFAULT_TOL) -> InvariantBasis:
    """Assemble and validate the invariant family for a restructured model.

    Validates, at the operator level, that every delta commutes with the
    coherence operator and that the commutation table
    [delta, delta] in Delta, [delta, g] in Delta+G, [delta, d] in Delta,
    [d, g] in G holds within `tol`; raises with the offending bracket
    otherwise.  The table is tested in blocks: each delta with the later
    deltas, the controls and the complement, and each complement operator
    with the controls, in one stacked product per generator.  Brackets
    below 1e-13 times the largest basis norm count as zero; each run of
    partners that shares a span is tested in one projection
    (`Span.memberships`), whose residual norms may differ from one-target
    tests in the last bits, so only a bracket that close to the `tol`
    cutoff could be judged differently.  The first violation in scan order
    (deltas, then complement operators, each with its partners in the order
    above) is raised.  `lift_complement` tensors the complement with
    {I, D, D^2} as well (the documented fallback variation).
    """
    _check_restructured(model)
    env_powers = _environment_powers(model.params)

    deltas4 = system_delta_operators()
    system_deltas = tuple(Operator(m, "hermitian", lab) for m, lab in deltas4)
    delta_ops = tuple(
        Operator(np.kron(m, env), "hermitian", f"{lab} D^{i}")
        for m, lab in deltas4 for i, env in enumerate(env_powers))

    comp4 = complement_operators()
    if lift_complement:
        complement_ops = tuple(
            Operator(np.kron(m, env), "hermitian", f"{lab} D^{i}")
            for m, lab in comp4 for i, env in enumerate(env_powers))
    else:
        complement_ops = tuple(
            Operator(np.kron(m, env_powers[0]), "hermitian", lab) for m, lab in comp4)

    C = model.coherence_op
    c_scale = max(C.norm(), 1.0)
    ctrl_ops = list(model.controls)
    delta_list = list(delta_ops)
    n_d, n_g, n_c = len(delta_list), len(ctrl_ops), len(complement_ops)
    partner_ops = delta_list + ctrl_ops + list(complement_ops)
    partners = _stack([p.matrix for p in partner_ops], C.dim)
    # [C, delta] = -[delta, C] exactly, so the norms are those of [delta, C]
    coherence_check = np.array([opnorm(b) for b in _brackets(C.matrix, partners[:n_d])])
    worst = coherence_check.max(initial=0.0)
    if worst > 1e-12 * c_scale * max(opnorm(d.matrix) for d in delta_ops):
        idx = int(np.argmax(coherence_check))
        raise InvariantBasisError(
            f"delta operator {delta_ops[idx].label!r} does not commute with the "
            f"coherence operator (residual {worst:.3e})")

    table: dict[str, float] = {"delta_delta": 0.0, "delta_g": 0.0,
                               "delta_d": 0.0, "d_g": 0.0}

    def _checked_span(basis_ops: list[Operator]) -> tuple[Span, float]:
        # brackets below this norm are taken as zero, not tested
        return Span(basis_ops, tol), 1e-13 * max(1.0, *(opnorm(b.matrix) for b in basis_ops))

    def _must_lie_in(x: Operator, lo: int, runs):
        # [x, p] for the partners p from index `lo` on, in one stacked
        # product; `runs` gives each run of partners, in order, as its table
        # kind, checked span and length, and a run is tested in one
        # projection
        block = _brackets(x.matrix, partners[lo:lo + sum(n for *_, n in runs)])
        for kind, (span, zero_norm), n in runs:
            brackets = block[:n].reshape(n, x.matrix.size)
            norms = np.linalg.norm(brackets, axis=1)
            tested = np.flatnonzero(norms > zero_norm)
            member, residual = span.memberships(brackets[tested])
            rel = residual / np.maximum(norms[tested], 1e-300)
            table[kind] = max(table[kind], float(rel.max(initial=0.0)))
            if not member.all():
                first = int(np.argmin(member))
                raise InvariantBasisError(
                    f"commutation table violated: [{x.label}, "
                    f"{partner_ops[lo + tested[first]].label}] leaves its span "
                    f"(relative residual {rel[first]:.3e})")
            block, lo = block[n:], lo + n

    in_delta = _checked_span(delta_list)
    in_delta_g = _checked_span(delta_list + ctrl_ops)
    in_g = _checked_span(ctrl_ops)
    for i, da in enumerate(delta_list):
        _must_lie_in(da, i + 1, [("delta_delta", in_delta, n_d - i - 1),
                                 ("delta_g", in_delta_g, n_g), ("delta_d", in_delta, n_c)])
    for d in complement_ops:
        _must_lie_in(d, n_d, [("d_g", in_g, n_g)])

    return InvariantBasis(
        delta_ops=delta_ops,
        complement_ops=complement_ops,
        system_deltas=system_deltas,
        coherence_check=coherence_check,
        bracket_residuals=table,
        lifted_complement=lift_complement,
    )


# ---------------------------------------------------------------------------
# the per-state algorithm
# ---------------------------------------------------------------------------

# The minimum-norm solve is NumPy's lstsq, LAPACK's gelsd, so a closed loop
# under a zero drive, which asks for alpha alone, never loads scipy.linalg:
# importing it costs about 0.25 s and 27 MB.  The completion needs a pivoted
# QR, which NumPy lacks, so it calls LAPACK the way scipy.linalg's svd
# (gesdd) and pivoted qr (geqp3, orgqr) do, with the same workspace sizes,
# but without their per-call checks, which at these sizes cost about as
# much as the factorizations.  Each handle is resolved once, on the first
# completion that needs it, not at import.
@functools.cache
def _lapack_routine(name: str):
    """The float64 LAPACK handle `name` (gesdd, geqp3, orgqr, ...)."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(name, dtype=np.float64)


def _lapack(name: str, *args, **kwargs):
    """LAPACK routine `name`'s outputs without its trailing info flag,
    raised on if set."""
    routine = _lapack_routine(name)
    *out, info = routine(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} failed (info = {info})")
    return out


def _svd(a: np.ndarray, compute_uv: bool = True):
    """(left singular vectors, singular values) of the thin SVD, or the
    singular values alone."""
    m, n = a.shape
    lwork = int(_lapack("gesdd_lwork", m, n, compute_uv, False)[0])
    u, s, _ = _lapack("gesdd", a, compute_uv, False, lwork)
    return (u, s) if compute_uv else s


def _pivoted_qr(a: np.ndarray):
    """Column-pivoted QR: (packed factors, 0-based pivots, reflector scales)."""
    lwork = int(_lapack("geqp3", a, -1)[3][0])
    qr, jpvt, tau, _ = _lapack("geqp3", a, lwork)
    return qr, jpvt - 1, tau


def _orthonormal_columns(qr: np.ndarray, tau: np.ndarray, k: int) -> np.ndarray:
    """The first `k` columns of the Q of a packed QR factorization."""
    lwork = int(_lapack("orgqr", qr[:, :k], tau[:k], -1)[1][0])
    return _lapack("orgqr", qr[:, :k], tau[:k], lwork)[0]


class FeedbackSynthesizer:
    """Reusable workspace for per-state feedback synthesis.

    Precomputes the stacked generator tensors once; :meth:`sample` then
    costs a handful of small dense solves.  Identical states and tolerance
    give bit-identical output (no randomness, fixed tie-breaking).
    """

    def __init__(self, model: SystemModel, basis: InvariantBasis,
                 tol: float = DEFAULT_TOL):
        _check_restructured(model)
        self.model = model
        self.basis = basis
        self.tol = float(tol)
        self.delta_gen = basis.delta_generators()
        self.comp_gen = basis.complement_generators()
        self.ctrl_gen = np.stack([op.matrix for op in model.controls])
        self.drift = model.drift.matrix
        self.n_ctrl = len(model.controls)
        self.n_delta = self.delta_gen.shape[0]
        self.n_comp = self.comp_gen.shape[0]
        self.all_gen = np.concatenate([self.delta_gen, self.comp_gen, self.ctrl_gen])

    def sample(self, xi: np.ndarray, *, alpha_only: bool = False) -> ControlLawSample:
        """The feedback pair at `xi`; `alpha_only` stops before beta (None)."""
        xi = np.asarray(xi, dtype=complex).ravel()
        tol = self.tol
        nc = self.n_ctrl
        nd, ncp = self.n_delta, self.n_comp

        vecs = self.all_gen @ xi
        X = np.concatenate([vecs.real, vecs.imag], axis=1)       # rows are fields
        k0 = self.drift @ xi
        k0r = np.concatenate([k0.real, k0.imag])

        scale = math.sqrt((X * X).sum(axis=1).max())      # the largest field norm
        if scale == 0.0:
            raise ValueError("all candidate fields vanish at this state")
        threshold = tol * scale

        # in-order greedy independence selection: a field is accepted when
        # its residual against the fields accepted before it clears the
        # cutoff, by the accept/reject rule the commutator closure uses
        span = _IncrementalSpan(X.shape[1], float)
        rdiag = np.fromiter(map(span.add, X, repeat(threshold)), float, count=X.shape[0])
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

        Gl = X[nd + ncp:]
        V_delta = X[:nd][sel_delta]
        V_comp = X[nd:nd + ncp][sel_comp]
        V_gc = Gl[sel_g]

        # steps 1 and 3 share one coefficient matrix: [G, -V_delta, -V_gcomp];
        # one batched minimum-norm least-squares solve (LAPACK's gelsd, singular
        # values below tol times the largest taken as zero) covers all targets
        A = np.concatenate([Gl, -V_delta, -V_gc], axis=0).T
        targets = np.concatenate([V_comp, -k0r[None, :]], axis=0).T
        sol = np.linalg.lstsq(A, targets, rcond=tol)[0]
        fit = A @ sol - targets
        beta = np.zeros((nc, nc))
        beta[:, :q] = sol[:nc, :q]
        alpha = sol[:nc, q]
        # np.linalg.norm of each column, taken on contiguous copies as it does
        residuals = [math.sqrt(c.dot(c)) for c in np.ascontiguousarray(fit.T)]
        if alpha_only:
            return ControlLawSample(xi.copy(), alpha, None, (K, q, r_total),
                                    tuple(residuals), None, tuple(warnings))

        # completion: null space of [G, V].  Candidates are the projections
        # of the bare channel directions onto the null space (the projector
        # is canonical, so the completion inherits phase invariance); beta
        # parts are picked greedily for independence from the step-1 columns
        # by one pivoted QR (pivot order = greedy largest-residual selection)
        Mt = np.concatenate([Gl, V_delta, V_comp, V_gc], axis=0)  # (nc + r, 2n)
        u_m, s_m = _svd(Mt)
        rank_m = _numerical_rank(s_m, tol)
        u_beta = u_m[:nc, :rank_m]                  # row-space basis, beta block
        cand = np.eye(nc) - u_beta @ u_beta.T       # beta part of P_null e_j

        # one pivoted QR of the step-1 columns gives both their numerical
        # rank and an orthonormal basis of the columns it keeps
        fixed = beta[:, :q]
        qr_f, _, tau_f = _pivoted_qr(fixed)
        rf = np.abs(np.diagonal(qr_f))
        # the floor keeps pure-noise step-1 columns (unreachable targets)
        # from polluting the completion basis
        fixed_rank = int((rf > tol * max(rf[0], 1.0)).sum())
        if fixed_rank:
            Qb = _orthonormal_columns(qr_f, tau_f, fixed_rank)
            proj = cand - Qb @ (Qb.T @ cand)
        else:
            proj = cand
        qr_p, piv, _ = _pivoted_qr(proj)
        rp = np.abs(np.diagonal(qr_p))
        take = piv[:nc - q][rp[:nc - q] > tol]
        beta[:, q:q + take.size] = cand[:, take]

        beta_rank = _numerical_rank(_svd(beta, compute_uv=False), tol)

        return ControlLawSample(
            state=xi.copy(),
            alpha=alpha,
            beta=beta,
            ranks=(K, q, r_total),
            residuals=tuple(residuals),
            beta_rank=beta_rank,
            warnings=tuple(warnings),
        )


def synthesize_alpha_beta(xi: np.ndarray, model: SystemModel, basis: InvariantBasis,
                          tol: float = DEFAULT_TOL) -> ControlLawSample:
    """Synthesize the feedback pair (alpha, beta) at one state.

    Steps: evaluate all invariant, complement and control fields at `xi`;
    select independent directions in listed order (rank cutoff `tol`
    relative to the largest field); solve the complement-reaching columns
    and the drift cancellation by minimum-norm least squares over the
    reals; complete beta from the null space of the stacked field matrix,
    greedily maximizing independence of the growing column set.
    """
    return FeedbackSynthesizer(model, basis, tol).sample(xi)


def verify_synthesis(sample: ControlLawSample, model: SystemModel,
                     basis: InvariantBasis, tol: float = 1e-6) -> SynthesisVerification:
    """Controlled-invariance residuals with the sample's coefficients frozen.

    Forms the closed-loop drift K0 + sum(alpha_j g_j) and controls
    sum(beta_ji g_j), brackets them with every invariant field, and reports
    the relative residual of projecting each bracket, evaluated at the
    sample state, onto the invariant span at that state (all brackets in one
    projection; one below 1e-14 in norm reads 0).  Also reports the Lie
    derivative of the coherence functional along each closed-loop field.
    """
    xi = sample.state
    nc = model.n_controls
    ctrl = np.stack([op.matrix for op in model.controls])
    delta_gen = basis.delta_generators()

    closed_drift = model.drift.matrix + np.tensordot(sample.alpha, ctrl, axes=1)
    closed_ctrls = [np.tensordot(sample.beta[:, i], ctrl, axes=1) for i in range(nc)]

    delta_vecs = delta_gen @ xi
    span = Span(np.concatenate([delta_vecs.real, delta_vecs.imag], axis=1), 1e-9)

    # every bracket (B A_d - A_d B) xi, vf_bracket's generator action, at once
    fields = np.stack([closed_drift, *closed_ctrls])[None]
    vecs = (fields @ delta_gen[:, None] - delta_gen[:, None] @ fields) @ xi
    vecs = np.concatenate([vecs.real, vecs.imag], axis=2).reshape(-1, 2 * xi.size)
    norms = np.linalg.norm(vecs, axis=1)
    rel = span.memberships(vecs)[1] / np.maximum(norms, 1e-300)
    out = np.where(norms < 1e-14, 0.0, rel).reshape(len(delta_gen), 1 + nc)

    Cm = model.coherence_op.matrix
    def lie_y(B):
        return complex(np.vdot(xi, Cm @ (B @ xi)) - np.vdot(xi, B @ (Cm @ xi)))

    ly0 = lie_y(closed_drift)
    lyc = np.array([lie_y(B) for B in closed_ctrls])
    worst = float(out.max(initial=0.0))
    return SynthesisVerification(
        bracket_residuals=out,
        lie_y_drift=ly0,
        lie_y_controls=lyc,
        worst_bracket=worst,
        passed=worst <= tol,
    )


# ---------------------------------------------------------------------------
# protective feedback (extension)
# ---------------------------------------------------------------------------

def protected_block_indices(model: SystemModel) -> np.ndarray:
    """Full-space indices of the block carrying the monitored coherence.

    The block is spanned by the system basis states on which the coherence
    operator (or its adjoint) is supported, tensored with the environment.
    """
    C = model.coherence_op
    if not isinstance(C, Operator):
        raise ValueError("protective feedback requires a constant coherence operator")
    n_env = model.params.env_levels
    n_sys = model.dim // n_env
    sys_block = np.abs(C.matrix.reshape(n_sys, n_env, n_sys, n_env)[:, 0, :, 0])
    support = np.where((sys_block.sum(axis=0) + sys_block.sum(axis=1)) > 0)[0]
    return np.concatenate([np.arange(s * n_env, (s + 1) * n_env) for s in support])


class ProtectiveSynthesizer:
    """Feedback that cancels the controls' net action on the protected block.

    At each state the admissible control combinations are those whose total
    field has no component inside the protected block; beta is the
    orthogonal projector onto that set (continuous in the state wherever
    the constraint rank is constant) and alpha is zero.  The protected
    components then evolve under the bare drift alone, which commutes with
    the coherence operator, so the coherence trace is independent of the
    interaction strength - exactly, not only to integration accuracy.
    """

    def __init__(self, model: SystemModel, tol: float = 1e-12):
        self.model = model
        self.tol = float(tol)
        self.ctrl_gen = np.stack([op.matrix for op in model.controls])
        self.pidx = protected_block_indices(model)
        self.n_ctrl = len(model.controls)

    def sample(self, xi: np.ndarray) -> ControlLawSample:
        xi = np.asarray(xi, dtype=complex).ravel()
        fields_p = (self.ctrl_gen @ xi)[:, self.pidx]          # (nc, |P|)
        rows = np.concatenate([fields_p.real, fields_p.imag], axis=1).T
        u_, s_, vh = np.linalg.svd(rows, full_matrices=True)
        nz = _numerical_rank(s_, self.tol)
        admissible = vh[nz:].T                                  # (nc, free)
        beta = admissible @ admissible.T
        free = admissible.shape[1]
        return ControlLawSample(
            state=xi.copy(),
            alpha=np.zeros(self.n_ctrl),
            beta=beta,
            ranks=(self.n_ctrl - free, 0, free),
            residuals=(),
            beta_rank=free,
            warnings=(),
        )


def synthesize_protective(xi: np.ndarray, model: SystemModel,
                          tol: float = 1e-12) -> ControlLawSample:
    """One-shot protective feedback sample; see :class:`ProtectiveSynthesizer`."""
    return ProtectiveSynthesizer(model, tol).sample(xi)
