"""Tangent-space formalism: linear vector fields and decouplability checks.

A linear vector field is K(xi) = A xi for a (physically skew-Hermitian)
generator A.  Membership of one field in the span of others is decided at
the generator level, which is sufficient for every state at once; the
state-dependent singular distributions of the feedback synthesis are
handled separately in :mod:`qdecouple.synthesis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .operators import (
    DimensionMismatchError,
    Operator,
    OperatorLike,
    Span,
    commutator,
    _closure,
)

__all__ = [
    "LinearVectorField",
    "KernelMembership",
    "DecouplabilityReport",
    "vf_bracket",
    "kernel_dy_member",
    "check_open_loop_geometric",
    "check_controlled_decouplable",
    "closure_under_brackets",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class LinearVectorField:
    """K(xi) = generator @ xi.  Physical fields carry skew-Hermitian generators."""

    generator: Operator
    label: str = ""

    @property
    def dim(self) -> int:
        return self.generator.dim

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.generator.matrix @ np.asarray(xi, dtype=complex)


@dataclass(frozen=True)
class KernelMembership:
    member: bool
    witness: OperatorLike  # [C, A]; zero exactly when the field is in ker(dy)
    residual: float


@dataclass(frozen=True)
class DecouplabilityReport:
    k_i_in_ker_dy: bool
    open_loop_ok: bool
    controlled_ok: bool
    failing_bracket: Optional[tuple[str, str, float]]
    delta_rank: int


def vf_bracket(KA: LinearVectorField, KB: LinearVectorField) -> LinearVectorField:
    """Lie bracket of linear fields: [A xi, B xi] has generator BA - AB.

    Sign convention: vf_bracket(KA, KB).generator == -commutator(A, B).
    """
    if KA.dim != KB.dim:
        raise DimensionMismatchError(f"field dims differ: {KA.dim} vs {KB.dim}")
    gen = -1.0 * commutator(KA.generator, KB.generator)
    return LinearVectorField(gen, f"[{KA.label},{KB.label}]")


def kernel_dy_member(K: LinearVectorField, C: OperatorLike,
                     tol: float = 1e-10) -> KernelMembership:
    """Is the field inside ker(dy) for y = <xi|C|xi>, for every state?

    For a skew generator A the Lie derivative reduces to <xi|[C, A]|xi>,
    which vanishes for all xi exactly when [C, A] = 0 (polarization).  The
    witness returned is [C, A] itself.  Time-dependent C is handled exactly
    inside the closed coefficient family.
    """
    if K.generator.hermiticity != "skew_hermitian":
        raise ValueError("kernel_dy_member requires a skew-Hermitian generator "
                         "(the reduction to [C, A] uses A^+ = -A)")
    witness = commutator(C, K.generator)
    wnorm = witness.norm()
    scale = max(C.norm() * K.generator.norm(), 1e-300)
    return KernelMembership(wnorm <= tol * scale, witness, wnorm / scale)


def _geometric_check(delta_gens: Sequence[LinearVectorField],
                     fields: Sequence[LinearVectorField], C: OperatorLike,
                     K_I: LinearVectorField, delta_span: Span, bracket_span: Span,
                     tol: float) -> tuple[bool, bool, Optional[tuple[str, str, float]]]:
    """The walk both geometric checks share; returns (ok, k_i_in_ker_dy, failing).

    Bracket membership is tested against `bracket_span`, the interaction
    field against `delta_span`.
    """
    ker_ok = kernel_dy_member(K_I, C, max(tol, 1e-10)).member
    for d in delta_gens:
        if not kernel_dy_member(d, C, max(tol, 1e-10)).member:
            return False, ker_ok, (d.label or "delta", "ker(dy)", float("nan"))
    m = delta_span.membership(K_I.generator)
    if not m.is_member:
        return False, ker_ok, (K_I.label or "K_I", "span(Delta)", m.residual_norm)
    for d in delta_gens:
        for f in fields:
            m = bracket_span.membership(vf_bracket(d, f).generator)
            if not m.is_member:
                return False, ker_ok, (d.label or "delta", f.label or "field", m.residual_norm)
    return ker_ok, ker_ok, None


def check_open_loop_geometric(delta_gens: Sequence[LinearVectorField],
                              fields: Sequence[LinearVectorField],
                              C: OperatorLike,
                              K_I: LinearVectorField,
                              tol: float = DEFAULT_TOL) -> DecouplabilityReport:
    """Open-loop immunity via an invariant candidate distribution.

    Checks (a) every candidate generator lies in ker(dy), (b) the
    interaction field belongs to the candidate span, (c) every bracket of a
    candidate with a drift/control field stays in the candidate span.
    """
    span = Span([d.generator for d in delta_gens], tol)
    ok, ker_ok, failing = _geometric_check(delta_gens, fields, C, K_I, span, span, tol)
    return DecouplabilityReport(k_i_in_ker_dy=ker_ok, open_loop_ok=ok, controlled_ok=False,
                                failing_bracket=failing, delta_rank=span.rank)


def check_controlled_decouplable(delta_gens: Sequence[LinearVectorField],
                                 G: Sequence[LinearVectorField],
                                 K0: Optional[LinearVectorField],
                                 K_I: LinearVectorField,
                                 C: OperatorLike,
                                 tol: float = DEFAULT_TOL) -> DecouplabilityReport:
    """Controlled decouplability: brackets may land in span(Delta + G).

    Same walk as the open-loop check, but bracket membership is tested
    against the span of the candidate generators together with the control
    generators.  Passing K0=None restricts the bracket test to the control
    fields (the drift bracket is then the caller's responsibility).
    """
    delta_ops = [d.generator for d in delta_gens]
    delta_span = Span(delta_ops, tol)
    bracket_span = Span(delta_ops + [f.generator for f in G], tol)
    fields = ([K0] if K0 is not None else []) + list(G)
    ok, ker_ok, failing = _geometric_check(delta_gens, fields, C, K_I,
                                           delta_span, bracket_span, tol)
    return DecouplabilityReport(k_i_in_ker_dy=ker_ok, open_loop_ok=False, controlled_ok=ok,
                                failing_bracket=failing, delta_rank=delta_span.rank)


def closure_under_brackets(seeds: Sequence[LinearVectorField],
                           fields: Sequence[LinearVectorField],
                           tol: float = DEFAULT_TOL,
                           depth_cap: int = 12) -> list[LinearVectorField]:
    """Bracket closure of seed fields under drift/control fields.

    The canonical invariant-distribution candidate when none is supplied:
    grow span{seeds} by repeated vf_bracket with the given fields until the
    rank stagnates, on the walk of :func:`~qdecouple.invariance.generate_ctilde`.
    Returns unit-norm fields in acceptance order, bracket results labelled
    ``[d,f]``.
    """
    def bracket(f: LinearVectorField):
        n_f = f.generator.norm()
        return lambda d, d_norm: (vf_bracket(LinearVectorField(d), f).generator,
                                  2.0 * d_norm * n_f)

    gens, origins, _, _ = _closure([s.generator for s in seeds],
                                   [bracket(f) for f in fields], depth_cap, tol)
    labels: list[str] = []
    for j, k in origins:
        labels.append(seeds[k].label if j is None else f"[{labels[j]},{fields[k].label}]")
    return [LinearVectorField(g, lab) for g, lab in zip(gens, labels)]
