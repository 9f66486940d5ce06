"""Tangent-space formalism: linear vector fields, their brackets and ker(dy).

A linear vector field is K(xi) = A xi for a (physically skew-Hermitian)
generator A.  Membership of one field in the span of others is decided at
the generator level, which is sufficient for every state at once; the
state-dependent singular distributions of the feedback synthesis are
handled separately in :mod:`qdecouple.synthesis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DimensionMismatchError,
    Operator,
    OperatorLike,
    _commutator_flag,
    commutator,
)

__all__ = [
    "LinearVectorField",
    "KernelMembership",
    "vf_bracket",
    "kernel_dy_member",
]


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
    witness = commutator(C, K.generator)
    return _kernel_member(C, K.generator, witness, witness.norm(), tol)


def _kernel_member(C: OperatorLike, A: Operator, witness: OperatorLike | np.ndarray,
                   wnorm: float, tol: float) -> KernelMembership:
    """ker(dy)'s member rule on the one number |[C, A]| = `wnorm`: a member
    when it is within `tol` |C| |A|.  A matrix `witness` becomes an Operator."""
    if A.hermiticity != "skew_hermitian":
        raise ValueError("kernel_dy_member requires a skew-Hermitian generator "
                         "(the reduction to [C, A] uses A^+ = -A)")
    if isinstance(witness, np.ndarray):
        witness = Operator(witness, _commutator_flag(C.hermiticity, A.hermiticity))
    scale = max(C.norm() * A.norm(), 1e-300)
    return KernelMembership(wnorm <= tol * scale, witness, wnorm / scale)
