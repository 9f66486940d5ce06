"""Operator-algebra invariance analysis.

Builds the commutator closure of a coherence operator under drift and
control generators, tests whether the resulting family commutes with the
system-environment interaction (open-loop immunity), tests the weaker
necessary conditions for an active controller to help, and enumerates the
coherence operators a collective-dephasing register preserves.  `decide`
runs these checks on one model and returns its decouplability verdict.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import KernelMembership, LinearVectorField, kernel_dy_member
from .models import ModelParams, SystemModel, _coherence, _collective_dephasing
from .operators import (
    Operator,
    OperatorLike,
    TimeOperator,
    commutator,
    Span,
    _IncrementalSpan,
    vectorize,
)

__all__ = [
    "OperatorDistribution",
    "InvarianceReport",
    "generate_ctilde",
    "check_open_loop_invariance",
    "check_controller_necessary",
    "Decision",
    "decide",
    "find_dfs_coherences",
]

DEFAULT_DEPTH_CAP = 12
DEFAULT_TOL = 1e-9


@dataclass
class OperatorDistribution:
    """A finite set of unit-norm, linearly independent generators."""

    generators: list[OperatorLike]
    rank: int
    depth_reached: int
    converged: bool


@dataclass(frozen=True)
class InvarianceReport:
    verdict: str  # invariant | not_invariant | necessary_failed | necessary_passed_sufficient_failed
    witness: Optional[OperatorLike]
    residuals: tuple[float, ...]


def _drift_step(T: OperatorLike, H: Operator) -> OperatorLike:
    """[T, H] + dT/dt, the combined drift/clock map of the closure."""
    bracket = commutator(T, H)
    if isinstance(T, TimeOperator):
        return bracket + T.derivative()
    return bracket


def _derivative_bound(T: OperatorLike) -> float:
    return max((abs(nu) + p for nu, p in T.families), default=0.0)


def generate_ctilde(C: OperatorLike, H: Operator, controls: Sequence[Operator],
                    depth_cap: int = DEFAULT_DEPTH_CAP,
                    tol: float = DEFAULT_TOL) -> OperatorDistribution:
    """Closure of C under repeated control brackets and the drift/clock map.

    `H` and `controls` are skew-Hermitian generators.  Sweep d brackets each
    generator accepted in sweep d - 1 (C is sweep 0) once with every
    control, [T, H_i], and once through the drift map [T, H] + dT/dt.  Pairs
    from earlier sweeps are not tried again: a rejected candidate changes
    nothing, and the span and its key columns only grow, so a pair rejected
    once is rejected again.  Candidates below 1e-12 times the scale of their
    ingredients are cancellation noise, which normalizing would turn into
    spurious directions; the rest are normalized and join when their
    residual against the orthonormal basis exceeds `tol`, relative to their
    unit norm.  A sweep that adds nothing ends the walk with converged=True.
    """
    span = _IncrementalSpan()
    keys: list[tuple[float, int]] = []
    gens: list[OperatorLike] = []

    def add(op: OperatorLike, floor: float):
        n = op.norm()
        if n > floor and math.isfinite(n):
            op = (1.0 / n) * op
            # the key space grows as brackets generate new t^k e^(i nu t)
            # families; the rows extend with zeros on them
            new = [k for k in sorted(op.families) if k not in keys]
            if new:
                keys.extend(new)
                span.widen(len(new) * op.dim * op.dim)
            if span.add(vectorize(op, tuple(keys)), tol) > tol:
                gens.append(op)

    add(C, 0.0)
    if not gens:
        raise ValueError("coherence operator is zero")
    h_norm = H.norm()
    control_norms = [Hi.norm() for Hi in controls]
    depth = start = 0
    converged = False
    for depth in range(1, depth_cap + 1):
        before = len(gens)
        for T in gens[start:before]:
            t_norm = T.norm()
            for Hi, n_i in zip(controls, control_norms):
                add(commutator(T, Hi), 1e-12 * max(1.0, 2.0 * t_norm * n_i))
            drift_scale = t_norm * (2.0 * h_norm + _derivative_bound(T))
            add(_drift_step(T, H), 1e-12 * max(1.0, drift_scale))
        if len(gens) == before:
            converged = True
            break
        start = before
    return OperatorDistribution(generators=gens, rank=len(gens), depth_reached=depth,
                                converged=converged)


def check_open_loop_invariance(dist: OperatorDistribution, H_SE: Operator,
                               tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Invariant iff every closure generator commutes with the interaction."""
    if not dist.converged:
        warnings.warn("distribution closure did not converge; verdict may be premature",
                      stacklevel=2)
    h_norm = H_SE.norm()
    residuals = []
    for T in dist.generators:
        R = commutator(T, H_SE)
        rel = R.norm() / max(T.norm() * h_norm, 1e-300)
        residuals.append(rel)
        if rel > tol:
            return InvarianceReport("not_invariant", T, tuple(residuals))
    return InvarianceReport("invariant", None, tuple(residuals))


def check_controller_necessary(C: OperatorLike, dist: OperatorDistribution,
                               H_SE: Operator, tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Necessary conditions for decouplability by state feedback.

    Condition 1: [C, H_SE] = 0, the interaction field in ker(dy).  Condition
    2: every [T, H_SE] for T in the closure stays inside the closure's span.
    When both hold and moreover every [T, H_SE] vanishes, the map is already
    invariant in open loop.  `H_SE` is a skew-Hermitian generator.
    """
    kernel = kernel_dy_member(LinearVectorField(H_SE), C, tol)
    if not kernel.member:
        return InvarianceReport("necessary_failed", kernel.witness, (kernel.residual,))

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
                return InvarianceReport("necessary_failed", T, tuple(residuals))
        else:
            residuals.append(0.0)
    if sufficient:
        return InvarianceReport("invariant", None, tuple(residuals))
    return InvarianceReport("necessary_passed_sufficient_failed", None, tuple(residuals))


@dataclass(frozen=True)
class Decision:
    """The decouplability verdict of one model and the checks it rests on:
    invariant or decouplable (the positive ones), not_decouplable,
    necessary_failed or necessary_passed_sufficient_failed.  Criterion 4's
    worst relative residual of [g, H_SE] against span(G), and whether it is
    within tolerance, are set for the restructured model only."""

    verdict: str
    closure: OperatorDistribution
    open_loop: InvarianceReport
    necessary: InvarianceReport
    kernel: KernelMembership
    brackets_close: Optional[bool] = None
    bracket_residual: Optional[float] = None


def decide(model: SystemModel, tol_rank: float = DEFAULT_TOL,
           tol_invariance: float = DEFAULT_TOL) -> Decision:
    """Closure, open-loop, necessity and ker(dy) checks of the coherence, and
    criterion 4 for the restructured model; spans are built at `tol_rank` and
    every check decides at `tol_invariance` (ker(dy) at no less than 1e-10)."""
    C = model.coherence_op
    dist = generate_ctilde(C, model.drift, list(model.controls), tol=tol_rank)
    open_loop = check_open_loop_invariance(dist, model.interaction, tol_invariance)
    necessary = check_controller_necessary(C, dist, model.interaction, tol_invariance)
    kernel = kernel_dy_member(model.interaction_field(), C, max(tol_invariance, 1e-10))
    # both checks test the same commutators at the same cutoff, so a closure
    # that is not invariant in open loop is not invariant for `necessary`
    verdict = "invariant" if open_loop.verdict == "invariant" else necessary.verdict
    closes = worst = None
    if model.name == "restructured":
        span = Span(list(model.controls), tol_rank)
        brackets = [commutator(g, model.interaction) for g in model.controls]
        worst = max(span.membership(b).residual_norm / max(b.norm(), 1e-300)
                    for b in brackets)
        closes = worst <= tol_invariance
        passed = closes and kernel.member and necessary.verdict != "necessary_failed"
        verdict = "decouplable" if passed else "not_decouplable"
    return Decision(verdict, dist, open_loop, necessary, kernel, closes, worst)


def _check_dfs_qubits(n_qubits: int):
    """The register sizes `find_dfs_coherences` searches: 1 to 4 qubits."""
    if not 1 <= n_qubits <= 4:
        raise ValueError(f"n_qubits must be within [1, 4], got {n_qubits}")


def find_dfs_coherences(n_qubits: int, env_levels: int = 3, tol: float = DEFAULT_TOL,
                        omega0: float = 1.0, omega_env: float = 1.0,
                        g: complex = 1.0) -> tuple[list[tuple[str, str]], list[Operator]]:
    """Basis pairs (i, j) whose coherence survives collective dephasing.

    Fixes the collective model: all qubits couple to one truncated mode
    through the sum of their z operators; no controls.  Each candidate
    |i><j| is closed under the drift map and tested against the interaction.
    Returns the bit-string pairs, lexicographically sorted as enumerated,
    and the surviving projector operators.
    """
    _check_dfs_qubits(n_qubits)
    params = ModelParams(omega0=omega0, omega_env=omega_env, g=g, env_levels=env_levels)
    layout, drift, interaction = _collective_dephasing(
        params, tuple(f"q{i}" for i in range(n_qubits)), n_qubits)

    words = [format(k, f"0{n_qubits}b") for k in range(2 ** n_qubits)]
    pairs: list[tuple[str, str]] = []
    ops: list[Operator] = []
    for wi in words:
        for wj in words:
            C = _coherence(layout, wi, wj)
            dist = generate_ctilde(C, drift, [], tol=tol)
            report = check_open_loop_invariance(dist, interaction, tol)
            if report.verdict == "invariant":
                pairs.append((wi, wj))
                ops.append(C)
    return pairs, ops
