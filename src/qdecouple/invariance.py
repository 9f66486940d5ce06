"""Operator-algebra invariance analysis.

Builds the commutator closure of a coherence operator under drift and
control generators, tests whether the resulting family commutes with the
system-environment interaction (open-loop immunity), tests the weaker
necessary conditions for an active controller to help, and enumerates the
coherence operators a collective-dephasing register preserves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import (
    Operator,
    OperatorLike,
    TimeOperator,
    commutator,
    kron_embed,
    make_primitive,
    Span,
    span_membership,
    vectorize,
    _collect_keys,
    _IncrementalSpan,
    TensorLayout,
)

__all__ = [
    "OperatorDistribution",
    "InvarianceReport",
    "generate_ctilde",
    "check_open_loop_invariance",
    "check_controller_necessary",
    "find_dfs_coherences",
]

DEFAULT_DEPTH_CAP = 12
DEFAULT_TOL = 1e-9


def _closure(seeds: Sequence[OperatorLike], brackets: Sequence[Callable],
             depth_cap: int, tol: float):
    """Smallest bracket-closed family containing `seeds`, as unit-norm generators.

    Each sweep applies every bracket, `(T, |T|) -> (candidate, scale of its
    ingredients)`, to every generator held at the sweep's start.  Candidates
    below 1e-12 times their scale are cancellation noise, which normalizing
    would turn into spurious directions.  Returns (generators, origins,
    depth, converged); origins[i] is (None, s) for seed s and (j, k) for
    bracket k applied to generator j.
    """
    span = _IncrementalSpan()
    keys: list[tuple[float, int]] = []
    largest = 0.0  # the rank cutoff is relative to the largest vector seen
    gens: list[OperatorLike] = []
    origins: list[tuple[Optional[int], int]] = []

    def add(op: OperatorLike, floor: float, origin: tuple[Optional[int], int]):
        nonlocal largest
        n = op.norm()
        if n > floor and np.isfinite(n):
            op = (1.0 / n) * op
            # the key space grows as brackets generate new t^k e^(i nu t)
            # families; the rows extend with zeros on them
            new = [k for k in _collect_keys([op]) if k not in keys]
            if new:
                keys.extend(new)
                span.widen(len(new) * op.dim * op.dim)
            v = vectorize(op, tuple(keys))
            largest = max(largest, float(np.linalg.norm(v)))
            cutoff = tol * largest
            if span.add(v, cutoff) > cutoff:
                gens.append(op)
                origins.append(origin)

    for s, seed in enumerate(seeds):
        add(seed, 0.0, (None, s))
    depth = 0
    for depth in range(1, depth_cap + 1):
        before = len(gens)
        for j in range(before):
            t_norm = gens[j].norm()
            for k, bracket in enumerate(brackets):
                cand, scale = bracket(gens[j], t_norm)
                add(cand, 1e-12 * max(1.0, scale), (j, k))
        if len(gens) == before:
            return gens, origins, depth, True
    return gens, origins, depth, False


@dataclass
class OperatorDistribution:
    """A finite set of unit-norm, linearly independent generators."""

    generators: list[OperatorLike]
    rank: int
    depth_reached: int
    converged: bool

    def membership(self, op: OperatorLike, tol: float = DEFAULT_TOL):
        return span_membership(op, self.generators, tol)


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
    if isinstance(T, TimeOperator):
        return max((abs(t.frequency) + t.power for t in T.terms), default=0.0)
    return 0.0


def generate_ctilde(C: OperatorLike, H: Operator, controls: Sequence[Operator],
                    depth_cap: int = DEFAULT_DEPTH_CAP,
                    tol: float = DEFAULT_TOL) -> OperatorDistribution:
    """Closure of C under repeated control brackets and the drift/clock map.

    `H` and `controls` are skew-Hermitian generators.  Candidates are added
    only when their residual against the current orthonormal basis exceeds
    `tol` (relative to the largest vector seen); a full sweep that adds
    nothing terminates the iteration with converged=True.
    """
    def control(Hi: Operator):
        n_i = Hi.norm()
        return lambda T, t_norm: (commutator(T, Hi), 2.0 * t_norm * n_i)

    def drift(T: OperatorLike, t_norm: float):
        return _drift_step(T, H), t_norm * (2.0 * h_norm + _derivative_bound(T))

    h_norm = H.norm()
    gens, _, depth, converged = _closure([C], [control(Hi) for Hi in controls] + [drift],
                                         depth_cap, tol)
    if not gens:
        raise ValueError("coherence operator is zero")
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

    Condition 1: [C, H_SE] = 0.  Condition 2: every [T, H_SE] for T in the
    closure stays inside the closure's span.  When both hold and moreover
    every [T, H_SE] vanishes, the map is already invariant in open loop.
    """
    h_norm = H_SE.norm()
    r1_op = commutator(C, H_SE)
    r1 = r1_op.norm() / max(C.norm() * h_norm, 1e-300)
    if r1 > tol:
        return InvarianceReport("necessary_failed", r1_op, (r1,))

    residuals = [r1]
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


def find_dfs_coherences(n_qubits: int, env_levels: int = 3, tol: float = DEFAULT_TOL,
                        omega0: float = 1.0, omega_env: float = 1.0,
                        g: complex = 1.0) -> tuple[list[tuple[str, str]], list[Operator]]:
    """Basis pairs (i, j) whose coherence survives collective dephasing.

    Fixes the collective model: all qubits couple to one truncated mode
    through the sum of their z operators; no controls.  Each candidate
    |i><j| is closed under the drift map and tested against the interaction.
    Returns lexicographically sorted bit-string pairs and the surviving
    projector operators.
    """
    if not 1 <= n_qubits <= 4:
        raise ValueError(f"n_qubits must be within [1, 4], got {n_qubits}")
    n_sys = 2 ** n_qubits
    qubit_layout = TensorLayout(tuple([2] * n_qubits),
                                tuple(f"q{i}" for i in range(n_qubits)))

    sz_total = None
    for k in range(n_qubits):
        term = kron_embed(make_primitive("pauli_z", 2), k, qubit_layout)
        sz_total = term if sz_total is None else sz_total + term
    number = make_primitive("boson_raise", env_levels) @ make_primitive("boson_lower", env_levels)
    coupling = make_primitive("displacement", env_levels, w=g)

    # interaction: (sum_j sigma_z^(j)) (x) (g b^+ + g* b); drift: qubit splittings + mode
    H_SE = Operator(np.kron(sz_total.matrix, coupling.matrix), "hermitian", "H_SE")
    H0 = (omega0 / 2.0) * Operator(np.kron(sz_total.matrix, np.eye(env_levels)), "hermitian") \
        + omega_env * Operator(np.kron(np.eye(n_sys), number.matrix), "hermitian", "H_env")

    drift_gen = H0.times_minus_i()
    hse_gen = H_SE.times_minus_i()

    words = [format(k, f"0{n_qubits}b") for k in range(n_sys)]
    pairs: list[tuple[str, str]] = []
    ops: list[Operator] = []
    eye_env = np.eye(env_levels, dtype=complex)
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            proj = np.zeros((n_sys, n_sys), dtype=complex)
            proj[i, j] = 1.0
            C = Operator(np.kron(proj, eye_env), "general", f"|{wi}><{wj}|")
            dist = generate_ctilde(C, drift_gen, [], tol=tol)
            report = check_open_loop_invariance(dist, hse_gen, tol)
            if report.verdict == "invariant":
                pairs.append((wi, wj))
                ops.append(C)
    order = sorted(range(len(pairs)), key=lambda k: pairs[k])
    return [pairs[k] for k in order], [ops[k] for k in order]
