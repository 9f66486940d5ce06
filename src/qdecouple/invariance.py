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
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import KernelMembership, _kernel_member
from .models import ModelParams, SystemModel, _coherence, _collective_dephasing
from .operators import (
    Operator,
    OperatorLike,
    TimeOperator,
    commutator,
    opnorm,
    Span,
    _brackets,
    _commutator_flag,
    _IncrementalSpan,
    _stack,
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
    """A finite set of unit-norm, linearly independent generators, with the
    orthonormal rows of their span over the coefficient-family `keys` (each
    key one vectorized d x d block, as `vectorize` lays it out)."""

    generators: list[OperatorLike]
    rank: int
    depth_reached: int
    converged: bool
    basis: np.ndarray
    keys: tuple[tuple[float, int], ...]


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
    once is rejected again, in exact arithmetic.  In floating point this
    holds while `tol` is above rounding; at tol 1e-16 a re-tried pair may
    join, and the two_qubit walk that re-tries every pair differs from this
    one from cap 5.  Candidates below 1e-12 times the scale of their
    ingredients are cancellation noise, which normalizing would turn into
    spurious directions; the rest are normalized and join, in order, when
    their residual against the orthonormal basis exceeds `tol`, relative to
    their unit norm.  A sweep that adds nothing ends the walk with
    converged=True.

    A constant generator is bracketed with all controls in one stacked
    product, each slice with the bits of its one-pair bracket, and an
    Operator is built only for a candidate that joins; a time-dependent
    generator is bracketed pair by pair.  The span tests each candidate on
    its smaller side: once the rows fill half of a key space of at least
    100 entries, against their orthogonal complement (`_IncrementalSpan`).
    The span's orthonormal rows and key list are returned with the
    generators, for condition 2 of `check_controller_necessary`.
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

    def add_block(T: Operator, floors: np.ndarray):
        # a constant closure has the one key (0, 0), so a vector is a matrix
        flat = _brackets(T.matrix, stacked).reshape(len(controls), -1)
        for m, floor, Hi in zip(flat, floors, controls):
            n = opnorm(m)
            if n > floor and math.isfinite(n):
                v = complex(1.0 / n) * m
                if span.add(v, tol) > tol:
                    flag = _commutator_flag(T.hermiticity, Hi.hermiticity)
                    gens.append(Operator(v.reshape(T.dim, T.dim), flag))

    add(C, 0.0)
    if not gens:
        raise ValueError("coherence operator is zero")
    h_norm = H.norm()
    control_norms = np.array([Hi.norm() for Hi in controls])
    stacked = _stack([Hi.matrix for Hi in controls], C.dim)
    depth = start = 0
    converged = False
    for depth in range(1, depth_cap + 1):
        before = len(gens)
        for T in gens[start:before]:
            t_norm = T.norm()
            floors = 1e-12 * np.maximum(1.0, 2.0 * t_norm * control_norms)
            if isinstance(T, Operator) and controls:
                add_block(T, floors)
            else:
                for Hi, floor in zip(controls, floors):
                    add(commutator(T, Hi), floor)
            drift_scale = t_norm * (2.0 * h_norm + _derivative_bound(T))
            add(_drift_step(T, H), 1e-12 * max(1.0, drift_scale))
        if len(gens) == before:
            converged = True
            break
        start = before
    span.rows.setflags(write=False)
    return OperatorDistribution(generators=gens, rank=len(gens), depth_reached=depth,
                                converged=converged, basis=span.rows, keys=tuple(keys))


def _interaction_brackets(ops: Sequence[OperatorLike], H_SE: Operator) -> list[tuple]:
    """(bracket, norm, relative norm) of [T, H_SE] for every T in `ops`, each
    computed once.  Constant T share one stacked product, 0 - [H_SE, T], whose
    slices keep the bits of commutator(T, H_SE) (IEEE subtraction is
    antisymmetric; negating would turn +0 into -0); others use `commutator`."""
    h_norm = H_SE.norm()
    block = iter(0.0 - _brackets(H_SE.matrix, _stack(
        [T.matrix for T in ops if isinstance(T, Operator)], H_SE.dim)))
    rows = []
    for T in ops:
        R = next(block) if isinstance(T, Operator) else commutator(T, H_SE)
        n = opnorm(R) if isinstance(T, Operator) else R.norm()
        rows.append((R, n, n / max(T.norm() * h_norm, 1e-300)))
    return rows


def _open_loop(dist: OperatorDistribution, rows: Iterable[tuple],
               tol: float) -> InvarianceReport:
    """Open-loop invariance read off the generators' block rows in order;
    `rows` may be an iterator, which is read up to the first generator that
    does not commute with the interaction."""
    if not dist.converged:
        warnings.warn("distribution closure did not converge; verdict may be premature",
                      stacklevel=3)
    residuals = []
    for T, (_, _, rel) in zip(dist.generators, rows):
        residuals.append(rel)
        if rel > tol:
            return InvarianceReport("not_invariant", T, tuple(residuals))
    return InvarianceReport("invariant", None, tuple(residuals))


def _necessary(kernel: KernelMembership, dist: OperatorDistribution, rows: list,
               tol: float) -> InvarianceReport:
    """Condition 1, decided in `kernel`, then condition 2 off the block rows."""
    if not kernel.member:
        return InvarianceReport("necessary_failed", kernel.witness, (kernel.residual,))
    off = [i for i, (_, _, rel) in enumerate(rows) if rel > tol]
    # a bracket with the constant H_SE keeps its generator's coefficient
    # families, so it lies in the closure's key space
    residual = {}
    if off:
        t = np.stack([vectorize(rows[i][0], dist.keys) for i in off])
        t -= (t @ dist.basis.conj().T) @ dist.basis
        residual = dict(zip(off, np.linalg.norm(t, axis=1).tolist()))
    residuals = [kernel.residual]
    for i, (T, (_, n, _)) in enumerate(zip(dist.generators, rows)):
        r = residual.get(i, 0.0)  # 0.0 for a generator that commutes
        residuals.append(r / max(n, 1e-300))
        if r > tol * max(1.0, n):
            return InvarianceReport("necessary_failed", T, tuple(residuals))
    verdict = "necessary_passed_sufficient_failed" if off else "invariant"
    return InvarianceReport(verdict, None, tuple(residuals))


def check_open_loop_invariance(dist: OperatorDistribution, H_SE: Operator,
                               tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Invariant iff every closure generator commutes with the interaction,
    read in order off one bracket pass; an unconverged closure warns."""
    return _open_loop(dist, _interaction_brackets(dist.generators, H_SE), tol)


def check_controller_necessary(C: OperatorLike, dist: OperatorDistribution,
                               H_SE: Operator, tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Necessary conditions for decouplability by state feedback.

    Condition 1: [C, H_SE] = 0, the interaction field in ker(dy).  Condition
    2: every [T, H_SE] for T in the closure stays inside the closure's span.
    When both hold and moreover every [T, H_SE] vanishes, the map is already
    invariant in open loop.  `H_SE` is a skew-Hermitian generator.

    C and the generators are bracketed with H_SE in one pass.  Condition 2
    is tested against the orthonormal rows the closure walk built
    (`dist.basis`): each bracket whose relative norm exceeds `tol` is
    projected onto them in one product, and the first one whose residual
    exceeds `tol * max(1, |[T, H_SE]|)` is the witness.
    """
    (W, w_norm, _), *rows = _interaction_brackets([C, *dist.generators], H_SE)
    return _necessary(_kernel_member(C, H_SE, W, w_norm, tol), dist, rows, tol)


@dataclass(frozen=True)
class Decision:
    """The decouplability verdict of one model and the checks it rests on:
    invariant or decouplable (the positive ones), not_decouplable,
    necessary_failed or necessary_passed_sufficient_failed.  `kernel` (the
    ker(dy) line) and `condition_1` apply ker(dy)'s member rule to one
    |[C, H_SE]|, at no less than 1e-10 and at `tol_invariance`.  Criterion
    4's worst relative residual of [g, H_SE] against span(G), and whether it
    is within tolerance, are set for the restructured model only."""

    verdict: str
    closure: OperatorDistribution
    open_loop: InvarianceReport
    necessary: InvarianceReport
    kernel: KernelMembership
    condition_1: KernelMembership
    brackets_close: Optional[bool] = None
    bracket_residual: Optional[float] = None


def decide(model: SystemModel, tol_rank: float = DEFAULT_TOL,
           tol_invariance: float = DEFAULT_TOL) -> Decision:
    """Closure, open-loop, necessity and ker(dy) checks of the coherence, and
    criterion 4 for the restructured model; spans are built at `tol_rank`.
    C is bracketed with H_SE first, for condition 1 and the ker(dy) line.
    When condition 1 holds, every closure generator is bracketed in one
    pass that open loop and condition 2 read; when it fails, necessity has
    failed and only open loop reads the generators, so they are bracketed
    one at a time up to its first non-commuting one.  Each check
    reads at `tol_invariance` (ker(dy) at no less than 1e-10).  Condition 2
    tests against the closure walk's own orthonormal basis, criterion 4
    against the SVD-factored control span."""
    C, H_SE = model.coherence_op, model.interaction
    dist = generate_ctilde(C, model.drift, list(model.controls), tol=tol_rank)
    [(W, w_norm, _)] = _interaction_brackets([C], H_SE)
    condition_1 = _kernel_member(C, H_SE, W, w_norm, tol_invariance)
    if condition_1.member:
        rows = _interaction_brackets(dist.generators, H_SE)
    else:  # only open loop reads the generators' brackets, up to its first failure
        rows = (_interaction_brackets([T], H_SE)[0] for T in dist.generators)
    open_loop = _open_loop(dist, rows, tol_invariance)
    necessary = _necessary(condition_1, dist, rows, tol_invariance)
    kernel = _kernel_member(C, H_SE, W, w_norm, max(tol_invariance, 1e-10))
    # open loop and condition 2 read the same relative norms at the same
    # cutoff, so a closure not invariant in open loop is not for `necessary`
    verdict = "invariant" if open_loop.verdict == "invariant" else necessary.verdict
    closes = worst = None
    if model.name == "restructured":
        span = Span(list(model.controls), tol_rank)
        # [g, H_SE] as in condition 2; each bracket is tested on its own, as
        # the printed worst residual keeps the bits of one-target projections
        brackets = -_brackets(H_SE.matrix, _stack([g.matrix for g in model.controls], H_SE.dim))
        worst = max(span.membership(b).residual_norm / max(opnorm(b), 1e-300)
                    for b in brackets)
        closes = worst <= tol_invariance
        passed = closes and kernel.member and necessary.verdict != "necessary_failed"
        verdict = "decouplable" if passed else "not_decouplable"
    return Decision(verdict, dist, open_loop, necessary, kernel, condition_1, closes, worst)


def _check_dfs_qubits(n_qubits: int):
    """The register sizes `find_dfs_coherences` searches: 1 to 4 qubits."""
    if not 1 <= n_qubits <= 4:
        raise ValueError(f"n_qubits must be within [1, 4], got {n_qubits}")


def find_dfs_coherences(n_qubits: int, env_levels: int = 3, tol: float = DEFAULT_TOL,
                        omega0: float = 1.0, omega_env: float = 1.0,
                        g: complex = 1.0) -> tuple[list[tuple[str, str]], list[Operator]]:
    """Basis pairs (i, j) whose coherence survives collective dephasing.

    Fixes the collective model: all qubits couple to one truncated mode
    through the sum of their z operators; no controls.  The 2^n candidates
    |i><j| of each ket i are bracketed with the interaction in one pass;
    a candidate that does not commute with it fails open-loop invariance at
    its closure's first generator, so only the others are closed under the
    drift map and tested against the interaction.  Returns the bit-string
    pairs, lexicographically sorted as enumerated, and the surviving
    projector operators.
    """
    _check_dfs_qubits(n_qubits)
    params = ModelParams(omega0=omega0, omega_env=omega_env, g=g, env_levels=env_levels)
    layout, drift, interaction = _collective_dephasing(
        params, tuple(f"q{i}" for i in range(n_qubits)), n_qubits)

    words = [format(k, f"0{n_qubits}b") for k in range(2 ** n_qubits)]
    pairs: list[tuple[str, str]] = []
    ops: list[Operator] = []
    for wi in words:
        candidates = [_coherence(layout, wi, wj) for wj in words]
        # generator 0 of each walk, so the relative norms keep the walk's bits
        first = _interaction_brackets([(1.0 / C.norm()) * C for C in candidates], interaction)
        for wj, C, (_, _, rel) in zip(words, candidates, first):
            if rel > tol:
                continue  # condition 1 fails: open loop stops at generator 0
            dist = generate_ctilde(C, drift, [], tol=tol)
            report = check_open_loop_invariance(dist, interaction, tol)
            if report.verdict == "invariant":
                pairs.append((wi, wj))
                ops.append(C)
    return pairs, ops
