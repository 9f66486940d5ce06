"""Dense complex operators on tensor-product Hilbert spaces.

Everything in this package is built from the primitives here: Pauli and
truncated ladder matrices, Kronecker embedding into a multi-slot layout,
commutators, matrix exponentials, and numerically robust span-membership
tests.  Operators are immutable; all functions are pure.

Conventions
-----------
* Physical operators (Hamiltonians, coherence operators) are stored in
  Hermitian form.  Dynamical generators are obtained by multiplying by -1j
  (hbar = 1); the model builders do this, nothing here does it implicitly.
* Time-dependent operators are finite sums  sum_k  t^p_k * e^(i nu_k t) * M_k,
  with one matrix per (nu, p) family.  This family is closed under
  differentiation and products, so identities can be checked by exact
  coefficient comparison instead of sampling.  A constant operator is its
  single (0, 0) family, so brackets, spans and vectorization read both
  operator types through `families`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NumericalError",
    "TensorLayout",
    "Operator",
    "TimeTerm",
    "TimeOperator",
    "MembershipResult",
    "make_primitive",
    "kron_embed",
    "commutator",
    "matrix_exponential",
    "Span",
    "span_membership",
    "bilinear_form",
    "opnorm",
]

HERMITICITY_ATOL = 1e-12
UNITARITY_TOL = 1e-10
FREQ_DECIMALS = 12  # rounding used to key {t^k e^(i nu t)} coefficient families


class DimensionMismatchError(ValueError):
    """Operands live on different Hilbert spaces."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


def opnorm(matrix: np.ndarray) -> float:
    """Frobenius norm, the working norm for all residual bookkeeping."""
    return float(np.linalg.norm(matrix))


def _detect_hermiticity(matrix: np.ndarray) -> str:
    dev_h = np.abs(matrix - matrix.conj().T).max(initial=0.0)
    if dev_h <= HERMITICITY_ATOL:
        return "hermitian"
    dev_s = np.abs(matrix + matrix.conj().T).max(initial=0.0)
    if dev_s <= HERMITICITY_ATOL:
        return "skew_hermitian"
    return "general"


@dataclass(frozen=True)
class TensorLayout:
    """Ordered factorization of the total Hilbert space, e.g. [2, 2, 3]."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dims must be positive, got {dims}")
        labels = tuple(self.labels) or tuple(f"s{i}" for i in range(len(dims)))
        if len(labels) != len(dims):
            raise ValueError("one label per subsystem required")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be unique, got {labels}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True, eq=False)
class Operator:
    """An immutable dense complex matrix with a verified hermiticity flag.

    `==` and `hash` are by identity, as for TimeTerm and TimeOperator: a
    value comparison of matrices needs a tolerance, which `==` cannot take.
    `families` reads it as a TimeOperator's single (0, 0) family.
    """

    matrix: np.ndarray
    hermiticity: str = "general"
    label: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if self.hermiticity not in ("hermitian", "skew_hermitian", "general"):
            raise ValueError(f"unknown hermiticity flag {self.hermiticity!r}")
        if self.hermiticity == "hermitian":
            dev = np.abs(m - m.conj().T).max(initial=0.0)
            if dev > HERMITICITY_ATOL:
                raise ValueError(f"matrix is not Hermitian (max dev {dev:.3e})")
        elif self.hermiticity == "skew_hermitian":
            dev = np.abs(m + m.conj().T).max(initial=0.0)
            if dev > HERMITICITY_ATOL:
                raise ValueError(f"matrix is not skew-Hermitian (max dev {dev:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def detect(cls, matrix: np.ndarray, label: str = "") -> "Operator":
        """Construct with the hermiticity flag inferred from the entries."""
        return cls(matrix, _detect_hermiticity(np.asarray(matrix, dtype=complex)), label)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def families(self) -> Mapping[tuple[float, int], np.ndarray]:
        return MappingProxyType({(0.0, 0): self.matrix})

    def norm(self) -> float:
        return opnorm(self.matrix)

    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.hermiticity, self.label + "^+")

    def times_minus_i(self) -> "Operator":
        """Hermitian -> skew-Hermitian generator (and vice versa)."""
        flag = {"hermitian": "skew_hermitian", "skew_hermitian": "hermitian"}.get(
            self.hermiticity, "general")
        return Operator(-1j * self.matrix, flag, self.label)

    def __add__(self, other: "Operator") -> "Operator":
        _same_dim(self.dim, other.dim)
        flag = self.hermiticity if self.hermiticity == other.hermiticity else "general"
        return Operator(self.matrix + other.matrix, flag)

    def __sub__(self, other: "Operator") -> "Operator":
        _same_dim(self.dim, other.dim)
        flag = self.hermiticity if self.hermiticity == other.hermiticity else "general"
        return Operator(self.matrix - other.matrix, flag)

    def __neg__(self) -> "Operator":
        return Operator(-self.matrix, self.hermiticity, self.label)

    def __rmul__(self, scalar: complex) -> "Operator":
        scalar = complex(scalar)
        if scalar.imag == 0.0:
            flag = self.hermiticity
        elif scalar.real == 0.0:
            flag = {"hermitian": "skew_hermitian",
                    "skew_hermitian": "hermitian"}.get(self.hermiticity, "general")
        else:
            flag = "general"
        return Operator(scalar * self.matrix, flag, self.label)

    def __matmul__(self, other: "Operator") -> "Operator":
        _same_dim(self.dim, other.dim)
        return Operator(self.matrix @ other.matrix)


def _same_dim(a: int, b: int):
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class TimeTerm:
    """One term  amplitude * t^power * exp(1j*frequency*t) * matrix: TimeOperator's input."""

    matrix: np.ndarray
    amplitude: complex = 1.0 + 0j
    frequency: float = 0.0
    power: int = 0

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("term matrix must be square")
        try:
            power = operator.index(self.power)
        except TypeError:
            power = -1  # not an integer: rejected below with the negative powers
        if power < 0:
            raise ValueError("power must be a non-negative integer")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "frequency", float(self.frequency))
        object.__setattr__(self, "power", power)

    @property
    def key(self) -> tuple[float, int]:
        return (round(self.frequency, FREQ_DECIMALS), self.power)


@dataclass(frozen=True, eq=False, init=False)
class TimeOperator:
    """sum over families (nu, p) of  t^p * exp(1j*nu*t) * M_(nu, p),  in canonical form.

    Built from TimeTerms: terms that share a key (nu rounded to FREQ_DECIMALS,
    p) add into one matrix, and a family whose matrix is exactly zero is
    dropped, so an operator whose terms cancel has no families but keeps its
    `dim`.  `families` is a read-only mapping of read-only matrices.  Closed
    under d/dt, sums, scalar multiples and commutators.
    """

    families: Mapping[tuple[float, int], np.ndarray]
    dim: int
    label: str

    def __init__(self, terms: Iterable[TimeTerm], label: str = ""):
        terms = tuple(terms)
        dims = {t.matrix.shape[0] for t in terms}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"term matrices must share one dim, got {dims or 'no terms'}")
        self._set(((t.key, t.amplitude * t.matrix) for t in terms), dims.pop(), label)

    @classmethod
    def _from_parts(cls, parts: Iterable[tuple[tuple[float, int], np.ndarray]], dim: int,
                    label: str = "") -> "TimeOperator":
        """Canonical operator from (key, matrix) parts; parts that share a key add."""
        op = cls.__new__(cls)
        op._set(parts, dim, label)
        return op

    def _set(self, parts, dim: int, label: str):
        acc: dict[tuple[float, int], np.ndarray] = {}
        for key, m in parts:
            acc[key] = m if key not in acc else acc[key] + m
        families = {k: m for k, m in acc.items() if m.any()}
        for m in families.values():
            m.setflags(write=False)
        object.__setattr__(self, "families", MappingProxyType(families))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "label", label)

    @classmethod
    def constant(cls, op: Operator, label: str = "") -> "TimeOperator":
        return cls((TimeTerm(op.matrix),), label or op.label)

    def norm(self) -> float:
        return float(np.sqrt(sum(opnorm(m) ** 2 for m in self.families.values())))

    def evaluate(self, t: float) -> Operator:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for (nu, p), m in self.families.items():
            total += t ** p * np.exp(1j * nu * t) * m
        return Operator.detect(total, self.label)

    def derivative(self) -> "TimeOperator":
        parts = []
        for (nu, p), m in self.families.items():
            if nu != 0.0:
                parts.append(((nu, p), 1j * nu * m))
            if p > 0:
                parts.append(((nu, p - 1), p * m))
        return TimeOperator._from_parts(parts, self.dim, f"d/dt {self.label}".strip())

    def __add__(self, other: "TimeOperator") -> "TimeOperator":
        _same_dim(self.dim, other.dim)
        return TimeOperator._from_parts([*self.families.items(), *other.families.items()],
                                        self.dim)

    def __rmul__(self, scalar: complex) -> "TimeOperator":
        return TimeOperator._from_parts(((k, scalar * m) for k, m in self.families.items()),
                                        self.dim)

    def is_zero(self, tol: float = 0.0) -> bool:
        """Every family's Frobenius norm is at most `tol` (absolute)."""
        return all(opnorm(m) <= tol for m in self.families.values())


OperatorLike = Union[Operator, TimeOperator]


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a least-squares span test."""

    is_member: bool
    coefficients: np.ndarray
    residual_norm: float
    rank_used: int


# ---------------------------------------------------------------------------
# primitives and embedding
# ---------------------------------------------------------------------------

_PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def make_primitive(kind: str, n_levels: int, w: complex = 1.0 + 0j) -> Operator:
    """Standard building blocks.

    kind: pauli_x | pauli_y | pauli_z | identity | boson_lower | boson_raise
          | displacement  (displacement takes the coupling w: w b^+ + w* b)
    n_levels: Hilbert-space dimension of the slot (2 for Pauli kinds).
    """
    if kind in _PAULI:
        if n_levels != 2:
            raise DimensionMismatchError(f"{kind} requires n_levels=2, got {n_levels}")
        return Operator(_PAULI[kind], "hermitian", kind)
    if kind == "identity":
        if n_levels < 1:
            raise DimensionMismatchError("identity requires n_levels >= 1")
        return Operator(np.eye(n_levels, dtype=complex), "hermitian", "I")
    if kind in ("boson_lower", "boson_raise", "displacement"):
        if n_levels < 2:
            raise DimensionMismatchError(f"{kind} requires n_levels >= 2, got {n_levels}")
        lower = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1).astype(complex)
        if kind == "boson_lower":
            return Operator(lower, "general", "b")
        if kind == "boson_raise":
            return Operator(lower.conj().T, "general", "b^+")
        w = complex(w)
        return Operator(w * lower.conj().T + np.conj(w) * lower, "hermitian", "D")
    raise ValueError(f"unknown primitive kind {kind!r}")


def kron_embed(op: Operator, slot: int, layout: TensorLayout) -> Operator:
    """I (x) ... (x) op (x) ... (x) I with `op` in position `slot`."""
    if not 0 <= slot < len(layout.dims):
        raise DimensionMismatchError(
            f"slot {slot} out of range for layout of {len(layout.dims)} subsystems")
    if op.dim != layout.dims[slot]:
        raise DimensionMismatchError(
            f"operator dim {op.dim} does not match subsystem dim {layout.dims[slot]}")
    before = int(np.prod(layout.dims[:slot], initial=1))
    after = int(np.prod(layout.dims[slot + 1:], initial=1))
    m = np.kron(np.kron(np.eye(before, dtype=complex), op.matrix), np.eye(after, dtype=complex))
    return Operator(m, op.hermiticity, f"{op.label}@{layout.labels[slot]}")


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _commutator_flag(a: str, b: str) -> str:
    if {a, b} <= {"hermitian"} or {a, b} <= {"skew_hermitian"}:
        return "skew_hermitian"
    if {a, b} == {"hermitian", "skew_hermitian"}:
        return "hermitian"
    return "general"


def _stack(matrices: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The (dim, dim) `matrices` as one (n, dim, dim) stack, checked first:
    stacking matrices of another dimension would raise NumPy's ValueError."""
    for m in matrices:
        _same_dim(dim, m.shape[-1])
    return np.stack(matrices) if len(matrices) else np.zeros((0, dim, dim), dtype=complex)


def _brackets(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[x, y] = xy - yx for every matrix y of the (n, d, d) stack `ys`, as one
    stacked product; each slice has the bits of the two-matrix product.

    The package's one bracket formula: `commutator` is its one-pair case,
    and the closure walk and the invariant-basis table bracket a generator
    with all its partners at once through it.
    """
    _same_dim(x.shape[-1], ys.shape[-1])
    return x @ ys - ys @ x


def commutator(A: OperatorLike, B: OperatorLike) -> OperatorLike:
    """[A, B] = AB - BA.  TimeOperator operands stay inside the closed family."""
    _same_dim(A.dim, B.dim)
    if isinstance(A, Operator) and isinstance(B, Operator):
        return Operator(_brackets(A.matrix, B.matrix[None])[0],
                        _commutator_flag(A.hermiticity, B.hermiticity))
    ys = B.matrix[None] if isinstance(B, Operator) else _stack(tuple(B.families.values()), B.dim)
    return TimeOperator._from_parts(
        (((round(nu_x + nu_y, FREQ_DECIMALS), p_x + p_y), b)
         for (nu_x, p_x), x in A.families.items()
         for (nu_y, p_y), b in zip(B.families, _brackets(x, ys))),
        A.dim)


def matrix_exponential(A: Operator) -> Operator:
    """exp(A); checked unitary to 1e-10 when A is skew-Hermitian."""
    import scipy.linalg  # deferred: it more than doubles the package's import time

    m = scipy.linalg.expm(A.matrix)
    if not np.all(np.isfinite(m)):
        raise NumericalError(
            f"matrix exponential did not converge (input norm {A.norm():.3e})")
    if A.hermiticity == "skew_hermitian":
        dev = opnorm(m.conj().T @ m - np.eye(A.dim))
        if dev > UNITARITY_TOL:
            raise NumericalError(
                f"exponential of skew-Hermitian generator lost unitarity: |U+U - I| = {dev:.3e}")
    return Operator(m, "general", f"exp({A.label})")


# ---------------------------------------------------------------------------
# span membership
# ---------------------------------------------------------------------------

def _collect_keys(ops: Iterable[OperatorLike]) -> tuple[tuple[float, int], ...]:
    keys: set[tuple[float, int]] = set()
    for op in ops:
        keys.update(((0.0, 0),) if isinstance(op, np.ndarray) else op.families)
    return tuple(sorted(keys))


def vectorize(op: OperatorLike | np.ndarray,
              keys: Sequence[tuple[float, int]] = ((0.0, 0),)) -> np.ndarray:
    """Flatten onto the coefficient-family key space so spans can be compared."""
    if isinstance(op, np.ndarray):
        return op.ravel().astype(complex)
    missing = set(op.families) - set(keys)
    if missing:
        raise ValueError(f"operator has coefficient families {missing} outside the key space")
    zero = np.zeros(op.dim ** 2, dtype=complex)
    flat = [op.families[k].ravel() if k in op.families else zero for k in keys]
    return np.concatenate(flat) if flat else np.zeros(0, dtype=complex)


def _numerical_rank(s: np.ndarray, tol: float) -> int:
    """Singular values above `tol` times the largest; 0 for an empty or zero spectrum."""
    return int((s > tol * s[0]).sum()) if s.size and s[0] > 0 else 0


class Span:
    """span(basis), vectorized and SVD-factored once, then tested against any
    number of targets.

    The basis may be rank-deficient: singular values below `tol` times the
    largest are dropped and minimum-norm coefficients are returned.  A target
    is a member when its least-squares residual is within
    `tol * max(1, |target|)`; its coefficient families outside the basis key
    space count fully toward that residual.
    """

    def __init__(self, basis: Sequence, tol: float = 1e-9):
        items = list(basis)
        self.tol = tol
        self.size = len(items)
        self.keys = _collect_keys(items)
        self.rank = 0
        if not items:
            return
        self._B = np.stack([vectorize(op, self.keys) for op in items], axis=1)
        self._family_size = self._B.shape[0] // len(self.keys)
        u, s, vh = np.linalg.svd(self._B, full_matrices=False)
        self.rank = _numerical_rank(s, tol)
        self._uh = u[:, :self.rank].conj().T
        self._s = s[:self.rank]
        self._v = vh[:self.rank].conj().T

    def _check_size(self, entries: int, families: int):
        if self.size and entries != families * self._family_size:
            raise DimensionMismatchError(
                f"target has {entries} entries over {families} coefficient families, "
                f"the basis {self._family_size} per family")

    def membership(self, target) -> MembershipResult:
        if isinstance(target, np.ndarray):
            t, families = target.ravel().astype(complex), len(self.keys)
        else:
            extra = tuple(k for k in _collect_keys([target]) if k not in self.keys)
            t, families = vectorize(target, self.keys + extra), len(self.keys) + len(extra)
        self._check_size(t.size, families)
        tnorm = float(np.linalg.norm(t))
        threshold = self.tol * max(1.0, tnorm)
        if self.rank == 0:
            return MembershipResult(tnorm <= threshold, np.zeros(self.size, dtype=complex),
                                    tnorm, 0)
        coeffs, off = self._project(t[None])
        residual = float(np.linalg.norm(off[0]))
        return MembershipResult(residual <= threshold, coeffs[0], residual, self.rank)

    def memberships(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`membership` of many plain-array targets, one per index of the
        first axis of `targets`, in one projection: the `is_member` and
        `residual_norm` arrays.  The projection is `membership`'s, made with
        matrix products over the whole stack, so the residuals may differ
        from one-target tests in the last bits."""
        t = np.asarray(targets, dtype=complex)
        t = t.reshape(len(t), math.prod(t.shape[1:]))
        self._check_size(t.shape[1], len(self.keys))
        tnorm = np.linalg.norm(t, axis=1)
        threshold = self.tol * np.maximum(1.0, tnorm)
        if self.rank == 0:
            return tnorm <= threshold, tnorm
        residual = np.linalg.norm(self._project(t)[1], axis=1)
        return residual <= threshold, residual

    def _project(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm coefficients and residuals of the rows of `t`, one
        vectorized target each; entries past the basis key space are all
        residual.  A single row takes matrix-vector products, whose bits the
        residuals of `decide` and `verify_synthesis` keep."""
        n_in = self._B.shape[0]
        coeffs = ((t[:, :n_in] @ self._uh.T) / self._s) @ self._v.T
        return coeffs, np.concatenate([coeffs @ self._B.T - t[:, :n_in], t[:, n_in:]], axis=1)


_COMPLEMENT_MIN_WIDTH = 100  # narrower spans (the synthesis's 24) always test on the rows


class _IncrementalSpan:
    """Orthonormal rows grown in order by accept/reject: the span of the
    closure walk in `invariance.generate_ctilde` and of the field selection
    in `synthesis.FeedbackSynthesizer.sample`.

    A vector is tested on the smaller side of the space.  While the rows
    fill less than half of it, or it is narrower than
    `_COMPLEMENT_MIN_WIDTH` entries, the residual is the classical
    Gram-Schmidt one, v - R* R v, at 2 rows x width products.  Once the
    rows fill at least half of a wide space, one complete QR gives
    orthonormal rows K spanning its orthogonal complement (stored
    conjugated, so K v are v's coordinates there), and the residual norm
    is |K v|, at (width - rows) x width products; each accepted row
    deflates K by one Householder reflection, in place (Golub & Van Loan,
    Matrix Computations, 5.1-5.2).  `widen` drops K, and a later `add`
    switches again if the rows still fill half the space.

    A second projection only shrinks a residual, so a vector at or below the
    cutoff is rejected on the first.  One pass loses orthogonality only
    near the cutoff, so survivors below 1e6 times it are projected once
    more ("twice is enough", Giraud, Langou & Rozloznik 2005) and the rest
    are taken as they are.  The rows live in a buffer that doubles when it
    is full, so an accept copies one row and the buffer never holds more
    than twice the rows accepted.
    """

    def __init__(self, width: int = 0, dtype=complex):
        self._buf = np.zeros((0, width), dtype=dtype)
        self.rows = self._buf  # the accepted rows: the buffer's leading rows
        self._complement = None  # K, once the rows fill half a wide space

    def widen(self, extra: int):
        """Append `extra` zero columns; exact, as no row has entries there."""
        n, width = self.rows.shape
        self._buf = np.zeros((self._buf.shape[0], width + extra), dtype=self._buf.dtype)
        self._buf[:n, :width] = self.rows
        self.rows = self._buf[:n]
        self._complement = None

    def add(self, v: np.ndarray, cutoff: float) -> float:
        """Residual norm of `v` off the rows; `v` joins when it exceeds `cutoff`."""
        rows = self.rows
        n, width = rows.shape
        if v.size != width:
            raise DimensionMismatchError(f"vector has {v.size} entries, the span {width}")
        if self._complement is None and width >= _COMPLEMENT_MIN_WIDTH and 2 * n >= width:
            q = np.linalg.qr(rows.T, mode="complete")[0]
            self._complement = np.ascontiguousarray(q[:, n:].T.conj())
        K = self._complement
        if K is None:
            # (R @ v*)* is R* @ v without copying the rows to conjugate them;
            # conj returns real arrays as they are
            v = v - rows.dot(v.conj()).conj().dot(rows)
            rn = math.sqrt(np.vdot(v, v).real)
            if cutoff < rn < 1e6 * cutoff:
                v = v - rows.dot(v.conj()).conj().dot(rows)
                rn = math.sqrt(np.vdot(v, v).real)
        else:
            c = K.dot(v)
            rn = math.sqrt(np.vdot(c, c).real)
            if cutoff < rn < 1e6 * cutoff:
                c = K.dot(c.conj().dot(K).conj())
                rn = math.sqrt(np.vdot(c, c).real)
        if rn > cutoff:
            if n == self._buf.shape[0]:
                self._buf = np.empty((max(2 * n, 1), width), dtype=rows.dtype)
                self._buf[:n] = rows
            if K is None:
                self._buf[n] = v / rn
            else:
                c /= rn
                self._buf[n] = c.conj().dot(K).conj()
                self._deflate(c)
            self.rows = self._buf[:n + 1]
        return rn

    def _deflate(self, c: np.ndarray):
        """Drop the unit vector with coordinates `c` from the complement:
        the reflection H = I - 2 w w* / |w|^2 maps c onto a multiple of e_0,
        so the rows of H K past the first span what is left."""
        K = self._complement
        phase = c[0] / abs(c[0]) if c[0] != 0 else 1.0
        w = c.copy()
        w[0] += phase
        s = (2.0 / np.vdot(w, w).real) * w.conj().dot(K)
        K[1:] -= w[1:, None] @ s[None]  # a matrix product: faster than np.outer here
        self._complement = K[1:]


def span_membership(target, basis: Sequence, tol: float = 1e-9) -> MembershipResult:
    """Least-squares projection of `target` onto span(basis); see :class:`Span`.

    Accepts Operators, TimeOperators or plain vectors (uniformly within one
    call).  Callers testing several targets against one basis should build
    the :class:`Span` once instead.
    """
    return Span(basis, tol).membership(target)


# ---------------------------------------------------------------------------
# scalar map
# ---------------------------------------------------------------------------

def bilinear_form(xi: np.ndarray, C: Operator) -> complex:
    """<xi|C|xi> with the physics convention (conjugate-linear first slot)."""
    xi = np.asarray(xi, dtype=complex).ravel()
    if xi.size != C.dim:
        raise DimensionMismatchError(f"state dim {xi.size} vs operator dim {C.dim}")
    nrm = np.linalg.norm(xi)
    if not (1 - 1e-6 <= nrm <= 1 + 1e-6):
        raise ValueError(f"state must be normalized to 1e-6, got |xi| = {float(nrm)!r}")
    return complex(np.vdot(xi, C.matrix @ xi))
