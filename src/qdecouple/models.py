"""Builders for the concrete open-quantum-system control models.

All builders return a :class:`SystemModel` whose drift, control and
interaction operators are skew-Hermitian generators (-1j times the physical
Hamiltonians, hbar = 1), so trajectories preserve the state norm in exact
arithmetic.  The environment is a single truncated bosonic mode throughout;
the four spin-boson models take their drift and interaction from one
collective-dephasing model, :func:`_collective_dephasing`.

Models:

* one qubit in a dephasing bath (two controls) - not decouplable;
* two qubits in a collective dephasing bath (four controls) - carries the
  protected pair span{|01>, |10>} but is not decouplable as given;
* a driven oscillator read out by a rotating-frame quadrature (one control);
* the ancilla-extended system (nine controls) used to manufacture new
  control directions by pulse maneuvers;
* the restructured system: eight two-qubit operators crossed with
  {I, D, D^2} environment dressings, 24 controls, on which the feedback
  synthesis operates.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import LinearVectorField
from .operators import (
    _PAULI,
    NumericalError,
    Operator,
    TensorLayout,
    TimeOperator,
    TimeTerm,
    kron_embed,
    make_primitive,
    matrix_exponential,
    opnorm,
)

__all__ = [
    "ModelParams",
    "SystemModel",
    "build_one_qubit",
    "build_two_qubit",
    "build_electrooptic",
    "build_ancilla_system",
    "build_restructured",
    "cbh_effective_generator",
    "RESTRUCTURED_SYSTEM_LABELS",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; only g = 10, env_levels = 3 and the initial
    coherence 0.5 are anchored values, the rest are nondegenerate defaults."""

    omega0: float = 1.0          # qubit splitting
    omega_env: float = 1.0       # mode frequency
    g: complex = 10.0 + 0j       # decoherence coupling strength
    w: complex = 1.0 + 0j        # ancilla-derived coupling in D = w b^+ + w* b
    j1: float = 1.0              # Ising coupling, qubit 1 <-> ancilla
    j2: float = 1.0              # Ising coupling, qubit 2 <-> ancilla
    env_levels: int = 3          # bosonic truncation

    def __post_init__(self):
        try:
            operator.index(self.env_levels)
        except TypeError:
            raise ValueError(f"env_levels must be an integer, got {self.env_levels!r}") from None
        if self.env_levels < 2:
            raise ValueError(f"env_levels must be >= 2, got {self.env_levels}")
        for name in ("omega0", "omega_env", "j1", "j2", "g", "w"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Complex):
                raise ValueError(f"parameter {name} must be a number, got {value!r}")
            if not np.isfinite(complex(value)):
                raise ValueError(f"parameter {name} must be finite")
            if name not in ("g", "w") and not isinstance(value, numbers.Real):
                raise ValueError(f"parameter {name} must be real, got {value!r}")


@dataclass(frozen=True)
class SystemModel:
    """Drift/control/interaction generators plus the monitored operator."""

    layout: TensorLayout
    drift: Operator                      # -1j (H_0 + H_env)
    controls: tuple[Operator, ...]       # -1j H_i
    interaction: Operator                # -1j H_SE
    coherence_op: Union[Operator, TimeOperator]
    params: ModelParams
    name: str = ""

    def __post_init__(self):
        for op in (self.drift, self.interaction, *self.controls):
            if op.hermiticity != "skew_hermitian":
                raise ValueError(f"generator {op.label!r} must be skew-Hermitian")
            if op.dim != self.layout.total_dim:
                raise ValueError("generator dimension does not match layout")
        cdim = self.coherence_op.dim
        if cdim != self.layout.total_dim:
            raise ValueError("coherence operator dimension does not match layout")

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def control_fields(self) -> list[LinearVectorField]:
        return [LinearVectorField(op, f"K{i + 1}:{op.label}")
                for i, op in enumerate(self.controls)]

    def interaction_field(self) -> LinearVectorField:
        return LinearVectorField(self.interaction, "K_I")


def _number_op(n_levels: int) -> Operator:
    b = make_primitive("boson_lower", n_levels)
    return Operator((b.dagger() @ b).matrix, "hermitian", "n")


def _pauli_on(kind: str, slot: int, layout: TensorLayout) -> Operator:
    return kron_embed(make_primitive(kind, 2), slot, layout)


def _collective_dephasing(params: ModelParams, qubits: tuple[str, ...],
                          coupled: int) -> tuple[TensorLayout, Operator, Operator]:
    """Qubits and one truncated mode, the first `coupled` qubits dephasing into it.

    H0 = (omega0 / 2) sum_k sz_k + omega_env n over every qubit and
    H_SE = (sz_1 + ... + sz_coupled) D_g; returns the layout (the qubit slots
    `qubits`, then "env") and the generators -1j H0, -1j H_SE.
    """
    n_env = params.env_levels
    qubit_layout = TensorLayout((2,) * len(qubits), qubits)
    sz = [_pauli_on("pauli_z", k, qubit_layout).matrix for k in range(len(qubits))]
    number = np.kron(np.eye(qubit_layout.total_dim), _number_op(n_env).matrix)
    h0 = Operator((params.omega0 / 2.0) * np.kron(sum(sz), np.eye(n_env))
                  + params.omega_env * number, "hermitian", "H0")
    d_g = make_primitive("displacement", n_env, w=params.g)
    h_se = Operator(np.kron(sum(sz[:coupled]), d_g.matrix), "hermitian", "H_SE")
    layout = TensorLayout(qubit_layout.dims + (n_env,), qubits + ("env",))
    return layout, h0.times_minus_i(), h_se.times_minus_i()


def _coherence(layout: TensorLayout, ket: str, bra: str) -> Operator:
    """|ket><bra| on the leading qubits (bit strings), identity on the other slots."""
    # entry (i r + a, j r + a) of np.kron(|i><j|, I_r) is 1 for every a < r
    rest = layout.total_dim // 2 ** len(ket)
    m = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    diagonal = np.arange(rest)
    m[int(ket, 2) * rest + diagonal, int(bra, 2) * rest + diagonal] = 1.0
    return Operator(m, "general", f"|{ket}><{bra}|")


def build_one_qubit(params: ModelParams = ModelParams()) -> SystemModel:
    """Single qubit dephasing through sigma_z into one truncated mode."""
    layout, drift, interaction = _collective_dephasing(params, ("q0",), 1)
    controls = (_pauli_on("pauli_x", 0, layout), _pauli_on("pauli_y", 0, layout))
    return SystemModel(layout=layout, drift=drift,
                       controls=tuple(op.times_minus_i() for op in controls),
                       interaction=interaction, coherence_op=_coherence(layout, "1", "0"),
                       params=params, name="one_qubit")


_SX, _SY, _SZ = _PAULI["pauli_x"], _PAULI["pauli_y"], _PAULI["pauli_z"]
_I2 = np.eye(2, dtype=complex)


def _environment_powers(params: ModelParams) -> list[np.ndarray]:
    """[I, D_w, D_w^2] on the truncated mode, D_w = w b^+ + w* b."""
    d_w = make_primitive("displacement", params.env_levels, w=params.w).matrix
    return [np.eye(params.env_levels, dtype=complex), d_w, d_w @ d_w]


def build_two_qubit(params: ModelParams = ModelParams()) -> SystemModel:
    """Two qubits, collective dephasing, the four bare single-qubit controls."""
    layout, drift, interaction = _collective_dephasing(params, ("q0", "q1"), 2)
    eye_env = np.eye(params.env_levels, dtype=complex)
    sys_controls = [(np.kron(_SX, _I2), "sx1"), (np.kron(_SY, _I2), "sy1"),
                    (np.kron(_I2, _SX), "sx2"), (np.kron(_I2, _SY), "sy2")]
    controls = [Operator(np.kron(m, eye_env), "hermitian", lab) for m, lab in sys_controls]
    return SystemModel(layout=layout, drift=drift,
                       controls=tuple(op.times_minus_i() for op in controls),
                       interaction=interaction, coherence_op=_coherence(layout, "01", "10"),
                       params=params, name="two_qubit")


def _check_n_sys(n_sys: int):
    """The cavity truncation of `build_electrooptic`: at least three levels."""
    if n_sys < 3:
        raise ValueError(f"n_sys must be >= 3, got {n_sys}")


def build_electrooptic(n_sys: int = 10, params: ModelParams = ModelParams(g=1.0)) -> SystemModel:
    """Driven oscillator with a rotating-frame quadrature readout.

    The monitored operator is a e^(i omega t) + a^+ e^(-i omega t); the
    interaction exchanges quanta with the bath mode.  The control (a^+ - a)
    is already skew-Hermitian and enters the dynamics unscaled.
    """
    _check_n_sys(n_sys)
    n_env = params.env_levels
    layout = TensorLayout((n_sys, n_env), ("cavity", "env"))
    a = make_primitive("boson_lower", n_sys)
    ad = a.dagger()
    b = make_primitive("boson_lower", n_env)
    bd = b.dagger()
    eye_s = np.eye(n_sys, dtype=complex)
    eye_e = np.eye(n_env, dtype=complex)

    h0 = Operator(params.omega0 * np.kron((ad @ a).matrix, eye_e)
                  + params.omega_env * np.kron(eye_s, (bd @ b).matrix), "hermitian", "H0")
    g = complex(params.g)
    h_se = Operator(np.kron(a.matrix, np.conj(g) * b.matrix)
                    + np.kron(ad.matrix, g * bd.matrix), "hermitian", "H_SE")
    control = Operator(np.kron(ad.matrix - a.matrix, eye_e), "skew_hermitian", "a^+-a")

    C = TimeOperator((
        TimeTerm(np.kron(a.matrix, eye_e), 1.0, params.omega0, 0),
        TimeTerm(np.kron(ad.matrix, eye_e), 1.0, -params.omega0, 0),
    ), label="a e^{iwt} + a^+ e^{-iwt}")
    return SystemModel(
        layout=layout,
        drift=h0.times_minus_i(),
        controls=(control,),
        interaction=h_se.times_minus_i(),
        coherence_op=C,
        params=params,
        name="electro_optic",
    )


def build_ancilla_system(params: ModelParams = ModelParams()) -> SystemModel:
    """Two qubits + ancilla qubit + mode; the nine physical controls.

    The ancilla's splitting is part of H0, but it does not dephase into the
    mode.  Controls 1-4 are the bare qubit fields, 5-6 drive the ancilla,
    7-8 are the Ising couplings scaled by J1, J2, and 9 modulates the
    ancilla's own environment coupling (the carrier of the interaction model).
    """
    layout, drift, interaction = _collective_dephasing(params, ("q0", "q1", "anc"), 2)
    sx, sy, sz, i2 = _SX, _SY, _SZ, _I2
    eye_env = np.eye(params.env_levels, dtype=complex)

    def sys3(m1, m2, mb):
        return np.kron(np.kron(m1, m2), mb)

    sys_controls = [
        (sys3(sx, i2, i2), "sx1"), (sys3(sy, i2, i2), "sy1"),
        (sys3(i2, sx, i2), "sx2"), (sys3(i2, sy, i2), "sy2"),
        (sys3(i2, i2, sx), "sxb"), (sys3(i2, i2, sy), "syb"),
        (params.j1 * sys3(sz, i2, sz), "J1 sz1 szb"),
        (params.j2 * sys3(i2, sz, sz), "J2 sz2 szb"),
    ]
    controls = [Operator(np.kron(m, eye_env), "hermitian", lab) for m, lab in sys_controls]
    d_w = make_primitive("displacement", params.env_levels, w=params.w)
    controls.append(Operator(np.kron(sys3(i2, i2, sz), d_w.matrix), "hermitian", "szb Dw"))
    return SystemModel(layout=layout, drift=drift,
                       controls=tuple(op.times_minus_i() for op in controls),
                       interaction=interaction, coherence_op=_coherence(layout, "01", "10"),
                       params=params, name="ancilla")


RESTRUCTURED_SYSTEM_LABELS = ("sx1", "sy1", "sx2", "sy2",
                              "sz1 sx2", "sz1 sy2", "sx1 sz2", "sy1 sz2")


def restructured_system_operators() -> list[np.ndarray]:
    """The eight two-qubit operators dressed by the environment powers."""
    sx, sy, sz, i2 = _SX, _SY, _SZ, _I2
    return [np.kron(sx, i2), np.kron(sy, i2), np.kron(i2, sx), np.kron(i2, sy),
            np.kron(sz, sx), np.kron(sz, sy), np.kron(sx, sz), np.kron(sy, sz)]


def build_restructured(params: ModelParams = ModelParams()) -> SystemModel:
    """The 24-control effective system: {eight ops} x {I, D, D^2}.

    Control ordering is fixed with the environment factor varying fastest:
    index 3*(s-1) + i addresses system operator s dressed with D^i.  The
    ancilla slot is eliminated (the manufactured controls act trivially on
    it); its drift term is dropped with it.  D^2 is the square of the
    truncated D, keeping the dressed algebra self-consistent.
    """
    layout, drift, interaction = _collective_dephasing(params, ("q0", "q1"), 2)
    env_powers = _environment_powers(params)
    controls = [Operator(np.kron(s_op, env), "hermitian", f"{s_lab} D^{i}")
                for s_op, s_lab in zip(restructured_system_operators(), RESTRUCTURED_SYSTEM_LABELS)
                for i, env in enumerate(env_powers)]
    return SystemModel(layout=layout, drift=drift,
                       controls=tuple(op.times_minus_i() for op in controls),
                       interaction=interaction, coherence_op=_coherence(layout, "01", "10"),
                       params=params, name="restructured")


def cbh_effective_generator(HA: Operator, HB: Operator, t: float) -> tuple[Operator, Operator]:
    """Four-pulse maneuver propagator and its effective generator.

    U = exp(t A) exp(t B) exp(-t A) exp(-t B) equals exp([A, B] t^2 + O(t^3))
    for skew-Hermitian generators A, B; the returned effective generator is
    the principal matrix logarithm of U divided by t^2, which approaches
    commutator(A, B) as t -> 0.
    """
    if HA.hermiticity != "skew_hermitian" or HB.hermiticity != "skew_hermitian":
        raise ValueError("cbh_effective_generator expects skew-Hermitian generators")
    if t <= 0:
        raise ValueError(f"pulse time must be positive, got {t}")
    ua = matrix_exponential((t * HA))
    ub = matrix_exponential((t * HB))
    ua_inv = matrix_exponential((-t) * HA)
    ub_inv = matrix_exponential((-t) * HB)
    U = Operator(ua.matrix @ ub.matrix @ ua_inv.matrix @ ub_inv.matrix, "general", "U(4t)")

    import scipy.linalg  # deferred: it more than doubles the package's import time

    logU = scipy.linalg.logm(U.matrix)
    recon = opnorm(scipy.linalg.expm(logU) - U.matrix)
    if not np.all(np.isfinite(logU)) or recon > 1e-8 * max(1.0, opnorm(U.matrix)):
        raise NumericalError(
            f"matrix logarithm branch failure at t={t}; use a smaller pulse time "
            f"(reconstruction error {recon:.3e})")
    effective = Operator(np.asarray(logU, dtype=complex) / t ** 2, "general", "[A,B]+O(t)")
    return U, effective
