"""Tour of the operator toolkit: primitives, embedding, algebra, time operators.

Run:  python demos/01_operator_toolkit.py
"""
import numpy as np

from qdecouple import (
    TensorLayout,
    TimeOperator,
    bilinear_form,
    commutator,
    kron_embed,
    make_primitive,
    matrix_exponential,
    span_membership,
)
from qdecouple.operators import TimeTerm

print("=== primitives ===")
sx = make_primitive("pauli_x", 2)
sy = make_primitive("pauli_y", 2)
sz = make_primitive("pauli_z", 2)
b = make_primitive("boson_lower", 3)
D = make_primitive("displacement", 3, w=1.0)
print("sigma_z =\n", sz.matrix.real)
print("lowering operator on 3 levels:\n", np.round(b.matrix.real, 3))
print("displacement coupling D = w b+ + w* b is", D.hermiticity)

print("\n=== embedding into a 2 x 2 x 3 layout ===")
layout = TensorLayout((2, 2, 3), ("q0", "q1", "env"))
sz1 = kron_embed(sz, 1, layout)
print("sigma_z on the second qubit has dimension", sz1.dim)

print("\n=== commutators ===")
print("[sx, sy] = 2i sz:",
      np.allclose(commutator(sx, sy).matrix, 2j * sz.matrix))
gen = (np.pi / 2) * sx.times_minus_i()
U = matrix_exponential(gen)
print("exp(-i pi/2 sx) = -i sx:", np.allclose(U.matrix, -1j * sx.matrix))

print("\n=== span membership ===")
target = 2.0 * np.array([1, 1, 0], dtype=complex) - 3.0 * np.array([0, 1, 1], dtype=complex)
res = span_membership(target, [np.array([1, 1, 0], dtype=complex),
                               np.array([0, 1, 1], dtype=complex)])
print("coefficients recovered:", np.round(res.coefficients.real, 10),
      "residual:", f"{res.residual_norm:.2e}")

print("\n=== the coherence functional ===")
proj = np.zeros((4, 4), dtype=complex)
proj[1, 2] = 1.0
from qdecouple import Operator
C = Operator(proj, "general", "|01><10|")
xi = np.zeros(4, dtype=complex)
xi[1] = xi[2] = 1 / np.sqrt(2)
print("y for the balanced pair state:", bilinear_form(xi, C))

print("\n=== time-dependent operators ===")
a = make_primitive("boson_lower", 4)
quad = TimeOperator((TimeTerm(a.matrix, 1.0, 1.3, 0),
                     TimeTerm(a.dagger().matrix, 1.0, -1.3, 0)),
                    label="rotating quadrature")
print("value at t = 0 equals a + a+:",
      np.allclose(quad.evaluate(0.0).matrix,
                  a.matrix + a.dagger().matrix))
dq = quad.derivative()
print("derivative keys (frequency, power):", sorted(dq.families))
