"""Decouplability verdicts through both formalisms.

The operator-algebra route closes the coherence operator under commutators
with the drift and controls and asks how the closure meets the
interaction.  The tangent-space route asks whether the interaction field
lies in ker(dy) and, for the restructured system, whether every bracket of
a control with the interaction lands in the control span; `decide` runs
both routes on one model.  The two agree on every model here.

Run:  python demos/03_decouplability_verdicts.py
"""
from qdecouple import (
    build_one_qubit,
    build_restructured,
    build_two_qubit,
    check_controller_necessary,
    decide,
    generate_ctilde,
    kernel_dy_member,
)

print("=== one qubit in a dephasing bath ===")
m1 = build_one_qubit()
dist1 = generate_ctilde(m1.coherence_op, m1.drift, list(m1.controls))
alg1 = check_controller_necessary(m1.coherence_op, dist1, m1.interaction)
geo1 = kernel_dy_member(m1.interaction_field(), m1.coherence_op)
print(f"operator algebra: {alg1.verdict} (|[C, H_SE]| residual {alg1.residuals[0]:.2e})")
print(f"tangent space: interaction in ker(dy)? {geo1.member}")
print("-> the bare coherence |1><0| cannot be decoupled by any state feedback\n")

print("=== two qubits, collective dephasing, four bare controls ===")
m2 = build_two_qubit()
dist2 = generate_ctilde(m2.coherence_op, m2.drift, list(m2.controls))
alg2 = check_controller_necessary(m2.coherence_op, dist2, m2.interaction)
geo2 = kernel_dy_member(m2.interaction_field(), m2.coherence_op)
print(f"[C, H_SE] residual: {alg2.residuals[0]:.2e}  (first necessary condition holds)")
print(f"interaction in ker(dy)? {geo2.member}")
print(f"but the closure test gives: {alg2.verdict}")
print("-> single-qubit x/y drives kick the coherence out of the protected pair\n")

print("=== the restructured 24-control system ===")
d3 = decide(build_restructured())
print(f"interaction in ker(dy)? {d3.kernel.member}")
print(f"control brackets [g, H_SE] land in span(G)? {d3.brackets_close} "
      f"(worst relative residual {d3.bracket_residual:.1e})")
print(f"verdict: {d3.verdict}")
print("-> dressing the two-qubit operators with environment powers closes the")
print("   bracket conditions that the bare system could not satisfy")
