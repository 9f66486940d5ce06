"""qdecouple: geometric decoherence control for open quantum systems.

Build spin-boson control models, test open-loop and controlled invariance
of a coherence functional through commutator-closure criteria, synthesize
state feedback, and simulate whether the protected coherence is immune to
the environmental interaction.
"""

from .operators import (
    DimensionMismatchError,
    MembershipResult,
    NumericalError,
    Operator,
    Span,
    TensorLayout,
    TimeOperator,
    TimeTerm,
    bilinear_form,
    commutator,
    kron_embed,
    make_primitive,
    matrix_exponential,
    span_membership,
)
from .invariance import (
    Decision,
    InvarianceReport,
    OperatorDistribution,
    check_controller_necessary,
    check_open_loop_invariance,
    decide,
    find_dfs_coherences,
    generate_ctilde,
)
from .geometry import (
    LinearVectorField,
    kernel_dy_member,
    vf_bracket,
)
from .models import (
    ModelParams,
    SystemModel,
    build_ancilla_system,
    build_electrooptic,
    build_one_qubit,
    build_restructured,
    build_two_qubit,
    cbh_effective_generator,
)
from .synthesis import (
    ControlLawSample,
    DegenerateStateError,
    InvariantBasis,
    build_invariant_basis,
    synthesize_alpha_beta,
    synthesize_protective,
    verify_synthesis,
)
from .simulator import (
    ControlSchedule,
    DecouplingReport,
    NormGuardError,
    Trajectory,
    compare_decoupling,
    integrate_closed_loop,
    integrate_open_loop,
    preset_state,
    propagate_piecewise_exact,
    write_trajectory_csv,
)

__version__ = "0.1.0"
