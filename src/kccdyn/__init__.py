"""Lyapunov and Jacobi (KCC) stability analysis of autonomous ODE systems.

Pipeline: parse a vector field (exprdsl, odesys), lift it to second-order
form and evaluate the geometric invariants (kcc), find and classify fixed
points under both stability notions (stability), integrate the deviation
equation along trajectories (deviation). Built-in benchmark systems and
network assembly live in models; the command-line front end in cli.
"""

from .deviation import DeviationRun, focusing_diagnostic, integrate
from .exprdsl import (
    DomainError,
    DualScalar,
    Expression,
    ExpressionError,
    ParseError,
    UnknownIdentifierError,
    parse,
)
from .kcc import (
    KccInvariants,
    Sode,
    berwald,
    deviation_tensor,
    deviation_tensor_lifted,
    first_invariant,
    higher_invariants,
    invariants,
    lift,
    nonlinear_connection,
)
from .models import (
    AdjacencyGraph,
    NetworkSpec,
    builtin_models,
    harmonic_system,
    laplacian,
    lcdm_system,
    network_deviation_tensor,
    network_system,
    translate_to_origin,
)
from .odesys import (
    FieldDomainError,
    JacobianMatrix,
    VectorField,
    eval_field,
    hessians,
    jacobian,
)
from .stability import (
    CharPoly,
    FixedPointReport,
    FixedPointSearch,
    NotAFixedPointError,
    RootConvergenceError,
    analyze_fixed_point,
    characteristic_polynomial,
    descartes_bound,
    eigenvalues,
    find_fixed_points,
    hurwitz_determinants,
    is_hurwitz_stable,
    jacobi_classify,
    lyapunov_classify,
)

__version__ = "0.1.0"
