"""conesemi: ordered vector spaces at desk scale.

Polyhedral cones carry the order; half-norms and their subdifferentials are
evaluated exactly over the cone, in closed form or as linear programs;
dissipativity, positive off-diagonal structure, semigroup contractivity, and
positivity are certified with explicit witnesses and honest sampled/exact
labelling.
"""

from .cone import DualVector, PolyCone
from .dirichlet import (
    Grid,
    convergence_study,
    dirichlet_laplacian,
    fd_resolvent,
    resolvent_closed_form,
    run_dirichlet_checks,
)
from .dissipativity import (
    LinOp,
    PolyhedralSet,
    certify_dissipative,
    has_positive_off_diagonal,
    is_dissipative_at,
    is_metzler,
    is_strictly_dissipative_at,
)
from .halfnorm import (
    CanonicalHalfNorm,
    EuclideanNorm,
    FunctionalGauge,
    HalfNorm,
    OrderUnitGauge,
    RegularizedGauge,
    SubdiffDesc,
    WeightedNorm,
    regularized_norm,
)
from .numerics import (
    LpProblem,
    LpResult,
    linear_solve,
    matrix_exp,
    solve_lp,
)
from .report import FAILS, HOLDS, INCONCLUSIVE, VACUOUS, Report, Witness
from .representation import (
    Measure,
    StateSpace,
    build_state_space,
    embed,
    represent_functional,
)
from .semigroup import (
    SemigroupConfig,
    check_resolvent_contractivity,
    check_semigroup_contractivity,
    check_semigroup_positivity,
    euler_matrix,
    euler_power,
    is_contractive,
    is_positive_operator,
    propagators,
    resolvent_apply,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalHalfNorm",
    "DualVector",
    "EuclideanNorm",
    "FAILS",
    "FunctionalGauge",
    "Grid",
    "HOLDS",
    "HalfNorm",
    "INCONCLUSIVE",
    "LinOp",
    "LpProblem",
    "LpResult",
    "Measure",
    "OrderUnitGauge",
    "PolyCone",
    "PolyhedralSet",
    "RegularizedGauge",
    "Report",
    "SemigroupConfig",
    "StateSpace",
    "SubdiffDesc",
    "VACUOUS",
    "WeightedNorm",
    "Witness",
    "build_state_space",
    "certify_dissipative",
    "check_resolvent_contractivity",
    "check_semigroup_contractivity",
    "check_semigroup_positivity",
    "convergence_study",
    "dirichlet_laplacian",
    "embed",
    "euler_matrix",
    "euler_power",
    "fd_resolvent",
    "has_positive_off_diagonal",
    "is_contractive",
    "is_dissipative_at",
    "is_metzler",
    "is_positive_operator",
    "is_strictly_dissipative_at",
    "linear_solve",
    "matrix_exp",
    "propagators",
    "regularized_norm",
    "represent_functional",
    "resolvent_apply",
    "resolvent_closed_form",
    "run_dirichlet_checks",
    "solve_lp",
]
