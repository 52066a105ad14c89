"""Finite-dimensional matrix representations of polynomial differential operators.

Differentiation and coordinate-multiplication operators on a 1-D partition
become small dense matrices; tensor-grid lifting extends them to several
dimensions.  The package ships executable audits of the rank and nilpotency
structure of these matrices and two boundary-value experiments built on them.
"""

from .audits import (
    AuditReport,
    audit_rank_ladder,
    audit_nilpotent_poly_rank,
    counterexample_det,
    default_suite,
)
from .bvp import (
    BvpReport,
    two_point_coefficients,
    error_metrics,
    hyperbolic_rhs,
    shooting_two_point,
    solve_two_point,
    solve_hyperbolic,
)
from .lifting import (
    LiftedOperator,
    MultiIndexSpace,
    full_rank_predicate,
    grid_eval,
    lifted_diff,
    poly_operator_matrix,
    realize,
)
from .linalg import (
    SingularSystemError,
    format_matrix,
    lu_solve,
    numerical_rank,
)
from .operators import diff_matrix
from .partitions import (
    Partition,
    jittered_partition,
    read_partition,
    uniform_partition,
)

__version__ = "0.1.0"
