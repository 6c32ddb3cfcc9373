"""Solver laboratory for the nonlinear collision-induced breakage equation.

One finite-volume scheme and two homotopy-series schemes share a common grid
and case registry; the CLI reproduces the benchmark tables and figure data as
deterministic CSV files.
"""

from .cases import (
    CaseSpec,
    ConstantKernel,
    CustomIC,
    CustomKernel,
    DiscreteFragmentsBreakage,
    ExactReference,
    ExponentialIC,
    MassUniformBreakage,
    ProductKernel,
    WeightedExponentialIC,
    case_ids,
    exact_concentration,
    exact_moment,
    kernel_eval,
    registry_case,
    with_overrides,
)
from .errors import (
    CbelabError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    NoExactReferenceError,
    NoOracleError,
    NumericalError,
    StiffnessError,
    UnknownCaseError,
)
from .fvm import FvmSolution, integrate, precompute_weights
from .grid import (
    Grid,
    GridFunction,
    build_grid,
    l1_distance,
    l1_norm,
    project_initial,
    quad_moment,
)
from .metrics import (
    MomentTable,
    abs_error_grid,
    consecutive_term_norm,
    eoc,
    moments_over_time,
    number_error,
    reference_moment,
)
from .series import (
    AlphaResult,
    SeriesSolution,
    TimePoly,
    ahpm_terms,
    averaged_residual,
    ham_terms,
    optimize_alpha,
    oracle_table,
    oracle_terms,
    residual,
    truncated_sum,
)

__version__ = "0.1.0"
