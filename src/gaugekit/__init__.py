"""Desk-scale workbench for su(2) gauge connections on bounded domains.

Discretizes connections with Dirichlet boundary conditions on annuli,
slabs, and shells; provides the distinguished-gauge curvature form, the
boundary obstruction operator, and the constructive machinery that
realizes prescribed data through bracket products and commutators.
"""

from .algebra import (
    ALGEBRA_DIM,
    STRUCTURE_C,
    coeff_bracket,
    commutator_decompose,
)
from .constructions import (
    LADDER,
    BumpKit,
    band_profile,
    boundary_chart_inverse,
    bracket_boundary_identity_check,
    bracket_identity_check,
    full_decompose,
    generator_for_boundary_data,
    interior_inverse,
    kernel_class_potential,
    kernel_decompose,
)
from .coulomb import (
    GaugeTransformation,
    boundary_identity_residual,
    curvature_form,
    freeness_check,
    gauge_act,
    horizontality_ratio,
    obstruction_report,
    small_loop_holonomy,
)
from .errors import (
    BadCover,
    BadGeometry,
    ChartMismatch,
    ConfigError,
    DbcViolation,
    GaugekitError,
    HopfViolation,
    KernelConditionViolated,
    NearCutLocus,
    NoConvergence,
    NotHorizontal,
    NotTypeA,
    RankMismatch,
    SupportTouchesBoundary,
    WindowTooSmall,
)
from .fields import (
    OneForm,
    ScalarField,
    Section,
    check_dbc,
    l2_inner,
    l2_norm,
    random_smooth_field,
)
from .geometry import (
    BoundaryField,
    Chart,
    build_chart,
    mean_curvature,
)
from .harness import Report, RunConfig, convergence_order, emit_report, run_all, run_suite
from .operators import (
    Connection,
    SolveInfo,
    boundary_operator_T,
    boundary_operator_T0,
    codiff_A,
    d_A,
    green_A,
    horizontal_project,
    laplacian_A,
    ritz_smallest,
)

__version__ = "0.1.0"
