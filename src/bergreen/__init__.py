"""bergreen: desk-scale numerics for Green functions, logarithmic
capacities, weighted Bergman kernels, and sharp-inequality verification
on model planar domains and flat tori.

Modules
-------
domains
    Planar domains (disc, annulus, Jordan via conformal coefficients),
    Green-function evaluators (closed form, Laurent modes, Nyström),
    Robin constants, and logarithmic capacities.
bergman
    Monomial/Laurent bases, harmonic weights, Gram matrices, reproducing
    kernel diagonals, least-norm extensions, and the capacity-vs-kernel
    comparison checks.
extension
    Smoothed cutoff family, the sharp-constant ODE pair, generalized
    residual measures of plurisubharmonic specs with log poles, and the
    plateau-shrinking experiment for the optimal constant.
squeezing
    Two-sided squeeze of the capacity/kernel ratio and its boundary trend.
fuchsian
    Certified-tail orbit sums for a one-parameter hyperbolic generator
    family and the associated inequality check.
torus
    Theta functions, translation-invariant Green functions, weighted
    theta bases, kernel diagonals, curvature coefficients, and the
    global inequality check on flat tori.
reports
    Record construction, JSON/CSV/plot-data serialization, config
    hashing, and the content-addressed result cache.
cli
    ``bergreen`` command-line harness tying everything together.
"""

__version__ = "0.1.0"

from .bergman import (
    HarmonicLog,
    HarmonicRe,
    KernelEstimate,
    MaxPiece,
    Unweighted,
    extended_suita_check,
    gram_matrix,
    kernel_diag,
    least_norm_extension,
    suita_ratio,
)
from .domains import (
    Annulus,
    Disc,
    GreenEvaluator,
    Jordan,
    capacity,
    green_evaluator,
)
from .errors import BergreenError, ConfigError
from .extension import (
    CutoffFamily,
    OdePair,
    PolarSpec,
    cutoff_limit_check,
    make_cutoff,
    ode_pair,
    ode_residual,
    optimal_constant_experiment,
    residual_measure,
)
from .fuchsian import inequality_check
from .reports import ReportRecord, make_record
from .squeezing import boundary_trend_check, sandwich_check
from .torus import (
    ArakelovGreen,
    TorusSpec,
    arak1_check,
    arakelov_green,
    curvature_coefficients,
    theta1,
    torus_bergman,
    torus_capacity,
)

__all__ = [
    "__version__",
    # domains
    "Disc",
    "Annulus",
    "Jordan",
    "GreenEvaluator",
    "green_evaluator",
    "capacity",
    # bergman
    "Unweighted",
    "HarmonicLog",
    "HarmonicRe",
    "MaxPiece",
    "KernelEstimate",
    "gram_matrix",
    "kernel_diag",
    "least_norm_extension",
    "suita_ratio",
    "extended_suita_check",
    # extension
    "CutoffFamily",
    "make_cutoff",
    "cutoff_limit_check",
    "OdePair",
    "ode_pair",
    "ode_residual",
    "PolarSpec",
    "residual_measure",
    "optimal_constant_experiment",
    # squeezing
    "sandwich_check",
    "boundary_trend_check",
    # fuchsian
    "inequality_check",
    # torus
    "TorusSpec",
    "theta1",
    "ArakelovGreen",
    "arakelov_green",
    "torus_capacity",
    "torus_bergman",
    "curvature_coefficients",
    "arak1_check",
    # reports
    "ReportRecord",
    "make_record",
    # errors
    "BergreenError",
    "ConfigError",
]
