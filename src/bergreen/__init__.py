"""bergreen: desk-scale numerics for Green functions, logarithmic
capacities, weighted Bergman kernels, and sharp-inequality verification
on model planar domains and flat tori.

Modules
-------
domains
    Planar domains (disc, annulus, Jordan via conformal coefficients),
    Green-function evaluators (the closed form on the disc, the closed
    form through the prime function on the annulus, Nyström), Robin
    constants, and logarithmic capacities.
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

The package binds only ``__version__``: callers import the modules
(``from bergreen import domains``, ``from bergreen.bergman import
kernel_diag``).
"""

__version__ = "0.1.0"
