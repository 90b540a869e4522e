"""Cyclic hyperbolic groups of disc automorphisms: orbit sums of
derivatives versus orbit products of squared moduli.

For the canonical hyperbolic generator ``g(z) = (z + c) / (1 + c z)``
(fixing ±1) the orbit of the origin marches along the real axis toward
the fixed points, and both the derivative sum ``Σ_{|n|<=N} (g^n)'(0)``
and the modulus product ``Π_{0<|n|<=N} |g^n(0)|^2`` converge
geometrically.  The inequality "sum >= product" is the cyclic-group
instance of the comparison verified elsewhere through capacities and
kernels.  :func:`fuchsian_sums` computes both sides in closed form, from
``g^n(0) = tanh(n artanh c)``, with an explicit geometric tail bound;
the tests walk the orbit by chain rule as its oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .reports import ReportRecord, make_record, min_margin

__all__ = [
    "require_c",
    "require_terms",
    "fuchsian_sums",
    "inequality_check",
    "DEFAULT_C_GRID",
]

DEFAULT_C_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def require_c(c: float) -> None:
    """Precondition of :func:`fuchsian_sums` (and so of
    :func:`inequality_check`) on the displacement ``c = g(0)``."""
    if not 0.0 < c < 1.0:
        raise ParameterError(f"generator parameter c = {c} must lie in (0, 1)")


def require_terms(N: int) -> None:
    """Precondition of :func:`fuchsian_sums` (and so of
    :func:`inequality_check`) on the orbit truncation."""
    if N < 8:
        raise ParameterError("fuchsian_sums requires N >= 8")


def _tail_bound(c: float, N: int) -> float:
    """Geometric bound covering both truncation errors.

    With ``alpha = artanh c``, the dropped derivative terms satisfy
    ``sech^2(n alpha) <= 4 e^{-2 n alpha}`` and the dropped product
    factors satisfy ``-log tanh^4(n alpha) <= 8 e^{-2 n alpha}`` (for
    ``n alpha`` past the first term), so both tails are dominated by
    ``16 e^{-2 (N+1) alpha} / (1 - e^{-2 alpha})``.
    """
    alpha = math.atanh(c)
    return 16.0 * math.exp(-2.0 * (N + 1) * alpha) / (1.0 - math.exp(-2.0 * alpha))


# the largest certified tail bound of a comparison
_TAIL_TOL = 1e-8


def fuchsian_sums(c: float, N: int) -> tuple[float, float, float]:
    """(sum, product, tail_bound) for the canonical generator at ``c``.

    With ``alpha = artanh c``, ``g^n(0) = tanh(n alpha)`` and ``(g^n)'(0) =
    sech^2(n alpha)``; in ``q = e^{-2 n alpha}`` the sum is ``1 + 2 sum_n
    4 q / (1 + q)^2`` and the product ``prod_n ((1 - q) / (1 + q))^4`` over
    ``n = 1..N``.  This form neither overflows (``cosh^2(n alpha)`` does
    past ``n alpha = 355``) nor cancels (``1 - tanh^2`` does); ``1 - q`` is
    taken as ``-expm1(-2 n alpha)``.

    Raises :class:`NonConvergenceError` if the geometric tail bound at
    truncation ``N`` exceeds ``_TAIL_TOL`` — the caller must increase ``N``
    rather than trust an under-resolved comparison.
    """
    c = float(c)
    require_c(c)
    require_terms(N)
    tail = _tail_bound(c, N)
    if tail > _TAIL_TOL:
        raise NonConvergenceError(
            f"tail bound {tail:.3e} exceeds {_TAIL_TOL:.1e} at N={N}; "
            f"increase the truncation"
        )
    two_n_alpha = 2.0 * math.atanh(c) * np.arange(1, N + 1)
    q = np.exp(-two_n_alpha)
    total = 1.0 + 2.0 * float(np.sum(4.0 * q / (1.0 + q) ** 2))
    product = float(np.prod((-np.expm1(-two_n_alpha) / (1.0 + q)) ** 4))
    return total, product, tail


def inequality_check(c_grid=DEFAULT_C_GRID, N: int = 256) -> ReportRecord:
    """Derivative-sum versus modulus-product comparison across a grid of
    generator displacements; each margin must clear its own tail bound.
    Quantities and margins are keyed by ``repr(c)``, so two displacements
    that differ keep one margin each."""
    c_grid = [float(c) for c in c_grid]
    if not c_grid:
        raise ParameterError("c grid must be nonempty")
    quantities: dict = {}
    gates: dict = {}
    for c in c_grid:
        total, product, tail = fuchsian_sums(c, N)
        key = repr(c)
        quantities[f"sum_c{key}"] = total
        quantities[f"product_c{key}"] = product
        quantities[f"margin_c{key}"] = total - product
        quantities[f"tail_c{key}"] = tail
        gates[f"margin_c{key}"] = (total - product, tail)
    quantities["min_margin"] = min_margin([m for m, _ in gates.values()])
    return make_record(
        quantities=quantities,
        gates=gates,
        primary="min_margin",
        provenance={k: "fuchsian_sums" for k in quantities},
    )
