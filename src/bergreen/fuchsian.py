"""Cyclic hyperbolic groups of disc automorphisms: orbit sums of
derivatives versus orbit products of squared moduli.

For the canonical hyperbolic generator ``g(z) = (z + c) / (1 + c z)``
(fixing ±1) the orbit of the origin marches along the real axis toward
the fixed points, and both the derivative sum ``Σ_{|n|<=N} (g^n)'(0)``
and the modulus product ``Π_{0<|n|<=N} |g^n(0)|^2`` converge
geometrically.  The inequality "sum >= product" is the cyclic-group
instance of the comparison verified elsewhere through capacities and
kernels; here both sides are computed directly by chain rule along the
orbit, with an explicit geometric tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .reports import ReportRecord, make_record
from .squeezing import MoebiusMap

__all__ = [
    "CyclicGroup",
    "canonical_generator",
    "group_sums",
    "fuchsian_sums",
    "inequality_check",
    "DEFAULT_C_GRID",
]

DEFAULT_C_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def canonical_generator(c: float) -> MoebiusMap:
    """Hyperbolic disc automorphism ``g(z) = (z + c) / (1 + c z)`` with
    ``g(0) = c`` and fixed points ±1, in unit-determinant form."""
    c = float(c)
    if not (0.0 < c < 1.0):
        raise ParameterError("canonical generator requires 0 < c < 1")
    s = math.sqrt(1.0 - c * c)
    return MoebiusMap(1.0 / s, c / s, c / s, 1.0 / s)


@dataclass(frozen=True)
class CyclicGroup:
    """Cyclic group generated by a hyperbolic disc automorphism, with the
    orbit of the origin and the chain-rule derivatives cached for
    ``|n| <= N``.

    ``points[k]`` and ``derivs[k]`` correspond to exponent ``ns[k]``,
    ``ns = (-N, ..., N)``; derivatives are accumulated incrementally as
    ``(g^{n+1})'(0) = g'(g^n(0)) (g^n)'(0)`` to avoid composing
    coefficient matrices of unbounded size.
    """

    generator: MoebiusMap
    N: int
    ns: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)
    derivs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ParameterError("orbit truncation N must be at least 1")
        if abs(self.generator.trace) <= 2.0:
            raise ParameterError(
                "generator is not hyperbolic: |trace| must exceed 2"
            )
        g = self.generator
        ginv = g.inverse()
        N = self.N
        points = np.empty(2 * N + 1, dtype=complex)
        derivs = np.empty(2 * N + 1, dtype=complex)
        points[N] = 0.0
        derivs[N] = 1.0
        for n in range(N):
            points[N + n + 1] = g(points[N + n])
            derivs[N + n + 1] = g.deriv(points[N + n]) * derivs[N + n]
            points[N - n - 1] = ginv(points[N - n])
            derivs[N - n - 1] = ginv.deriv(points[N - n]) * derivs[N - n]
        # hyperbolic orbits approach the boundary so fast that |g^n(0)|
        # saturates to 1.0 in floating point; only genuine escape is an error
        if np.any(np.abs(points) > 1.0 + 1e-9):
            raise ParameterError("orbit left the unit disc; generator invalid")
        object.__setattr__(self, "ns", np.arange(-N, N + 1))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "derivs", derivs)


def group_sums(group: CyclicGroup) -> tuple[float, float]:
    """(derivative sum, modulus product) over the cached orbit:
    ``Σ_{|n|<=N} (g^n)'(0)`` and ``Π_{0<|n|<=N} |g^n(0)|^2``."""
    total = float(np.sum(group.derivs).real)
    mods = np.abs(group.points) ** 2
    product = float(np.prod(np.delete(mods, group.N)))
    return total, product


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


def fuchsian_sums(
    c: float, N: int, tail_tol: float = 1e-8
) -> tuple[float, float, float]:
    """(sum, product, tail_bound) for the canonical generator at ``c``.

    Raises :class:`NonConvergenceError` if the geometric tail bound at
    truncation ``N`` exceeds ``tail_tol`` — the caller must increase ``N``
    rather than trust an under-resolved comparison.
    """
    c = float(c)
    if not (0.0 < c < 1.0):
        raise ParameterError("fuchsian_sums requires 0 < c < 1")
    if N < 8:
        raise ParameterError("fuchsian_sums requires N >= 8")
    tail = _tail_bound(c, N)
    if tail > tail_tol:
        raise NonConvergenceError(
            f"tail bound {tail:.3e} exceeds {tail_tol:.1e} at N={N}; "
            f"increase the truncation"
        )
    total, product = group_sums(CyclicGroup(canonical_generator(c), N))
    return total, product, tail


def inequality_check(
    c_grid=DEFAULT_C_GRID,
    N: int = 256,
    tail_tol: float = 1e-8,
) -> ReportRecord:
    """Derivative-sum versus modulus-product comparison across a grid of
    generator displacements; each margin must clear its own tail bound."""
    c_grid = [float(c) for c in c_grid]
    if not c_grid:
        raise ParameterError("c grid must be nonempty")
    quantities: dict = {}
    margins: dict = {}
    tolerances: dict = {}
    for c in c_grid:
        total, product, tail = fuchsian_sums(c, N, tail_tol=tail_tol)
        key = f"{c:g}"
        quantities[f"sum_c{key}"] = total
        quantities[f"product_c{key}"] = product
        quantities[f"margin_c{key}"] = total - product
        quantities[f"tail_c{key}"] = tail
        margins[f"margin_c{key}"] = total - product
        tolerances[f"margin_c{key}"] = tail
    quantities["min_margin"] = min(
        quantities[f"margin_c{c:g}"] for c in c_grid
    )
    return make_record(
        command="fuchsian-check",
        input_id=f"c_grid={c_grid},N={N}",
        inputs={"c_grid": c_grid, "N": N, "tail_tol": tail_tol},
        quantities=quantities,
        margins=margins,
        tolerances=tolerances,
        primary="min_margin",
        provenance={k: "fuchsian_sums" for k in quantities},
    )
