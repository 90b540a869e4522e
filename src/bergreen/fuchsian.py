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
:class:`CyclicGroup` walks the orbit of any hyperbolic generator by chain
rule, the general route and the tests' oracle, on the fractional-linear
maps of :class:`MoebiusMap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .reports import ReportRecord, make_record, min_margin

__all__ = [
    "MoebiusMap",
    "CyclicGroup",
    "canonical_generator",
    "require_c",
    "require_terms",
    "group_sums",
    "fuchsian_sums",
    "inequality_check",
    "DEFAULT_C_GRID",
]

DEFAULT_C_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear map ``z -> (alpha z + beta) / (gamma z + delta_coef)``
    with unit determinant ``alpha delta_coef - beta gamma = 1``."""

    alpha: complex
    beta: complex
    gamma: complex
    delta_coef: complex

    def __post_init__(self):
        det = self.alpha * self.delta_coef - self.beta * self.gamma
        if abs(det - 1.0) > 1e-12:
            raise ParameterError(
                f"Moebius coefficients must have unit determinant, got {det!r}"
            )

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = (self.alpha * z + self.beta) / (self.gamma * z + self.delta_coef)
        return out if out.ndim else complex(out)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.delta_coef, -self.beta, -self.gamma, self.alpha)

    @property
    def trace(self) -> complex:
        return self.alpha + self.delta_coef


def require_c(c: float) -> None:
    """Precondition of :func:`canonical_generator` (and so of every sum
    over its group) on the displacement ``c = g(0)``."""
    if not 0.0 < c < 1.0:
        raise ParameterError(f"generator parameter c = {c} must lie in (0, 1)")


def require_terms(N: int) -> None:
    """Precondition of :func:`fuchsian_sums` (and so of
    :func:`inequality_check`) on the orbit truncation."""
    if N < 8:
        raise ParameterError("fuchsian_sums requires N >= 8")


def canonical_generator(c: float) -> MoebiusMap:
    """Hyperbolic disc automorphism ``g(z) = (z + c) / (1 + c z)`` with
    ``g(0) = c`` and fixed points ±1, in unit-determinant form."""
    c = float(c)
    require_c(c)
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
        N = self.N
        points = np.empty(2 * N + 1, dtype=complex)
        derivs = np.empty(2 * N + 1, dtype=complex)
        points[N] = 0.0
        derivs[N] = 1.0
        # numpy complex scalars, one shared denominator q = gamma z + delta
        # per step: g(z) = (alpha z + beta) / q and g'(z) = 1 / q^2
        for m, step in ((self.generator, 1), (self.generator.inverse(), -1)):
            a, b, c, d = map(np.complex128, (m.alpha, m.beta, m.gamma, m.delta_coef))
            z, dz = points[N], derivs[N]
            for k in range(N + step, N + step * (N + 1), step):
                q = c * z + d
                z, dz = (a * z + b) / q, 1.0 / (q * q) * dz
                points[k], derivs[k] = z, dz
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
