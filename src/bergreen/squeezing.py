"""Squeezing-function lower bounds via exact Möbius circle images.

A disc automorphism taking the base point to the origin embeds the domain
into the unit disc; the image of an annulus is the disc minus a closed
disc (the image of the inner boundary circle), computed here exactly from
the standard inversion formulas.  The distance from the origin to that
hole is a certified lower bound for the squeezing function, and
``sandwich_check`` verifies the two-sided comparison with the
capacity-to-kernel ratio: ``s_low^2 <= C <= 1``.

The ``MoebiusMap`` type is shared with the Fuchsian-group module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bergman import suita_ratio
from .domains import Annulus, Disc
from .errors import (
    GeometryError,
    ParameterError,
    PoleOnCircleError,
)
from .reports import ReportRecord, make_record, min_margin

__all__ = [
    "Circle",
    "MoebiusMap",
    "normalizer",
    "image_circle",
    "squeeze_lower",
    "sandwich_check",
    "require_trend_k",
    "require_trend_ks",
    "require_angle",
    "boundary_trend_check",
]


# ---------------------------------------------------------------------------
# Möbius maps and circles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    """Circle ``|z - center| = radius`` with positive radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ParameterError("circle radius must be positive and finite")

    def points(self, n: int = 360) -> np.ndarray:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return self.center + self.radius * np.exp(1j * theta)


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


def normalizer(p: complex) -> MoebiusMap:
    """Disc automorphism ``m(z) = (z - p) / (1 - conj(p) z)`` with
    ``m(p) = 0``, in unit-determinant form."""
    p = complex(p)
    if not abs(p) < 1.0:
        raise ParameterError("normalizer requires |p| < 1")
    s = math.sqrt(1.0 - abs(p) ** 2)
    return MoebiusMap(1.0 / s, -p / s, -p.conjugate() / s, 1.0 / s)


def image_circle(m: MoebiusMap, circle: Circle) -> Circle:
    """Exact image of a circle under a Möbius map (a circle again, since the
    input is required not to pass through the pole of ``m``).

    Uses the cancellation-free form of the image center for unit-determinant
    maps: with ``w = gamma c + delta`` and ``D = |w|^2 - r^2 |gamma|^2``,

        center = (conj(w) (alpha c + beta) - alpha r^2 conj(gamma)) / D
        radius = r / |D|

    (the pole-at-``z0 = -delta/gamma`` decomposition produces the same
    values but through intermediates of size ``1/|gamma|`` whose
    cancellation destroys the result for nearly affine maps; this form has
    no large intermediates and covers ``gamma = 0`` exactly)."""
    c, r = complex(circle.center), float(circle.radius)
    w = m.gamma * c + m.delta_coef
    hole = (r * abs(m.gamma)) ** 2
    D = abs(w) ** 2 - hole
    if abs(D) < 1e-12 * max(abs(w) ** 2, hole, 1e-300):
        raise PoleOnCircleError(
            f"circle (center {c!r}, radius {r!r}) passes through the map "
            f"pole; the image is a line, not a circle"
        )
    center = (
        w.conjugate() * (m.alpha * c + m.beta) - m.alpha * r * r * m.gamma.conjugate()
    ) / D
    return Circle(center, r / abs(D))


# ---------------------------------------------------------------------------
# Squeezing lower bound
# ---------------------------------------------------------------------------


def squeeze_lower(domain, p: complex) -> float:
    """Certified lower bound for the squeezing function at ``p``.

    Uses the embedding given by the disc automorphism sending ``p`` to the
    origin.  For the disc the image is the whole disc (bound 1); for an
    annulus the image is the disc minus the closed disc bounded by the
    image of the inner boundary circle, and the bound is the distance from
    the origin to that hole.
    """
    p = complex(p)
    if isinstance(domain, Disc):
        if not abs(p) < domain.radius:
            raise ParameterError("point must lie inside the disc")
        return 1.0
    if not isinstance(domain, Annulus):
        raise ParameterError(
            "squeeze_lower supports discs and annuli (circular boundaries)"
        )
    if not (domain.r_inner < abs(p) < 1.0):
        raise ParameterError("point must lie inside the open annulus")
    m = normalizer(p)
    hole = image_circle(m, Circle(0.0, domain.r_inner))
    dist = abs(hole.center) - hole.radius
    if dist < 0.0 and abs(hole.center) < hole.radius:
        # the origin (= image of p) would lie inside the removed disc
        raise GeometryError(
            "origin lies inside the image hole; point is not in the domain"
        )
    return max(dist, 0.0)


# the allowed overshoot of either side of the sandwich
_SANDWICH_TOL = 1e-6


def sandwich_check(domain, p: complex) -> ReportRecord:
    """Two-sided comparison ``s_low^2 - tol <= C <= 1 + tol`` at one point,
    ``tol = _SANDWICH_TOL``.

    ``C`` is the capacity-squared to kernel ratio; ``s_low`` the certified
    squeezing lower bound from :func:`squeeze_lower`.  The lower estimate
    holds because the true squeezing value dominates ``s_low`` and ``C``
    dominates its square.
    """
    p = complex(p)
    s_low = squeeze_lower(domain, p)
    ratio = suita_ratio(domain, p).quantities
    c_val = ratio["ratio"]
    return make_record(
        command="squeeze-check",
        input_id=f"{domain!r}@p={p!r}",
        inputs={"domain": repr(domain), "p": p},
        quantities={
            "ratio": c_val,
            "squeeze_lower": s_low,
            "squeeze_lower_sq": s_low * s_low,
            "capacity": ratio["capacity"],
            "kernel": ratio["kernel_diag"],
        },
        margins={
            "lower": c_val - s_low * s_low,
            "upper": 1.0 - c_val,
        },
        tolerances={"lower": _SANDWICH_TOL, "upper": _SANDWICH_TOL},
        primary="ratio",
        provenance={
            "ratio": "suita_ratio",
            "squeeze_lower": "squeeze_lower",
            "squeeze_lower_sq": "squeeze_lower",
            "capacity": "capacity",
            "kernel": "kernel_diag",
        },
    )


def require_trend_k(k: int) -> None:
    """Precondition of :func:`boundary_trend_check` on each exponent ``k``
    of the distance ``10^{-k}`` to the boundary."""
    if k < 1:
        raise ParameterError(f"trend exponent k = {k} must be at least 1")


def require_trend_ks(ks) -> None:
    """Precondition of :func:`boundary_trend_check` on the whole exponent
    sequence: strictly increasing, so the points approach the boundary."""
    if any(b <= a for a, b in zip(ks[:-1], ks[1:])):
        raise ParameterError("k sequence must be strictly increasing")


def require_angle(angle: float) -> None:
    """Precondition of :func:`boundary_trend_check` on the ray angle."""
    if not math.isfinite(angle):
        raise ParameterError("trend angle must be finite")


# the allowed decrease between consecutive trend ratios, which absorbs
# quadrature noise once the deficit falls below roundoff, and the bound on
# the last deficit
_TREND_SLACK = 1e-9
_CLOSE_TOL = 1e-6


def boundary_trend_check(domain, ks=(1, 2, 3, 4), angle: float = 0.0) -> ReportRecord:
    """Trend check: the ratio ``C`` at ``|p| = 1 - 10^{-k}`` must increase
    toward 1 along the ``k`` sequence (within ``_TREND_SLACK``) and end
    within ``_CLOSE_TOL`` of 1.
    """
    ks = [int(k) for k in ks]
    require_trend_ks(ks)
    for k in ks:
        require_trend_k(k)
    require_angle(angle)
    phase = cmath.exp(1j * angle)
    ratios = []
    for k in ks:
        p = (1.0 - 10.0 ** (-k)) * phase
        ratios.append(suita_ratio(domain, p).quantities["ratio"])
    quantities = {f"ratio_k{k}": r for k, r in zip(ks, ratios)}
    quantities["final_deficit"] = 1.0 - ratios[-1]
    return make_record(
        command="squeeze-check",
        input_id=f"{domain!r}:boundary-trend",
        inputs={"domain": repr(domain), "ks": ks, "angle": angle},
        quantities=quantities,
        margins={
            "monotone_toward_one": min_margin(np.diff(ratios)),
            "final_close_to_one": _CLOSE_TOL - abs(1.0 - ratios[-1]),
        },
        tolerances={
            "monotone_toward_one": _TREND_SLACK,
            "final_close_to_one": 0.0,
        },
        primary="final_deficit",
        provenance={k: "suita_ratio" for k in quantities},
    )
