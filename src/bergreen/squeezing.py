"""Squeezing-function lower bounds on discs and annuli, in closed form.

The disc automorphism ``m_p(z) = (z - p) / (1 - conj(p) z)`` takes the
base point ``p`` to the origin and embeds the domain into the unit disc;
the image of the annulus ``r < |z| < 1`` is the disc minus the image of
the closed disc ``|z| <= r``.  The distance from the origin to that hole
is the pseudo-hyperbolic distance ``(|p| - r) / (1 - r |p|)`` from ``p``
to the inner circle, a certified lower bound for the squeezing function,
and ``sandwich_check`` verifies the two-sided comparison with the
capacity-to-kernel ratio: ``s_low^2 <= C <= 1``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bergman import suita_ratio
from .domains import Annulus, Disc
from .errors import ParameterError
from .reports import ReportRecord, make_record, min_margin

__all__ = [
    "squeeze_lower",
    "sandwich_check",
    "require_trend_k",
    "require_trend_ks",
    "require_angle",
    "boundary_trend_check",
]


# ---------------------------------------------------------------------------
# Squeezing lower bound
# ---------------------------------------------------------------------------


def squeeze_lower(domain, p: complex) -> float:
    """Certified lower bound for the squeezing function at ``p``.

    Uses the embedding given by the disc automorphism ``m_p`` sending
    ``p`` to the origin.  For the disc the image is the whole disc (bound
    1); for an annulus the bound is the distance from the origin to the
    image of the hole ``|z| <= r``, the minimum of ``|m_p(z)|`` on ``|z| =
    r``: by ``1 - |m_p(z)|^2 = (1 - |p|^2)(1 - |z|^2) / |1 - conj(p) z|^2``
    it is reached where ``conj(p) z`` is positive, at ``z = r p / |p|``,
    and it equals ``(|p| - r) / (1 - r |p|)``.
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
    r, rho = domain.r_inner, abs(p)
    if not (r < rho < 1.0):
        raise ParameterError("point must lie inside the open annulus")
    return (rho - r) / (1.0 - r * rho)


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
        quantities={
            "ratio": c_val,
            "squeeze_lower": s_low,
            "squeeze_lower_sq": s_low * s_low,
            "log_capacity": ratio["log_capacity"],
            "log_kernel": ratio["log_kernel"],
        },
        gates={
            "lower": (c_val - s_low * s_low, _SANDWICH_TOL),
            "upper": (1.0 - c_val, _SANDWICH_TOL),
        },
        primary="ratio",
        provenance={
            "ratio": "suita_ratio",
            "squeeze_lower": "squeeze_lower",
            "squeeze_lower_sq": "squeeze_lower",
            "log_capacity": "robin",
            "log_kernel": "kernel_diag",
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
    """Trend check: the ratio ``C`` at ``|p| = R (1 - 10^{-k})``, at
    distance ``R 10^{-k}`` from the outer circle of radius ``R`` (the
    radius of a disc, 1 on an annulus), must increase toward 1 along the
    ``k`` sequence (within ``_TREND_SLACK``) and end within ``_CLOSE_TOL``
    of 1.  Each distance is recorded as ``distance_k{k}``.
    """
    ks = [int(k) for k in ks]
    require_trend_ks(ks)
    for k in ks:
        require_trend_k(k)
    require_angle(angle)
    phase = cmath.exp(1j * angle)
    R = domain.radius if isinstance(domain, Disc) else 1.0
    ratios = []
    for k in ks:
        p = R * (1.0 - 10.0 ** (-k)) * phase
        ratios.append(suita_ratio(domain, p).quantities["ratio"])
    quantities = {f"ratio_k{k}": r for k, r in zip(ks, ratios)}
    quantities["final_deficit"] = 1.0 - ratios[-1]
    quantities.update({f"distance_k{k}": R * 10.0 ** (-k) for k in ks})
    return make_record(
        quantities=quantities,
        gates={
            "monotone_toward_one": (min_margin(np.diff(ratios)), _TREND_SLACK),
            "final_close_to_one": (-abs(1.0 - ratios[-1]), _CLOSE_TOL),
        },
        primary="final_deficit",
        provenance={
            k: "boundary_trend_check" if k.startswith("distance_") else "suita_ratio"
            for k in quantities
        },
    )
