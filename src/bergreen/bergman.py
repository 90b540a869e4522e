"""Weighted Bergman kernels as least-norm extremal problems.

The kernel diagonal is the extremal value ``sup |f(z)|^2 / ||f||_rho^2``
over the monomial span, computed from the Gram matrix

    M[i, j] = integral_Omega  z^{n_i} conj(z)^{n_j} rho(z) dLambda(z)

as ``K(z, z) = b* M^{-1} b`` with ``b_i = z^{n_i}``.  For radial weights on
disc/annulus the monomials are orthogonal and the Gram matrix is diagonal
with closed-form per-mode moments.  Without a basis range, the kernel of
``Unweighted`` and ``HarmonicLog`` sums every mode in closed form: a
rational function on the disc, a Lambert series with a certified geometric
tail on an annulus.  Over a given basis range it sums the modes in log
space, so that very large bases neither overflow nor underflow.
``HarmonicRe(c)`` is not radial, but ``f -> f e^{-c z}`` maps its space
isometrically onto the unweighted one, so its kernel is the unweighted
closed form times ``e^{2 c Re z}``.

Norm convention: ``||f||^2 = integral |f|^2 rho dLambda`` (plain Lebesgue
area measure).  Under this convention the unweighted unit disc gives
``K(0,0) = 1/pi`` and the capacity/kernel comparison reads exactly
``c_beta(z)^2 <= pi K(z,z)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .domains import Annulus, Disc, PlanarDomain, capacity
from .errors import (
    DivergentIntegralError,
    DomainError,
    TruncationError,
    ZeroKernelError,
)
from .reports import ReportRecord, finite_margin, make_record

__all__ = [
    "Unweighted",
    "HarmonicLog",
    "MaxPiece",
    "HarmonicRe",
    "WeightSpec",
    "KernelEstimate",
    "parse_weight",
    "gram_matrix",
    "kernel_diag",
    "least_norm_extension",
    "suita_ratio",
    "extended_suita_check",
    "kernel_record",
    "default_basis",
]

_LOG_2PI = math.log(2.0 * math.pi)
# the largest halved-basis change of a kernel diagonal (kernel_diag)
_TRUNC_TOL = 1e-6
# the allowed overshoot of c^2/(pi K) <= 1 (suita_ratio)
_RATIO_TOL = 1e-6
# the allowed negative margin of pi rho K - c^2 >= 0 (extended_suita_check)
_MARGIN_TOL = 1e-9
# the smallest normal float: e^t and e^-t are both normal for |t| <= -log of it
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)


# ---------------------------------------------------------------------------
# Weight specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unweighted:
    """Density ``rho = 1``."""

    radial: ClassVar[bool] = True

    def density(self, z):
        return np.ones(np.shape(z))


@dataclass(frozen=True)
class HarmonicLog:
    """Harmonic weight ``h = alpha log|z|``, density ``rho = |z|^(-2 alpha)``."""

    alpha: float
    radial: ClassVar[bool] = True

    def density(self, z):
        return np.abs(np.asarray(z, dtype=complex)) ** (-2.0 * self.alpha)


@dataclass(frozen=True)
class MaxPiece:
    """Density ``exp(-phi)``, ``phi = (1+delta) max(log|z|^2, log a^2)``."""

    delta: float
    a: float
    radial: ClassVar[bool] = True

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise DomainError("MaxPiece requires delta > 0")
        if not (0.0 < self.a < 1.0):
            raise DomainError("MaxPiece requires 0 < a < 1")

    def density(self, z):
        s = np.abs(np.asarray(z, dtype=complex))
        phi = 2.0 * (1.0 + self.delta) * np.log(np.maximum(s, self.a))
        return np.exp(-phi)


@dataclass(frozen=True)
class HarmonicRe:
    """Harmonic weight ``h = c Re z``, density ``rho = exp(-2 c Re z)``."""

    c: float
    radial: ClassVar[bool] = False

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(-2.0 * self.c * z.real)


WeightSpec = Unweighted | HarmonicLog | MaxPiece | HarmonicRe


def parse_weight(spec: str) -> WeightSpec:
    """Weight from its spec: ``none`` | ``harmoniclog:alpha`` |
    ``harmonicre:c`` | ``maxpiece:delta:a``.

    Raises :class:`DomainError` naming the spec when it is malformed.
    """
    kind, _, rest = str(spec).partition(":")
    try:
        if kind in ("none", "unweighted"):
            return Unweighted()
        if kind == "harmoniclog":
            return HarmonicLog(float(rest))
        if kind == "harmonicre":
            return HarmonicRe(float(rest))
        if kind == "maxpiece":
            d, _, a = rest.partition(":")
            return MaxPiece(float(d), float(a))
    except (ValueError, DomainError) as exc:
        raise DomainError(f"bad weight spec {spec!r}: {exc}") from exc
    raise DomainError(
        f"bad weight spec {spec!r} (use none | harmoniclog:a | harmonicre:c | maxpiece:d:a)"
    )


# ---------------------------------------------------------------------------
# Radial moments, in log space
# ---------------------------------------------------------------------------


def _log_power_integrals(p: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``log integral_lo^hi s^(p-1) ds`` for each exponent in ``p`` and
    ``0 <= lo < hi``; exact branches.

    Raises :class:`DivergentIntegralError` when an integral diverges at 0.
    """
    p = np.asarray(p, dtype=float)
    if lo == 0.0:
        if np.any(p <= 0.0):
            raise DivergentIntegralError("radial integral diverges at the origin")
        return p * math.log(hi) - np.log(p)
    out = np.empty_like(p)
    zero, pos, neg = p == 0.0, p > 0.0, p < 0.0
    out[zero] = math.log(math.log(hi / lo))
    # p > 0: (hi^p - lo^p)/p
    pp = p[pos]
    out[pos] = pp * math.log(hi) + _log1m_power(lo / hi, pp) - np.log(pp)
    # p < 0: (lo^p - hi^p)/(-p)
    pn = p[neg]
    out[neg] = pn * math.log(lo) + _log1m_power(hi / lo, pn) - np.log(-pn)
    return out


def _log1m_power(base: float, q: np.ndarray) -> np.ndarray:
    """``log(1 - base**q)`` for exponents ``q`` with ``base**q < 1``, as
    ``log(-expm1(q log base))`` (M. Maechler, *Accurately computing
    log(1 - exp(-|a|))*, 2012), which keeps the digits that ``1 -
    base**q`` cancels where ``q log base`` is near 0 (a mode near ``p =
    0``, as ``alpha`` nears an integer)."""
    return np.log(-np.expm1(q * math.log(base)))


def log_radial_moments(
    domain: PlanarDomain, weight: WeightSpec, ns: np.ndarray
) -> np.ndarray:
    """``log`` of ``integral_Omega |z|^{2n} rho dLambda`` for each ``n`` in
    ``ns``, for radial weights.

    The moment equals ``2 pi integral_lo^hi s^{2n+1} rho(s) ds``.
    """
    if isinstance(domain, Disc):
        lo, hi = 0.0, domain.radius
    elif isinstance(domain, Annulus):
        lo, hi = domain.r_inner, 1.0
    else:
        raise DomainError("closed-form moments need a disc or annulus")

    ns = np.asarray(ns)
    if isinstance(weight, Unweighted):
        return _LOG_2PI + _log_power_integrals(2 * ns + 2, lo, hi)
    if isinstance(weight, HarmonicLog):
        return _LOG_2PI + _log_power_integrals(2 * ns + 2 - 2 * weight.alpha, lo, hi)
    if isinstance(weight, MaxPiece):
        a, delta = weight.a, weight.delta
        pieces = []
        if lo < a:
            # inner: rho = a^(-2(1+delta)) constant
            pieces.append(
                -2.0 * (1.0 + delta) * math.log(a)
                + _log_power_integrals(2 * ns + 2, lo, min(a, hi))
            )
        if hi > a:
            # outer: rho = s^(-2(1+delta))
            pieces.append(_log_power_integrals(2 * ns - 2 * delta, max(lo, a), hi))
        if len(pieces) == 1:
            return _LOG_2PI + pieces[0]
        m = np.maximum(*pieces)
        return _LOG_2PI + m + np.log1p(np.exp(np.minimum(*pieces) - m))
    raise DomainError(f"no closed-form radial moment for {weight!r}")


# ---------------------------------------------------------------------------
# Basis ranges
# ---------------------------------------------------------------------------


def default_basis(domain: PlanarDomain) -> tuple[int, int]:
    """Default monomial index range: [0, 64] disc, [-64, 64] annulus."""
    if isinstance(domain, Annulus):
        return (-64, 64)
    return (0, 64)


def _modes(domain: PlanarDomain, basis: tuple[int, int] | None) -> np.ndarray:
    """The indices ``n`` of a basis range (:func:`default_basis` for
    ``None``), which must be nonempty and, on a disc, nonnegative."""
    n_min, n_max = default_basis(domain) if basis is None else basis
    if n_min > n_max:
        raise DomainError("basis range is empty")
    if isinstance(domain, Disc) and n_min < 0:
        raise DomainError("disc basis requires n_min >= 0")
    return np.arange(n_min, n_max + 1)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


# the largest log of a Gram entry, and the refusal beyond it
_EXP_MAX = 700.0
_RANGE_ERROR = (
    "Gram entries exceed the floating-point range; "
    "kernel_diag evaluates kernels in log space instead"
)


def gram_matrix(
    domain: PlanarDomain,
    weight: WeightSpec,
    basis: tuple[int, int] | None = None,
    gram_tol: float = 1e-16,
    quad_start: int = 64,
) -> np.ndarray:
    """Gram matrix of the monomials ``z^n`` for ``n`` in the basis range.

    Entry ``(m, n)`` is ``integral z^m conj(z)^n rho dLambda``.  Radial
    weights on disc/annulus give a diagonal matrix with closed-form
    moments.  ``gram_tol`` and ``quad_start`` are unused; they stay because
    ``benchmarks/spans.py`` keys traced calls on them by name.

    Raises :class:`DomainError` for a weight that is not radial (the
    kernel of ``HarmonicRe`` is taken in closed form by :func:`kernel_diag`,
    without a Gram matrix) and if a diagonal entry exceeds the float range
    (kernels are evaluated by :func:`kernel_diag` in log space instead).
    """
    ns = _modes(domain, basis)
    if not (isinstance(weight, WeightSpec) and weight.radial):
        raise DomainError(f"no Gram matrix for the non-radial weight {weight!r}")
    logs = log_radial_moments(domain, weight, ns)
    if np.max(logs) > _EXP_MAX:
        raise DomainError(_RANGE_ERROR)
    return np.diag(np.exp(logs))


# ---------------------------------------------------------------------------
# Kernel diagonal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelEstimate:
    """Kernel diagonal value with numerical quality indicators."""

    value: float
    basis_size: int
    truncation_error_estimate: float


def _log_powers(z: complex, ns: np.ndarray) -> np.ndarray:
    """``log |z^n|`` for each ``n`` in ``ns`` (at ``z = 0``, 0 for ``n = 0``
    and ``-inf`` otherwise)."""
    s = abs(z)
    if s == 0.0:
        return np.where(ns == 0, 0.0, -math.inf)
    return ns * math.log(s)


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -math.inf:
        return -math.inf
    return m + math.log(np.sum(np.exp(values - m)))


def _half_mask(ns: np.ndarray) -> np.ndarray:
    n_min, n_max = int(ns[0]), int(ns[-1])
    lo = n_min // 2 if n_min >= 0 else -((-n_min) // 2)
    hi = n_max // 2 if n_max >= 0 else -((-n_max) // 2)
    return (ns >= lo) & (ns <= hi)


# the relative tail the closed-form annulus kernel sums to (_closed_form_kernel)
_TAIL_TOL = 2.0**-60


def _closed_form_kernel(domain: PlanarDomain, weight: WeightSpec, z: complex) -> KernelEstimate:
    """Every mode of ``Unweighted`` or ``HarmonicLog(alpha)`` summed in
    closed form, with ``x = |z|^2``.

    On the unit disc the modes ``n >= 0`` sum to ``(1/(1 - x)^2 - alpha/(1 -
    x)) / pi``; on a disc of radius ``R``, ``z = R w`` maps it to the unit
    disc, so ``K_R(z) = R^(2 alpha - 2) K_1(z / R)``.  On the annulus ``r <
    |z| < 1``, ``q = r^2``, mode ``n`` is ``x^(alpha-1) x^p p / (1 - q^p) /
    pi`` with ``p = n + 1 - alpha``.  Expanding ``1/(1 - q^p)`` as a
    geometric series and summing over ``p`` first gives, with ``f(y, a) =
    sum_{m>=0} (a+m) y^(a+m) = y^a (a/(1-y) + y/(1-y)^2)``, the Lambert form

        pi K = x^(alpha-1) [g(p+) + g(-p-) + sum_{k>=0} f(x q^k, p+ + 1)
               + sum_{k>=1} f(q^k/x, p- + 1) + [p0 = 0] / (2 log(1/r))],

    where ``p+`` and ``-p-`` are the smallest positive and the largest
    negative exponent and ``g(p) = x^p p / (1 - q^p)`` are their modes, taken
    alone so that the series start at exponents of at least 1 whatever
    ``alpha`` is.  ``f(y q, a) <= q^a f(y, a)``, so each series falls at least
    geometrically with ratio ``q^a``; after its last term ``t`` the rest is
    at most ``t rho/(1 - rho)``.  That bound, relative to ``K``, is the
    reported truncation error, and the number of summed terms the basis size.
    ``1 - x`` is formed as ``(1 - |z|)(1 + |z|)`` (``(R - |z|)(R + |z|) /
    R^2`` on the disc) and ``1 - q/x`` as ``(|z| - r)(|z| + r)/x``, which
    keeps their relative accuracy near the circles.  A value that is not a
    normal float raises :class:`DomainError`.
    """
    alpha = weight.alpha if isinstance(weight, HarmonicLog) else 0.0
    radius = domain.radius if isinstance(domain, Disc) else 1.0
    lo = domain.r_inner if isinstance(domain, Annulus) else 0.0
    s = abs(z)
    if not (lo < s < radius or lo == 0.0 <= s < radius):
        raise DomainError(f"z = {z} is not inside {domain!r}")
    unit = s / radius  # |z / R|, a point of the unit disc
    x, outer = unit * unit, (radius - s) * (radius + s) / (radius * radius)
    if lo == 0.0:
        if alpha >= 1.0:
            raise DivergentIntegralError("radial integral diverges at the origin")
        value = (1.0 / outer - alpha) / outer / math.pi * radius ** (2.0 * alpha - 2.0)
        return _normal_kernel(KernelEstimate(value, 1, 0.0), weight, z)

    q, log_q = lo * lo, 2.0 * math.log(lo)
    p_pos = math.floor(alpha) + 1.0 - alpha  # in (0, 1]
    p_neg = alpha + 1.0 - math.ceil(alpha)  # in (0, 1]
    total = p_pos * x**p_pos / -math.expm1(p_pos * log_q)
    total += p_neg * (q / x) ** p_neg / -math.expm1(p_neg * log_q)
    integer = alpha == math.floor(alpha)  # p0 = 0 is an exponent
    if integer:
        total += 0.5 / -math.log(lo)
    # log rho is taken from log q: on thin annuli rho itself underflows to 0
    power = 1.0 + min(p_pos, p_neg)
    rho = q**power
    n_terms = math.ceil(math.log(_TAIL_TOL * (1.0 - rho)) / (power * log_q))
    k = np.arange(n_terms)
    tails = 0.0
    for y, a, near in (
        (x * q**k, p_pos + 1.0, outer),  # k >= 0
        (q ** (k + 1) / x, p_neg + 1.0, (s - lo) * (s + lo) / x),  # k >= 1
    ):
        om = 1.0 - y
        om[0] = near
        f = y**a * (a / om + y / (om * om))
        total += float(np.sum(f))
        ratio = q**a
        tails += float(f[-1]) * ratio / (1.0 - ratio)
    value = x ** (alpha - 1.0) * total / math.pi
    size = 2 + 2 * n_terms + integer
    return _normal_kernel(KernelEstimate(value, size, tails / total), weight, z)


def _normal_kernel(est: KernelEstimate, weight: WeightSpec, z: complex) -> KernelEstimate:
    """``est`` if its value is a normal float; :class:`DomainError` if not:
    a kernel diagonal is positive, so a 0 or a subnormal is an underflow."""
    if not _TINY <= est.value < math.inf:
        raise DomainError(
            f"K(z, z) at z = {z} for {weight!r} ({est.value!r}) leaves the floating-point range"
        )
    return est


def _harmonic_re_kernel(domain: PlanarDomain, weight: HarmonicRe, z: complex) -> KernelEstimate:
    """``K_rho(z, z) = e^{2 c Re z} K(z, z)`` for ``rho = e^{-2 c Re z}``, with
    ``K`` the unweighted closed form, whose term count and tail it reports.

    ``|f e^{-c z}|^2 = |f|^2 rho``, so ``f -> f e^{-c z}`` maps ``A^2(Omega,
    rho)`` isometrically onto ``A^2(Omega)`` and ``K_rho(z, w) = e^{c z} K(z,
    w) e^{c conj(w)}``.  Raises :class:`DomainError` where ``rho(z)`` or
    ``K_rho(z, z)`` is not a normal float: ``|2 c Re z|`` beyond ``-log`` of
    the smallest normal float, or the product out of range.
    """
    est = _closed_form_kernel(domain, Unweighted(), z)
    exponent = 2.0 * weight.c * complex(z).real
    value = est.value * math.exp(exponent) if abs(exponent) <= -_LOG_TINY else math.nan
    if not _TINY <= value < math.inf:
        raise DomainError(
            f"K_rho(z, z) = e^(2c Re z) K(z, z) at z = {z} with c = {weight.c!r} "
            f"(2c Re z = {exponent:.6g}) leaves the floating-point range"
        )
    return replace(est, value=value)


def kernel_diag(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    basis: tuple[int, int] | None = None,
) -> KernelEstimate:
    """Bergman kernel diagonal ``K(z, z)`` over the monomial basis span.

    Without ``basis``, ``Unweighted`` and ``HarmonicLog`` on discs and on
    annuli take every mode in closed form (:func:`_closed_form_kernel`),
    and ``HarmonicRe`` is that closed form times ``e^{2 c Re z}``
    (:func:`_harmonic_re_kernel`); ``MaxPiece`` uses :func:`default_basis`.
    Over a basis range the radial modes are summed in log space, and the
    truncation error estimate is the relative change when the range is
    halved toward zero.  :class:`TruncationError` is raised when the
    estimate exceeds ``_TRUNC_TOL``, and :class:`DomainError` for a
    non-radial weight over a basis range or off discs and annuli.
    """
    closed = basis is None and isinstance(domain, (Disc, Annulus))
    if closed and isinstance(weight, HarmonicRe):
        est = _harmonic_re_kernel(domain, weight, z)
    elif closed and isinstance(weight, (Unweighted, HarmonicLog)):
        est = _closed_form_kernel(domain, weight, z)
    elif not weight.radial:
        raise DomainError(
            f"no modal sum for the non-radial weight {weight!r}: its kernel is "
            "taken in closed form, without a basis range, on discs and annuli"
        )
    else:
        ns = _modes(domain, basis)
        lt = 2.0 * _log_powers(z, ns) - log_radial_moments(domain, weight, ns)
        log_k = _logsumexp(lt)
        if log_k == -math.inf:
            raise ZeroKernelError("kernel diagonal vanishes on this basis")
        value = math.exp(log_k)
        value_half = math.exp(_logsumexp(lt[_half_mask(ns)]))
        trunc = abs(value - value_half) / value if value > 0.0 else 0.0
        est = KernelEstimate(value, int(ns.size), trunc)
    _check_truncation(est.truncation_error_estimate)
    return est


def _check_truncation(trunc: float) -> None:
    if trunc > _TRUNC_TOL:
        raise TruncationError(
            f"basis truncation estimate {trunc:.3e} exceeds {_TRUNC_TOL:.3e}"
        )


# ---------------------------------------------------------------------------
# Least-norm extension
# ---------------------------------------------------------------------------


def least_norm_extension(
    domain: PlanarDomain,
    weight: WeightSpec,
    z0: complex,
    value: complex,
    basis: tuple[int, int] | None = None,
) -> tuple[float, np.ndarray]:
    """Least ``rho``-norm element of the basis span with ``F(z0) = value``.

    Returns ``(minimum of ||F||^2, coefficient vector)``.  The minimum is
    ``|value|^2 / K(z0, z0)`` and the minimizer is the normalized kernel
    section ``value K(., z0) / K(z0, z0)`` with coefficients
    ``value M^{-1} conj(b) / K``, ``M`` the diagonal Gram of a radial
    weight; a weight that is not radial raises :class:`DomainError`.
    """
    if not weight.radial:
        raise DomainError(
            f"no least-norm extension for the non-radial weight {weight!r}: "
            "it is solved over the orthogonal monomials of a radial weight"
        )
    ns = _modes(domain, basis)
    if value == 0:
        return 0.0, np.zeros(ns.size, dtype=complex)
    d = np.diag(gram_matrix(domain, weight, basis))
    b = np.asarray(z0, dtype=complex) ** ns
    kz = float(np.sum(np.abs(b) ** 2 / d))
    sol = np.conj(b) / d
    if kz <= 1e-300:
        raise ZeroKernelError("kernel diagonal vanishes at the prescribed point")
    coeffs = value * sol / kz
    return abs(value) ** 2 / kz, coeffs


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def kernel_record(domain: PlanarDomain, weight: WeightSpec, z: complex) -> ReportRecord:
    """Kernel diagonal ``K_rho(z, z)`` with its basis diagnostics; the
    record passes while the diagonal is finite."""
    est = kernel_diag(domain, weight, z)
    return make_record(
        quantities={
            "kernel_diag": est.value,
            "basis_size": est.basis_size,
            "truncation_error": est.truncation_error_estimate,
        },
        gates={"finite": (finite_margin(est.value), 0.0)},
        primary="kernel_diag",
        provenance={
            "kernel_diag": "kernel_diag",
            "basis_size": "kernel_diag",
            "truncation_error": "kernel_diag",
        },
    )


def suita_ratio(domain: PlanarDomain, z: complex) -> ReportRecord:
    """``c_beta(z)^2 / (pi K(z, z)) <= 1`` (overshoot up to ``_RATIO_TOL``)
    and ``> 0``: the ``suita-check`` record, with the ratio, the capacity
    and the kernel diagonal among its quantities.  The capacity is that of
    the domain's natural evaluator, the kernel the closed form of
    :func:`kernel_diag`.
    """
    cap = capacity(domain, z)
    est = kernel_diag(domain, Unweighted(), z)
    ratio = cap**2 / (math.pi * est.value)
    return make_record(
        quantities={
            "ratio": ratio,
            "capacity": cap,
            "kernel_diag": est.value,
        },
        gates={"upper": (1.0 - ratio, _RATIO_TOL), "positive": (ratio, 0.0)},
        primary="ratio",
        provenance={
            "ratio": "suita_ratio",
            "capacity": "capacity",
            "kernel_diag": "kernel_diag",
        },
    )


def extended_suita_check(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
) -> ReportRecord:
    """``pi rho(z) K_rho(z, z) - c_beta(z)^2 >= -_MARGIN_TOL``: the
    ``extended-suita-check`` record.

    ``weight`` must come from an exponent harmonic on ``domain``
    (``Unweighted``, ``HarmonicRe``, or ``HarmonicLog`` off the disc);
    ``MaxPiece`` is not of that form, and ``HarmonicLog(alpha)`` with
    ``alpha != 0`` has a pole at 0, inside a disc.  Every one takes the
    closed-form kernel of :func:`kernel_diag`; for ``HarmonicRe``, ``rho(z)
    K_rho(z, z) = K(z, z)``, so the margin is that of Suita's inequality,
    which holds with equality exactly on the disc.  For ``HarmonicLog``,
    :class:`DomainError` is raised where ``|2 alpha log|z||`` exceeds
    ``-log`` of the smallest normal float, as for ``HarmonicRe``.
    """
    if isinstance(weight, MaxPiece):
        raise DomainError("extended check requires a harmonic weight variant")
    if isinstance(weight, HarmonicLog) and weight.alpha != 0.0 and isinstance(domain, Disc):
        raise DomainError(
            f"extended check requires a weight harmonic on the domain: {weight!r} "
            "has a pole at 0, inside the disc"
        )
    cap = capacity(domain, z)
    est = kernel_diag(domain, weight, z)
    if isinstance(weight, HarmonicLog) and weight.alpha != 0.0:
        exponent = -2.0 * weight.alpha * math.log(abs(z))
        if abs(exponent) > -_LOG_TINY:
            raise DomainError(
                f"rho(z) = |z|^(-2 alpha) at z = {z} with alpha = {weight.alpha!r} "
                f"(-2 alpha log|z| = {exponent:.6g}) leaves the floating-point range"
            )
    rho = float(weight.density(np.asarray([z], dtype=complex))[0])
    margin = math.pi * rho * est.value - cap**2
    return make_record(
        quantities={
            "margin": margin,
            "capacity_sq": cap**2,
            "rho_at_z": rho,
            "weighted_kernel": est.value,
            "basis_size": est.basis_size,
            "truncation_error": est.truncation_error_estimate,
        },
        gates={"nonnegative": (margin, _MARGIN_TOL)},
        primary="margin",
        provenance={
            "margin": "extended_suita_check",
            "capacity_sq": "capacity",
            "rho_at_z": "extended_suita_check",
            "weighted_kernel": "kernel_diag",
            "basis_size": "kernel_diag",
            "truncation_error": "kernel_diag",
        },
    )
