"""Weighted Bergman kernels on discs and annuli, and Suita's inequality.

Without a basis range, the kernel diagonal of ``Unweighted`` and
``HarmonicLog`` sums every mode in closed form, in logs: a rational function
on the disc, a Lambert series with a certified geometric tail on an annulus.
``HarmonicRe(c)`` is not radial, but ``f -> f e^{-c z}`` maps its space
isometrically onto the unweighted one, so its log kernel is the unweighted
one plus ``2 c Re z``.  Over a given basis range the radial modes, orthogonal
with closed-form moments, are summed in log space, so that very large bases
neither overflow nor underflow; that modal sum is the closed forms' oracle
and the route of ``MaxPiece``.  Suita's inequality and its extended form are
gated on ``log(pi rho K_rho) - 2 log c_beta``, which stays finite where the
values leave the float range.

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

from .domains import _MAX_TERMS, Annulus, Disc, PlanarDomain, exp_normal, green_evaluator
from .errors import (
    DivergentIntegralError,
    DomainError,
    NonConvergenceError,
    TruncationError,
    ZeroKernelError,
)
from .reports import ReportRecord, make_record

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

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
# the largest halved-basis change of a kernel diagonal (kernel_diag)
_TRUNC_TOL = 1e-6


# ---------------------------------------------------------------------------
# Weight specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unweighted:
    """Density ``rho = 1``."""

    radial: ClassVar[bool] = True

    def log_density(self, z):
        return np.zeros(np.shape(z))


@dataclass(frozen=True)
class HarmonicLog:
    """Harmonic weight ``h = alpha log|z|``, density ``rho = |z|^(-2 alpha)``."""

    alpha: float
    radial: ClassVar[bool] = True

    def __post_init__(self):
        _require_finite(self, self.alpha)

    def log_density(self, z):
        # alpha = 0 is rho = 1 also at z = 0, where log|z| is -inf
        s = np.abs(np.asarray(z, dtype=complex))
        return -2.0 * self.alpha * np.log(s) if self.alpha else np.zeros(s.shape)


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

    def log_density(self, z):
        s = np.abs(np.asarray(z, dtype=complex))
        return -2.0 * (1.0 + self.delta) * np.log(np.maximum(s, self.a))


@dataclass(frozen=True)
class HarmonicRe:
    """Harmonic weight ``h = c Re z``, density ``rho = exp(-2 c Re z)``."""

    c: float
    radial: ClassVar[bool] = False

    def __post_init__(self):
        _require_finite(self, self.c)

    def log_density(self, z):
        return -2.0 * self.c * np.asarray(z, dtype=complex).real


def _require_finite(weight, parameter: float) -> None:
    if not math.isfinite(parameter):
        raise DomainError(f"{weight!r} requires a finite parameter")


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
    """Kernel diagonal ``log K(z, z)`` with numerical quality indicators."""

    log_value: float
    basis_size: int
    truncation_error_estimate: float

    @property
    def value(self) -> float:
        """``K(z, z)``, or :class:`DomainError` where it is not a normal float."""
        return exp_normal(self.log_value, "K(z, z)")


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
    closed form, with ``x = |z|^2``, as ``log K``.

    On the unit disc the modes ``n >= 0`` sum to ``pi K = (1 - alpha (1 - x))
    / (1 - x)^2``; on a disc of radius ``R``, ``z = R w`` maps it to the unit
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
    A series that needs more than ``domains._MAX_TERMS`` terms, as next to
    ``r = 1``, raises :class:`NonConvergenceError` before any is formed.
    ``x``, ``q`` and ``q/x`` enter as logs and every bracketed term is at
    most about 1, so nothing over- or underflows where ``K`` leaves the float
    range; ``1 - x`` is formed as ``(1 - |z|)(1 + |z|)`` (``((R - |z|)/R)((R +
    |z|)/R)`` on the disc) and ``1 - q/x`` as ``((|z| - r)/|z|)((|z| +
    r)/|z|)``, which keeps their relative accuracy near the circles.
    """
    alpha = weight.alpha if isinstance(weight, HarmonicLog) else 0.0
    radius = domain.radius if isinstance(domain, Disc) else 1.0
    lo = domain.r_inner if isinstance(domain, Annulus) else 0.0
    s = abs(z)
    if not (lo < s < radius or lo == 0.0 <= s < radius):
        raise DomainError(f"z = {z} is not inside {domain!r}")
    outer = ((radius - s) / radius) * ((radius + s) / radius)
    if lo == 0.0:
        if alpha >= 1.0:
            raise DivergentIntegralError("radial integral diverges at the origin")
        log_pi_k = math.log1p(-alpha * outer) - 2.0 * math.log(outer)
        return KernelEstimate(log_pi_k + (2.0 * alpha - 2.0) * math.log(radius) - _LOG_PI, 1, 0.0)

    log_x, log_q = 2.0 * math.log(s), 2.0 * math.log(lo)
    p_pos = math.floor(alpha) + 1.0 - alpha  # in (0, 1]
    p_neg = alpha - (math.ceil(alpha) - 1.0)  # in (0, 1], exact for alpha > 0
    total = p_pos * math.exp(p_pos * log_x) / -math.expm1(p_pos * log_q)
    total += p_neg * math.exp(p_neg * (log_q - log_x)) / -math.expm1(p_neg * log_q)
    integer = alpha == math.floor(alpha)  # p0 = 0 is an exponent
    if integer:
        total += 0.5 / -math.log(lo)
    power = 1.0 + min(p_pos, p_neg)
    n_terms = math.ceil(math.log(-_TAIL_TOL * math.expm1(power * log_q)) / (power * log_q))
    if n_terms > _MAX_TERMS:
        raise NonConvergenceError(
            f"the annulus kernel at z = {z} needs {n_terms} Lambert terms in each series, "
            f"more than the cap of {_MAX_TERMS}"
        )
    k = np.arange(n_terms) * log_q
    tails = 0.0
    for log_y, a, near in (
        (log_x + k, p_pos + 1.0, outer),  # x q^k, k >= 0
        (log_q - log_x + k, p_neg + 1.0, ((s - lo) / s) * ((s + lo) / s)),  # q^k / x, k >= 1
    ):
        y = np.exp(log_y)
        om = 1.0 - y
        om[0] = near
        f = np.exp(a * log_y) * (a / om + y / (om * om))
        total += float(np.sum(f))
        ratio = math.exp(a * log_q)
        tails += float(f[-1]) * ratio / (1.0 - ratio)
    log_k = (alpha - 1.0) * log_x + math.log(total) - _LOG_PI
    return KernelEstimate(log_k, 2 + 2 * n_terms + integer, tails / total)


def _harmonic_re_kernel(domain: PlanarDomain, weight: HarmonicRe, z: complex) -> KernelEstimate:
    """``log K_rho(z, z) = 2 c Re z + log K(z, z)`` for ``rho = e^{-2 c Re
    z}``, ``K`` the unweighted closed form, whose term count and tail it
    reports: ``|f e^{-c z}|^2 = |f|^2 rho``, so ``f -> f e^{-c z}`` maps
    ``A^2(Omega, rho)`` isometrically onto ``A^2(Omega)``."""
    est = _closed_form_kernel(domain, Unweighted(), z)
    return replace(est, log_value=2.0 * weight.c * complex(z).real + est.log_value)


def kernel_diag(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    basis: tuple[int, int] | None = None,
) -> KernelEstimate:
    """Bergman kernel diagonal ``K(z, z)`` over the monomial basis span.

    Without ``basis``, ``Unweighted`` and ``HarmonicLog`` on discs and on
    annuli take every mode in closed form (:func:`_closed_form_kernel`),
    and ``HarmonicRe`` is that closed form plus ``2 c Re z`` in logs
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
        trunc = -math.expm1(_logsumexp(lt[_half_mask(ns)]) - log_k)
        est = KernelEstimate(log_k, int(ns.size), trunc)
    if est.truncation_error_estimate > _TRUNC_TOL:
        raise TruncationError(
            f"basis truncation estimate {est.truncation_error_estimate:.3e} exceeds {_TRUNC_TOL:.3e}"
        )
    return est


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
    """Kernel diagonal ``K_rho(z, z)`` with its basis diagnostics, ungated:
    :attr:`KernelEstimate.value` refuses a diagonal that is not a normal float."""
    est = kernel_diag(domain, weight, z)
    quantities = {
        "kernel_diag": est.value,
        "basis_size": est.basis_size,
        "truncation_error": est.truncation_error_estimate,
    }
    return make_record(
        quantities=quantities,
        gates={},
        primary="kernel_diag",
        provenance=dict.fromkeys(quantities, "kernel_diag"),
    )


# The tolerance of a Suita margin m = (log(pi K_rho) + log rho) - 2 log c_beta,
# in the rounding model of N. J. Higham (Accuracy and Stability of Numerical
# Algorithms, 2002, ch. 3), with L = max(1/(1 - r^2), |log c_beta|, |log pi
# K_rho|, |log rho|), r = 0 on a disc.  Each log is within 2 eps L: values
# formed from |z|, r and the weight in a few relative roundings carry eps,
# the factors 1 - y of the annulus series (y up to q = r^2 past their first
# terms) eps/(1 - q) each, and the sums that make each log, such as (alpha -
# 1) log x + log S - log pi or -log(1 - |z|^2) - (log|z|)^2 / log r, half an
# ulp of terms of about L.  The two additions of m add half an ulp of |log pi
# K_rho + log rho| <= 2 L and of |m|, near 0 where the gate binds: 7 eps L,
# taken as 8.  A 60-digit mpmath oracle reads at most 1.87 eps L at `all`'s
# and CI's points; from r = 0.9995 to 0.99999 the computed margins fall at
# most 0.83 eps/(1 - q) below 0.  The series stops short of K by at most its
# certified relative tail t, which lowers log K by at most t, so t is added.
_MARGIN_ULPS = 8.0


def _suita_record(domain: PlanarDomain, weight: WeightSpec, z: complex, primary: str) -> ReportRecord:
    """The record of ``c_beta(z)^2 <= pi rho(z) K_rho(z, z)``, gated in logs:
    ``margin = log(pi rho K_rho) - 2 log c_beta >= -tol``, ``ratio`` its
    exponential ``c_beta^2 / (pi rho K_rho)``.  ``log c_beta`` is the Robin
    constant of the domain's natural evaluator, ``K_rho`` the closed form of
    :func:`kernel_diag`, ``log rho`` the weight's exponent; none of them is
    exponentiated, so a point where ``c_beta``, ``rho`` or ``K_rho`` leaves
    the float range still gets a margin."""
    log_cap = green_evaluator(domain).robin(z)
    est = kernel_diag(domain, weight, z)
    log_rho = float(weight.log_density(z))
    log_pi_kernel = _LOG_PI + est.log_value
    margin = log_pi_kernel + log_rho - 2.0 * log_cap
    q = domain.r_inner**2 if isinstance(domain, Annulus) else 0.0
    scale = max(1.0 / (1.0 - q), abs(log_cap), abs(log_pi_kernel), abs(log_rho))
    tol = _MARGIN_ULPS * sys.float_info.epsilon * scale + est.truncation_error_estimate
    return make_record(
        quantities={
            "margin": margin,
            "ratio": math.exp(-margin),
            "log_capacity": log_cap,
            "log_rho": log_rho,
            "log_kernel": est.log_value,
            "basis_size": est.basis_size,
            "truncation_error": est.truncation_error_estimate,
        },
        gates={"upper": (margin, tol)},
        primary=primary,
        provenance={
            "margin": "_suita_record", "ratio": "_suita_record", "log_capacity": "robin",
            "log_rho": "log_density", "log_kernel": "kernel_diag", "basis_size": "kernel_diag",
            "truncation_error": "kernel_diag",
        },
    )


def suita_ratio(domain: PlanarDomain, z: complex) -> ReportRecord:
    """Suita's inequality ``c_beta(z)^2 <= pi K(z, z)``: the ``suita-check``
    record, :func:`_suita_record` with ``rho = 1``, its primary the ratio
    ``c_beta^2 / (pi K)``, which is 1 on a disc and below 1 on an annulus."""
    return _suita_record(domain, Unweighted(), z, "ratio")


def extended_suita_check(domain: PlanarDomain, weight: WeightSpec, z: complex) -> ReportRecord:
    """The extended Suita inequality ``c_beta(z)^2 <= pi rho(z) K_rho(z,
    z)``: the ``extended-suita-check`` record, :func:`_suita_record` with
    the margin as its primary.  ``weight`` must come from an exponent
    harmonic on ``domain``: ``MaxPiece`` does not, and ``HarmonicLog(alpha)``
    with ``alpha != 0`` has a pole at 0, inside a disc.  For ``HarmonicRe``,
    ``rho K_rho = K``: Suita's margin, 0 exactly on the disc."""
    if isinstance(weight, MaxPiece):
        raise DomainError("extended check requires a harmonic weight variant")
    if isinstance(weight, HarmonicLog) and weight.alpha != 0.0 and isinstance(domain, Disc):
        raise DomainError(
            f"extended check requires a weight harmonic on the domain: {weight!r} "
            "has a pole at 0, inside the disc"
        )
    return _suita_record(domain, weight, z, "margin")
