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
``HarmonicRe`` solves a dense real symmetric system: its Gram matrix,
from the modified-Bessel expansion of its density (a series of one-signed
terms with a certified tail), is built Jacobi-scaled in log space, with
its underflowed tail dropped.

Norm convention: ``||f||^2 = integral |f|^2 rho dLambda`` (plain Lebesgue
area measure).  Under this convention the unweighted unit disc gives
``K(0,0) = 1/pi`` and the capacity/kernel comparison reads exactly
``c_beta(z)^2 <= pi K(z,z)``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .domains import Annulus, Disc, PlanarDomain, capacity
from .errors import (
    AccuracyError,
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
    "auto_basis",
]

_LOG_2PI = math.log(2.0 * math.pi)
# the relative truncation level half of an automatic basis reaches (auto_basis)
_BASIS_REL_TOL = 1e-7
# the largest halved-basis change of a kernel diagonal (kernel_diag)
_TRUNC_TOL = 1e-6
# the allowed overshoot of c^2/(pi K) <= 1 (suita_ratio)
_RATIO_TOL = 1e-6
# the allowed negative margin of pi rho K - c^2 >= 0 (extended_suita_check)
_MARGIN_TOL = 1e-9


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


def auto_basis(domain: PlanarDomain, z: complex) -> tuple[int, int]:
    """Index range making the kernel truncation at ``z`` negligible.

    Kernel terms decay like ``(|z|/R)^{2n} n`` for large positive ``n`` on a
    disc of radius ``R`` (``R = 1`` on an annulus) and like ``(r/|z|)^{2|n|}
    |n|`` for large negative ``n`` on an annulus.  The range
    is sized so that *half* of it already truncates at relative level
    ``_BASIS_REL_TOL``, which keeps the halved-range estimate reported by
    :func:`kernel_diag` comfortably below its gate while making the full
    range's own truncation negligible.
    """

    def n_for(q: float) -> int:
        if q <= 0.0 or q >= 1.0:
            return 64
        n = 64.0
        for _ in range(4):
            n = max(
                64.0,
                (math.log(_BASIS_REL_TOL) - 2.0 * math.log(n + 2.0)) / (2.0 * math.log(q)),
            )
        return int(math.ceil(n))

    s = abs(z)
    if isinstance(domain, Annulus):
        return (-2 * n_for(domain.r_inner / s), 2 * n_for(s))
    return (0, 2 * n_for(s / domain.radius))


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
# the relative series tail of the HarmonicRe Grams the solves read
_GRAM_TOL = 1e-16
# the most series terms a HarmonicRe Gram entry may take (_bessel_gram)
_SERIES_TERMS = 1000
# eps^2: Jacobi-scaled entries below it are set to 0 (_bessel_gram).  The
# dropped part E of an n x n matrix has ||E||_2 <= ||E||_F < n eps^2, so a
# solve moves by at most kappa n eps^2 relative, below 1.3e-19 at n = 257 for
# every kappa under the 1e10 warning, and by Weyl's inequality no eigenvalue
# moves by more than ||E||_2 (N. J. Higham, *Accuracy and Stability of
# Numerical Algorithms*, 2nd ed., 2002, ch. 7)
_DROP = 2.0**-104


def gram_matrix(
    domain: PlanarDomain,
    weight: WeightSpec,
    basis: tuple[int, int] | None = None,
    gram_tol: float = _GRAM_TOL,
    quad_start: int = 64,
) -> np.ndarray:
    """Gram matrix of the monomials ``z^n`` for ``n`` in the basis range.

    Entry ``(m, n)`` is ``integral z^m conj(z)^n rho dLambda``.  Radial
    weights on disc/annulus give a diagonal matrix with closed-form
    moments; ``HarmonicRe`` gives the dense real symmetric matrix ``corr
    d d^T`` of :func:`_bessel_gram`, whose series tail is certified at most
    ``gram_tol`` relative to every entry (the default is below a unit
    roundoff).  ``quad_start`` is unused; it stays because
    ``benchmarks/spans.py`` keys traced calls on it by name.

    Raises :class:`DomainError` for a weight outside :data:`WeightSpec`
    and if a diagonal entry exceeds the float range (kernels are evaluated
    by :func:`kernel_diag` in log space instead).
    """
    ns = _modes(domain, basis)
    if not isinstance(weight, WeightSpec):
        raise DomainError(f"no Gram matrix for the weight {weight!r}")
    if isinstance(weight, HarmonicRe):
        corr, log_d = _bessel_gram(domain, weight, ns, gram_tol)
        if 2.0 * np.max(log_d) > _EXP_MAX:
            raise DomainError(_RANGE_ERROR)
        d = np.exp(log_d)
        return corr * np.outer(d, d)
    logs = log_radial_moments(domain, weight, ns)
    if np.max(logs) > _EXP_MAX:
        raise DomainError(_RANGE_ERROR)
    return np.diag(np.exp(logs))


def _bessel_gram(
    domain: PlanarDomain, weight: HarmonicRe, ns: np.ndarray, gram_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi-scaled Gram ``(corr, log d)`` of ``HarmonicRe(c)`` from its
    Bessel moments: ``d = sqrt(diag G)`` and ``corr = G / (d d^T)``, built in
    log space without forming ``G``.

    ``e^{-2 c s cos t} = sum_k (-1)^k I_k(2 c s) e^{ikt}`` and the power
    series of ``I_k`` turn entry ``(m, n)`` of ``G`` on the unit disc or an
    annulus ``lo < |z| < 1`` into

        2 pi (-c)^k sum_j c^(2j) / (j! (j+k)!) L(2 (max(m, n) + 1 + j)),

    with ``k = |m - n|`` and ``L(p) = integral_lo^1 s^(p-1) ds``
    (``log(1/lo)`` at ``p = 0``).  The terms have one sign and ``L``
    decreases in ``p``, so term ``j + 1`` is at most ``rho_j = c^2 / ((j+1)
    (j+k+1))`` times term ``j``, and after terms ``0..J`` the tail is at most
    term ``J`` times ``rho_J / (1 - rho_J)``.  Relative to the entry, that
    bound is largest at ``k = 0``, where term ``J`` is at most ``c^(2J) /
    (J!)^2`` times term 0; ``J`` is the first index that takes it below
    ``gram_tol``.  On a disc of radius ``R`` the entry is ``R^(m+n+2)`` times
    the unit-disc entry at ``c R``.

    ``L(p) = lo^min(p, 0) L(|p|)``, so ``log L`` is ``min(p, 0) log lo`` plus
    a log of modest size from :func:`_log_power_integrals`; differences of
    ``log L`` are taken part by part, and neither ``lo^p`` nor a difference
    of large logs is formed.  Entry ``(m, n)`` is a cell ``(M, k)``, ``M =
    max(m, n)``, of one table ``T``: the Hankel matrix of ``L``, each row
    divided by its first moment ``L(2 (M + 1))`` (ratios at most 1), times
    the coefficients, those below the smallest normal float set to 0.  With
    ``l_n = log L(2 (n + 1))``, ``2 pi``, ``R^(m+n+2)`` and the row factors
    cancel in ``corr[m, n] = e^{-|l_m - l_n| / 2} T[M, k] / sqrt(T[m, 0]
    T[n, 0])``.  Its entries below ``_DROP`` (the far ones fall like ``c^k /
    k!``) are set to 0, since subnormal values slow every later LAPACK call.

    Raises :class:`AccuracyError` when ``c`` is not finite or the series
    needs more than ``_SERIES_TERMS`` terms.
    """
    if isinstance(domain, Disc):
        lo, radius = 0.0, domain.radius
    elif isinstance(domain, Annulus):
        lo, radius = domain.r_inner, 1.0
    else:
        raise DomainError("the HarmonicRe Gram needs a disc or annulus")
    c = weight.c * radius
    if not math.isfinite(c):
        raise AccuracyError(f"the HarmonicRe Gram series is undefined at c = {weight.c!r}")
    c2 = c * c
    last, n_terms = 1.0, 0  # term n_terms relative to term 0, at k = 0
    while not (c2 < (n_terms + 1) ** 2 and last * c2 / ((n_terms + 1) ** 2 - c2) <= gram_tol):
        n_terms += 1
        if n_terms > _SERIES_TERMS:
            raise AccuracyError(
                f"the HarmonicRe Gram series at c = {weight.c!r} needs more than "
                f"{_SERIES_TERMS} terms for gram_tol={gram_tol:.3e}"
            )
        last *= c2 / (n_terms * n_terms)

    size = ns.size
    # L(p) for p = 2 (M + 1 + j), M in the basis range and j <= J
    p = 2.0 * np.arange(ns[0] + 1, ns[-1] + n_terms + 2)
    low, log_l = np.minimum(p, 0.0), _log_power_integrals(np.abs(p), lo, 1.0)
    log_lo = math.log(lo) if lo > 0.0 else 0.0  # low = 0 on a disc

    def gap(a, b):  # log L(p[a]) - log L(p[b])
        return (low[a] - low[b]) * log_lo + (log_l[a] - log_l[b])

    # coeff[j, k] = (-c)^k c^(2j) / (j! (j+k)!), by recurrence in k, then j
    ks = np.arange(size)
    coeff = np.empty((n_terms + 1, size))
    coeff[0] = np.cumprod(np.concatenate(([1.0], -c / ks[1:])))
    for j in range(1, n_terms + 1):
        coeff[j] = coeff[j - 1] * (c2 / (j * (j + ks)))
    coeff[np.abs(coeff) < np.finfo(float).tiny] = 0.0
    table = np.exp(gap(ks[:, None] + np.arange(n_terms + 1), ks[:, None])) @ coeff
    root = np.sqrt(table[:, 0])  # table is [M - n_min, k]
    corr = table[np.maximum.outer(ks, ks), np.abs(ks[:, None] - ks)]
    corr *= np.exp(-0.5 * np.abs(gap(ks[:, None], ks))) / np.outer(root, root)
    corr[np.abs(corr) < _DROP] = 0.0
    log_n = low[:size] * log_lo + log_l[:size]
    log_d = 0.5 * (_LOG_2PI + log_n) + np.log(root) + (ns + 1.0) * math.log(radius)
    return corr, log_d


def _normalized_condition(corr: np.ndarray) -> float:
    """Condition number of the Jacobi-scaled matrix ``corr`` of
    :func:`_bessel_gram`.

    ``corr`` is real and exactly symmetric: the 2-norm condition is then
    ``max |lambda| / min |lambda|`` over the eigenvalues from ``eigvalsh``,
    which reads one triangle only.  For a diagonal Gram matrix the basis is
    orthogonal, per-mode solves are perfectly conditioned, and the
    normalized condition is exactly 1.  A condition above 1e10 triggers an
    ill-conditioning warning.
    """
    if np.all(corr == np.diag(np.diag(corr))):
        return 1.0
    # the spectrum of a symmetric permutation of corr, the same up to
    # rounding: in stride-31 order LAPACK's tridiagonal reduction (dsytrd)
    # took half the time it takes on the banded order of a Bessel-moment
    # Gram (3.6 against 7.7 ms at n = 257); why is not established
    order = np.argsort(np.arange(corr.shape[0]) % 31, kind="stable")
    lam = np.abs(np.linalg.eigvalsh(corr[np.ix_(order, order)]))
    with np.errstate(divide="ignore"):
        cond = float(lam.max() / lam.min())
    if cond > 1e10:
        warnings.warn(f"Gram matrix condition {cond:.3e} exceeds 1e10", RuntimeWarning)
    return cond


# ---------------------------------------------------------------------------
# Kernel diagonal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelEstimate:
    """Kernel diagonal value with numerical quality indicators."""

    value: float
    basis_size: int
    gram_condition: float
    truncation_error_estimate: float


def _log_powers(z: complex, ns: np.ndarray) -> np.ndarray:
    """``log |z^n|`` for each ``n`` in ``ns`` (at ``z = 0``, 0 for ``n = 0``
    and ``-inf`` otherwise)."""
    s = abs(z)
    if s == 0.0:
        return np.where(ns == 0, 0.0, -math.inf)
    return ns * math.log(s)


def _scaled_powers(z: complex, ns: np.ndarray, log_d: np.ndarray) -> np.ndarray:
    """``z^n / d_n`` as ``exp(n log|z| - log d_n) e^{i n arg z}``, which
    neither overflows nor underflows where the quotient does not."""
    return np.exp(_log_powers(z, ns) - log_d + 1j * ns * cmath.phase(z))


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -math.inf:
        return -math.inf
    return m + math.log(np.sum(np.exp(values - m)))


def _jacobi_solve(corr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``y`` solving ``corr y = rhs`` for the real symmetric ``corr`` of
    :func:`_bessel_gram` and a complex ``rhs``, by partial-pivoting LU
    (``numpy.linalg``) in real arithmetic, with the real and imaginary parts
    of ``rhs`` as two right-hand sides."""
    y = np.linalg.solve(corr, np.stack([rhs.real, rhs.imag], axis=-1))
    return y[:, 0] + 1j * y[:, 1]


def _dense_kernel_value(corr: np.ndarray, bd: np.ndarray) -> float:
    """``b^H G^{-1} b = (b/d)^H corr^{-1} (b/d)`` for ``bd = b / d``,
    through :func:`_jacobi_solve`."""
    return float(np.vdot(bd, _jacobi_solve(corr, bd)).real)


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
    keeps their relative accuracy near the circles.
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
        return KernelEstimate(value, 1, 1.0, 0.0)

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
    return KernelEstimate(value, size, 1.0, tails / total)


def kernel_diag(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    basis: tuple[int, int] | None = None,
    memo: dict | None = None,
) -> KernelEstimate:
    """Bergman kernel diagonal ``K(z, z)`` over the monomial basis span.

    Without ``basis``, ``Unweighted`` and ``HarmonicLog`` on discs and on
    annuli take every mode in closed form (:func:`_closed_form_kernel`);
    other weights use :func:`default_basis`.  Over a basis range, the
    truncation error estimate is the relative change when the range is
    halved toward zero.  :class:`TruncationError` is raised when the
    estimate exceeds ``_TRUNC_TOL``.

    A non-radial weight solves with the Jacobi-scaled Gram ``(corr, log
    d)`` of :func:`_bessel_gram`.  Calls that pass the same ``memo`` dict
    build it once per (domain, weight, basis) and share it and the
    condition of ``corr``; a build that raises stores nothing, so the next
    call tries again.
    """
    if (
        basis is None
        and isinstance(weight, (Unweighted, HarmonicLog))
        and isinstance(domain, (Disc, Annulus))
    ):
        est = _closed_form_kernel(domain, weight, z)
        _check_truncation(est.truncation_error_estimate)
        return est
    ns = _modes(domain, basis)
    half = _half_mask(ns)

    if weight.radial:
        lt = 2.0 * _log_powers(z, ns) - log_radial_moments(domain, weight, ns)
        log_k = _logsumexp(lt)
        if log_k == -math.inf:
            raise ZeroKernelError("kernel diagonal vanishes on this basis")
        value = math.exp(log_k)
        value_half = math.exp(_logsumexp(lt[half]))
        condition = 1.0
    else:
        memo = {} if memo is None else memo
        key = (domain, weight, (int(ns[0]), int(ns[-1])))
        if key not in memo:
            corr, log_d = _bessel_gram(domain, weight, ns, _GRAM_TOL)
            memo[key] = corr, log_d, _normalized_condition(corr)
        corr, log_d, condition = memo[key]
        bd = _scaled_powers(z, ns, log_d)
        value = _dense_kernel_value(corr, bd)
        value_half = _dense_kernel_value(corr[np.ix_(half, half)], bd[half])

    trunc = abs(value - value_half) / value if value > 0.0 else 0.0
    _check_truncation(trunc)
    return KernelEstimate(
        value=value,
        basis_size=int(ns.size),
        gram_condition=condition,
        truncation_error_estimate=trunc,
    )


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
    ``value M^{-1} conj(b) / K``.
    """
    ns = _modes(domain, basis)
    if value == 0:
        return 0.0, np.zeros(ns.size, dtype=complex)
    if weight.radial:
        d = np.diag(gram_matrix(domain, weight, basis))
        b = np.asarray(z0, dtype=complex) ** ns
        kz = float(np.sum(np.abs(b) ** 2 / d))
        sol = np.conj(b) / d
    else:
        corr, log_d = _bessel_gram(domain, weight, ns, _GRAM_TOL)
        _normalized_condition(corr)  # warns if ill-conditioned
        bd = _scaled_powers(z0, ns, log_d)
        y = _jacobi_solve(corr, bd)
        kz = float(np.vdot(bd, y).real)
        sol = np.conj(y) * np.exp(-log_d)
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
            "gram_condition": est.gram_condition,
            "truncation_error": est.truncation_error_estimate,
        },
        gates={"finite": (finite_margin(est.value), 0.0)},
        primary="kernel_diag",
        provenance={
            "kernel_diag": "kernel_diag",
            "basis_size": "kernel_diag",
            "gram_condition": "gram_matrix",
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
    if est.value <= 0.0:
        raise ZeroKernelError("kernel diagonal is not positive")
    ratio = cap**2 / (math.pi * est.value)
    return make_record(
        quantities={
            "ratio": ratio,
            "capacity": cap,
            "kernel_diag": est.value,
            "gram_condition": est.gram_condition,
        },
        gates={"upper": (1.0 - ratio, _RATIO_TOL), "positive": (ratio, 0.0)},
        primary="ratio",
        provenance={
            "ratio": "suita_ratio",
            "capacity": "capacity",
            "kernel_diag": "kernel_diag",
            "gram_condition": "gram_matrix",
        },
    )


def extended_suita_check(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    memo: dict | None = None,
) -> ReportRecord:
    """``pi rho(z) K_rho(z, z) - c_beta(z)^2 >= -_MARGIN_TOL``: the
    ``extended-suita-check`` record.

    ``weight`` must come from an exponent harmonic on ``domain``
    (``Unweighted``, ``HarmonicRe``, or ``HarmonicLog`` off the disc);
    ``MaxPiece`` is not of that form, and ``HarmonicLog(alpha)`` with
    ``alpha != 0`` has a pole at 0, inside a disc.  The radial weights take
    the closed-form kernel, ``HarmonicRe`` the dense Gram on
    :func:`auto_basis`; calls that pass the same ``memo`` share their dense
    Grams through :func:`kernel_diag`.
    """
    if isinstance(weight, MaxPiece):
        raise DomainError("extended check requires a harmonic weight variant")
    if isinstance(weight, HarmonicLog) and weight.alpha != 0.0 and isinstance(domain, Disc):
        raise DomainError(
            f"extended check requires a weight harmonic on the domain: {weight!r} "
            "has a pole at 0, inside the disc"
        )
    cap = capacity(domain, z)
    basis = auto_basis(domain, z) if isinstance(weight, HarmonicRe) else None
    est = kernel_diag(domain, weight, z, basis=basis, memo=memo)
    rho = float(weight.density(np.asarray([z], dtype=complex))[0])
    margin = math.pi * rho * est.value - cap**2
    return make_record(
        quantities={
            "margin": margin,
            "capacity_sq": cap**2,
            "rho_at_z": rho,
            "weighted_kernel": est.value,
            "basis_size": est.basis_size,
            "gram_condition": est.gram_condition,
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
            "gram_condition": "gram_matrix",
            "truncation_error": "kernel_diag",
        },
    )
