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
``HarmonicRe`` builds a dense real Gram matrix from the modified-Bessel
expansion of its density, a series of one-signed terms with a certified
tail, and solves a Jacobi-scaled symmetric system.

Norm convention: ``||f||^2 = integral |f|^2 rho dLambda`` (plain Lebesgue
area measure).  Under this convention the unweighted unit disc gives
``K(0,0) = 1/pi`` and the capacity/kernel comparison reads exactly
``c_beta(z)^2 <= pi K(z,z)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .domains import (
    Annulus,
    Disc,
    GreenEvaluator,
    PlanarDomain,
    capacity,
)
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
    "weight_phi",
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
    """Density ``rho = scale`` (constant; scale defaults to 1)."""

    scale: float = 1.0
    radial: ClassVar[bool] = True

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, self.scale, dtype=float)


@dataclass(frozen=True)
class HarmonicLog:
    """Harmonic weight ``h = alpha log|z|``, density ``rho = |z|^(-2 alpha)``."""

    alpha: float
    scale: float = 1.0
    radial: ClassVar[bool] = True

    def density(self, z):
        return self.scale * np.abs(np.asarray(z, dtype=complex)) ** (-2.0 * self.alpha)


@dataclass(frozen=True)
class MaxPiece:
    """Density ``exp(-phi)``, ``phi = (1+delta) max(log|z|^2, log a^2)``."""

    delta: float
    a: float
    scale: float = 1.0
    radial: ClassVar[bool] = True

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise DomainError("MaxPiece requires delta > 0")
        if not (0.0 < self.a < 1.0):
            raise DomainError("MaxPiece requires 0 < a < 1")

    def density(self, z):
        s = np.abs(np.asarray(z, dtype=complex))
        phi = 2.0 * (1.0 + self.delta) * np.log(np.maximum(s, self.a))
        return self.scale * np.exp(-phi)


@dataclass(frozen=True)
class HarmonicRe:
    """Harmonic weight ``h = c Re z``, density ``rho = exp(-2 c Re z)``."""

    c: float
    scale: float = 1.0
    radial: ClassVar[bool] = False

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return self.scale * np.exp(-2.0 * self.c * z.real)


WeightSpec = Unweighted | HarmonicLog | MaxPiece | HarmonicRe


def weight_phi(weight: WeightSpec, z):
    """Exponent ``phi`` with ``rho = exp(-phi)`` (so ``phi = 2h`` when the
    weight comes from a harmonic ``h``)."""
    with np.errstate(divide="ignore"):
        return -np.log(weight.density(z))


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


# beyond this |log| a power underflows to exactly 0.0 (e^-750 < 2^-1075)
_UNDERFLOW_LOG = 750.0


def _log1m_power(base: float, q: np.ndarray) -> np.ndarray:
    """``log1p(-base**q)`` for exponents ``q`` with ``base**q < 1``.

    Where ``|q log base| > _UNDERFLOW_LOG`` the power is exactly 0.0 and the
    result is ``log1p(-0.0) = -0.0``, which is written without calling
    ``pow``: underflowing powers take libm's slow path.
    """
    near = np.abs(q) <= _UNDERFLOW_LOG / abs(math.log(base))
    out = np.full_like(q, -0.0)
    out[near] = np.log1p(-(base ** q[near]))
    return out


def log_radial_moments(
    domain: PlanarDomain, weight: WeightSpec, ns: np.ndarray
) -> np.ndarray:
    """``log`` of ``integral_Omega |z|^{2n} rho dLambda`` for each ``n`` in
    ``ns``, for radial weights.

    The moment equals ``2 pi integral_lo^hi s^{2n+1} rho(s) ds``.
    """
    if isinstance(domain, Disc):
        if domain.radius != 1.0:
            raise DomainError("closed-form moments assume the unit disc")
        lo, hi = 0.0, 1.0
    elif isinstance(domain, Annulus):
        lo, hi = domain.r_inner, 1.0
    else:
        raise DomainError("closed-form moments need a disc or annulus")

    ns = np.asarray(ns)
    base = _LOG_2PI + math.log(getattr(weight, "scale", 1.0))
    if isinstance(weight, Unweighted):
        return base + _log_power_integrals(2 * ns + 2, lo, hi)
    if isinstance(weight, HarmonicLog):
        return base + _log_power_integrals(2 * ns + 2 - 2 * weight.alpha, lo, hi)
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
            return base + pieces[0]
        m = np.maximum(*pieces)
        return base + m + np.log1p(np.exp(np.minimum(*pieces) - m))
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

    Kernel terms decay like ``|z|^{2n} n`` for large positive ``n`` and like
    ``(r/|z|)^{2|n|} |n|`` for large negative ``n`` on an annulus.  The range
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
    return (0, 2 * n_for(s))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


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
    moments; ``HarmonicRe`` gives a dense real symmetric matrix from the
    series of :func:`_bessel_gram`, whose tail is certified at most
    ``gram_tol`` relative to every entry (the default is below a unit
    roundoff).  ``quad_start`` is unused; it stays because
    ``benchmarks/spans.py`` keys traced calls on it by name.

    Raises :class:`DomainError` for a weight outside :data:`WeightSpec`
    and if an entry exceeds the float range (radial kernels are
    evaluated by :func:`kernel_diag` in log space instead).
    """
    if basis is None:
        basis = default_basis(domain)
    n_min, n_max = basis
    if n_min > n_max:
        raise DomainError("basis range is empty")
    if isinstance(domain, Disc) and n_min < 0:
        raise DomainError("disc basis requires n_min >= 0")
    if not isinstance(weight, WeightSpec):
        raise DomainError(f"no Gram matrix for the weight {weight!r}")
    ns = np.arange(n_min, n_max + 1)

    if isinstance(weight, HarmonicRe):
        return _bessel_gram(domain, weight, ns, gram_tol)
    logs = log_radial_moments(domain, weight, ns)
    if np.max(logs) > _EXP_MAX:
        raise DomainError(_RANGE_ERROR)
    return np.diag(np.exp(logs))


# the largest log of a Gram entry, and the refusal beyond it
_EXP_MAX = 700.0
_RANGE_ERROR = (
    "Gram entries exceed the floating-point range; "
    "kernel_diag evaluates radial kernels in log space instead"
)
# the most series terms a HarmonicRe Gram entry may take (_bessel_gram)
_SERIES_TERMS = 1000


def _bessel_gram(
    domain: PlanarDomain, weight: HarmonicRe, ns: np.ndarray, gram_tol: float
) -> np.ndarray:
    """Real symmetric Gram of ``HarmonicRe(c)`` from its Bessel moments.

    ``e^{-2 c s cos t} = sum_k (-1)^k I_k(2 c s) e^{ikt}`` and the power
    series of ``I_k`` turn entry ``(m, n)`` on the unit disc or an annulus
    ``lo < |z| < 1`` into

        2 pi scale (-c)^k sum_j c^(2j) / (j! (j+k)!) L(2 (max(m, n) + 1 + j)),

    with ``k = |m - n|`` and ``L(p) = integral_lo^1 s^(p-1) ds``
    (``log(1/lo)`` at ``p = 0``).  The terms have one sign and ``L``
    decreases in ``p``, so term ``j + 1`` is at most ``rho_j = c^2 / ((j+1)
    (j+k+1))`` times term ``j``, and after terms ``0..J`` the tail is at most
    term ``J`` times ``rho_J / (1 - rho_J)``.  Relative to the entry, that
    bound is largest at ``k = 0``, where term ``J`` is at most ``c^(2J) /
    (J!)^2`` times term 0; ``J`` is the first index that takes it below
    ``gram_tol``.  On a disc of radius ``R`` the entry is ``R^(m+n+2)`` times
    the unit-disc entry at ``c R``.  Every entry is a cell ``(max(m, n),
    |m - n|)`` of one table, a product of the Hankel matrix of ``L`` and the
    coefficients; entries below the smallest normal float are set to 0,
    since subnormal operands slow the later solves.

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
    # L(2 (M + 1 + j)) for every M + j, M in the basis range and j <= J
    p = 2.0 * np.arange(ns[0] + 1, ns[-1] + n_terms + 2)
    if lo > 0.0 and p[0] * math.log(lo) > _EXP_MAX:
        raise DomainError(_RANGE_ERROR)
    power = np.full(p.shape, -math.log(lo) if lo > 0.0 else math.inf)
    nonzero = p != 0.0
    power[nonzero] = (1.0 - lo ** p[nonzero]) / p[nonzero]
    # coeff[j, k] = (-c)^k c^(2j) / (j! (j+k)!), by recurrence in k, then j
    ks = np.arange(size)
    coeff = np.empty((n_terms + 1, size))
    coeff[0] = np.cumprod(np.concatenate(([1.0], -c / ks[1:])))
    for j in range(1, n_terms + 1):
        coeff[j] = coeff[j - 1] * (c2 / (j * (j + ks)))
    tiny = np.finfo(float).tiny
    coeff[np.abs(coeff) < tiny] = 0.0
    hankel = power[ks[:, None] + np.arange(n_terms + 1)]
    table = (2.0 * math.pi * weight.scale) * (hankel @ coeff)  # [M - n_min, k]
    table[np.abs(table) < tiny] = 0.0
    gram = table[np.maximum.outer(ks, ks), np.abs(ks[:, None] - ks)]
    if radius != 1.0:
        gram *= np.outer(radius ** (ns + 1.0), radius ** (ns + 1.0))
    return gram


def _is_diagonal(gram: np.ndarray) -> bool:
    return bool(np.all(gram == np.diag(np.diag(gram))))


def _normalized_condition(gram: np.ndarray) -> float:
    """Condition number of the Jacobi-normalized (correlation) matrix.

    ``gram`` must be exactly symmetric (real) or Hermitian (complex), as
    every Gram builder returns it: the 2-norm condition is then
    ``max |lambda| / min |lambda|`` over the eigenvalues from ``eigvalsh``,
    which reads one triangle only.  For a diagonal Gram matrix the basis is
    orthogonal, per-mode solves are perfectly conditioned, and the
    normalized condition is exactly 1.  A condition above 1e10 triggers an
    ill-conditioning warning.
    """
    if _is_diagonal(gram):
        return 1.0
    d = np.sqrt(np.abs(np.diag(gram)))
    corr = gram / np.outer(d, d)
    lam = np.abs(np.linalg.eigvalsh(corr))
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


def _log_kernel_terms(
    domain: PlanarDomain, weight: WeightSpec, z: complex, ns: np.ndarray
) -> np.ndarray:
    """``log`` of the per-mode kernel terms ``|z|^{2n} / gram_nn``."""
    logs = log_radial_moments(domain, weight, ns)
    s = abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = math.log(s) if s > 0.0 else -math.inf
        lt = 2.0 * ns * logz - logs
        if s == 0.0:
            lt = np.where(ns == 0, -logs, -math.inf)
    return lt


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -math.inf:
        return -math.inf
    return m + math.log(np.sum(np.exp(values - m)))


def _jacobi_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(y, d)`` with ``gram^{-1} rhs = y / d``: ``y`` solves the
    Jacobi-scaled system ``(gram / d d^T) y = rhs / d``, whose unit diagonal
    keeps modes of very different norms equally accurate.  The system is
    symmetric or Hermitian; it is solved by partial-pivoting LU
    (``numpy.linalg``), on a real Gram in real arithmetic, with the real and
    imaginary parts of a complex ``rhs`` as two right-hand sides."""
    d = np.sqrt(np.abs(np.diag(gram)).real)
    corr = gram / np.outer(d, d)
    rhs = rhs / d
    if np.isrealobj(corr) and np.iscomplexobj(rhs):
        y = np.linalg.solve(corr, np.stack([rhs.real, rhs.imag], axis=-1))
        return y[:, 0] + 1j * y[:, 1], d
    return np.linalg.solve(corr, rhs), d


def _dense_kernel_value(gram: np.ndarray, b: np.ndarray) -> float:
    """``b^H gram^{-1} b`` through :func:`_jacobi_solve`."""
    y, d = _jacobi_solve(gram, b)
    return float(np.vdot(b / d, y).real)


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
    x)) / (pi scale)``.  On the annulus ``r < |z| < 1``, ``q = r^2``, mode ``n``
    is ``x^(alpha-1) x^p p / (1 - q^p) / (pi scale)`` with ``p = n + 1 -
    alpha``.  Expanding ``1/(1 - q^p)`` as a geometric series and summing
    over ``p`` first gives, with ``f(y, a) = sum_{m>=0} (a+m) y^(a+m) =
    y^a (a/(1-y) + y/(1-y)^2)``, the Lambert form

        pi scale K = x^(alpha-1) [g(p+) + g(-p-) + sum_{k>=0} f(x q^k, p+ + 1)
                     + sum_{k>=1} f(q^k/x, p- + 1) + [p0 = 0] / (2 log(1/r))],

    where ``p+`` and ``-p-`` are the smallest positive and the largest
    negative exponent and ``g(p) = x^p p / (1 - q^p)`` are their modes, taken
    alone so that the series start at exponents of at least 1 whatever
    ``alpha`` is.  ``f(y q, a) <= q^a f(y, a)``, so each series falls at least
    geometrically with ratio ``q^a``; after its last term ``t`` the rest is
    at most ``t rho/(1 - rho)``.  That bound, relative to ``K``, is the
    reported truncation error, and the number of summed terms the basis size.
    ``1 - x`` is formed as ``(1 - |z|)(1 + |z|)`` and ``1 - q/x`` as ``(|z| -
    r)(|z| + r)/x``, which keeps their relative accuracy near the circles.
    """
    if isinstance(domain, Disc) and domain.radius != 1.0:
        raise DomainError("closed-form moments assume the unit disc")
    alpha = weight.alpha if isinstance(weight, HarmonicLog) else 0.0
    s = abs(z)
    lo = domain.r_inner if isinstance(domain, Annulus) else 0.0
    if not (lo < s < 1.0 or lo == 0.0 <= s < 1.0):
        raise DomainError(f"z = {z} is not inside {domain!r}")
    x, outer = s * s, (1.0 - s) * (1.0 + s)
    norm = math.pi * weight.scale
    if lo == 0.0:
        if alpha >= 1.0:
            raise DivergentIntegralError("radial integral diverges at the origin")
        return KernelEstimate((1.0 / outer - alpha) / outer / norm, 1, 1.0, 0.0)

    q, log_q = lo * lo, 2.0 * math.log(lo)
    p_pos = math.floor(alpha) + 1.0 - alpha  # in (0, 1]
    p_neg = alpha + 1.0 - math.ceil(alpha)  # in (0, 1]
    total = p_pos * x**p_pos / -math.expm1(p_pos * log_q)
    total += p_neg * (q / x) ** p_neg / -math.expm1(p_neg * log_q)
    integer = alpha == math.floor(alpha)  # p0 = 0 is an exponent
    if integer:
        total += 0.5 / -math.log(lo)
    rho = q ** (1.0 + min(p_pos, p_neg))
    n_terms = math.ceil(math.log(_TAIL_TOL * (1.0 - rho)) / math.log(rho))
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
    value = x ** (alpha - 1.0) * total / norm
    size = 2 + 2 * n_terms + integer
    return KernelEstimate(value, size, 1.0, tails / total)



def kernel_diag(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    basis: tuple[int, int] | None = None,
    trunc_tol: float | None = None,
    memo: dict | None = None,
) -> KernelEstimate:
    """Bergman kernel diagonal ``K(z, z)`` over the monomial basis span.

    Without ``basis``, ``Unweighted`` and ``HarmonicLog`` on the unit disc
    and on annuli take every mode in closed form
    (:func:`_closed_form_kernel`); other weights use :func:`default_basis`.
    Over a basis range, the truncation error estimate is the relative
    change when the range is halved toward zero.  :class:`TruncationError`
    is raised when the estimate exceeds ``trunc_tol`` (``_TRUNC_TOL``
    unless given).

    Calls that pass the same ``memo`` dict build the dense Gram of each
    (domain, weight, basis), and its normalized condition, once and share
    them; a build that raises stores nothing, so the next call tries again.
    """
    if trunc_tol is None:
        trunc_tol = _TRUNC_TOL
    if (
        basis is None
        and isinstance(weight, (Unweighted, HarmonicLog))
        and isinstance(domain, (Disc, Annulus))
    ):
        est = _closed_form_kernel(domain, weight, z)
        _check_truncation(est.truncation_error_estimate, trunc_tol)
        return est
    if basis is None:
        basis = default_basis(domain)
    n_min, n_max = basis
    if isinstance(domain, Disc) and n_min < 0:
        raise DomainError("disc basis requires n_min >= 0")
    ns = np.arange(n_min, n_max + 1)
    half = _half_mask(ns)

    if weight.radial and isinstance(domain, (Disc, Annulus)):
        lt = _log_kernel_terms(domain, weight, z, ns)
        log_k = _logsumexp(lt)
        if log_k == -math.inf:
            raise ZeroKernelError("kernel diagonal vanishes on this basis")
        value = math.exp(log_k)
        value_half = math.exp(_logsumexp(lt[half]))
        condition = 1.0
    else:
        memo = {} if memo is None else memo
        key = (domain, weight, (n_min, n_max))
        if key not in memo:
            gram = gram_matrix(domain, weight, basis)
            memo[key] = gram, _normalized_condition(gram)
        gram, condition = memo[key]
        b = np.asarray(z, dtype=complex) ** ns
        value = _dense_kernel_value(gram, b)
        value_half = _dense_kernel_value(gram[np.ix_(half, half)], b[half])

    trunc = abs(value - value_half) / value if value > 0.0 else 0.0
    _check_truncation(trunc, trunc_tol)
    return KernelEstimate(
        value=value,
        basis_size=int(ns.size),
        gram_condition=condition,
        truncation_error_estimate=trunc,
    )


def _check_truncation(trunc: float, trunc_tol: float) -> None:
    if trunc > trunc_tol:
        raise TruncationError(
            f"basis truncation estimate {trunc:.3e} exceeds trunc_tol={trunc_tol:.3e}"
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
    if basis is None:
        basis = default_basis(domain)
    ns = np.arange(basis[0], basis[1] + 1)
    if value == 0:
        return 0.0, np.zeros(ns.size, dtype=complex)
    gram = gram_matrix(domain, weight, basis)
    b = np.asarray(z0, dtype=complex) ** ns
    if _is_diagonal(gram):
        d = np.diag(gram).real
        kz = float(np.sum(np.abs(b) ** 2 / d))
        sol = np.conj(b) / d
    else:
        _normalized_condition(gram)  # warns if ill-conditioned
        y, d = _jacobi_solve(gram, np.conj(b))
        sol = y / d
        kz = _dense_kernel_value(gram, b)
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
        command="bergman",
        input_id=f"{domain!r} {weight!r} z={z}",
        inputs={"domain": repr(domain), "weight": repr(weight), "z": z},
        quantities={
            "kernel_diag": est.value,
            "basis_size": est.basis_size,
            "gram_condition": est.gram_condition,
            "truncation_error": est.truncation_error_estimate,
        },
        margins={"finite": finite_margin(est.value)},
        tolerances={"finite": 0.0},
        primary="kernel_diag",
        provenance={
            "kernel_diag": "kernel_diag",
            "basis_size": "kernel_diag",
            "gram_condition": "gram_matrix",
            "truncation_error": "kernel_diag",
        },
    )


def suita_ratio(
    domain: PlanarDomain,
    z: complex,
    basis: tuple[int, int] | None = None,
    evaluator: GreenEvaluator | None = None,
) -> ReportRecord:
    """``c_beta(z)^2 / (pi K(z, z)) <= 1`` (overshoot up to ``_RATIO_TOL``)
    and ``> 0``: the ``suita-check`` record, with the ratio, the capacity
    and the kernel diagonal among its quantities.

    ``evaluator`` overrides the capacity method (e.g. a Nystrom evaluator
    for cross-method pipelines); the kernel is the closed form of
    :func:`kernel_diag` unless ``basis`` is given.
    """
    cap = capacity(evaluator if evaluator is not None else domain, z)
    est = kernel_diag(domain, Unweighted(), z, basis=basis)
    if est.value <= 0.0:
        raise ZeroKernelError("kernel diagonal is not positive")
    ratio = cap**2 / (math.pi * est.value)
    return make_record(
        command="suita-check",
        input_id=f"{domain!r} z={z}",
        inputs={"domain": repr(domain), "z": z},
        quantities={
            "ratio": ratio,
            "capacity": cap,
            "kernel_diag": est.value,
            "gram_condition": est.gram_condition,
        },
        margins={"upper": 1.0 - ratio, "positive": ratio},
        tolerances={"upper": _RATIO_TOL, "positive": 0.0},
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
        command="extended-suita-check",
        input_id=f"{domain!r} {weight!r} z={z}",
        inputs={"domain": repr(domain), "weight": repr(weight), "z": z},
        quantities={
            "margin": margin,
            "capacity_sq": cap**2,
            "rho_at_z": rho,
            "weighted_kernel": est.value,
            "gram_condition": est.gram_condition,
        },
        margins={"nonnegative": margin},
        tolerances={"nonnegative": _MARGIN_TOL},
        primary="margin",
        provenance={
            "margin": "extended_suita_check",
            "capacity_sq": "capacity",
            "rho_at_z": "extended_suita_check",
            "weighted_kernel": "kernel_diag",
            "gram_condition": "gram_matrix",
        },
    )
