"""Weighted Bergman kernels as least-norm extremal problems.

The kernel diagonal is the extremal value ``sup |f(z)|^2 / ||f||_rho^2``
over the monomial span, computed from the Gram matrix

    M[i, j] = integral_Omega  z^{n_i} conj(z)^{n_j} rho(z) dLambda(z)

as ``K(z, z) = b* M^{-1} b`` with ``b_i = z^{n_i}``.  For radial weights on
disc/annulus the monomials are orthogonal, the Gram matrix is diagonal
with closed-form per-mode moments, and the kernel sum is evaluated in log
space so that very large bases (needed near the boundary) neither overflow
nor underflow.  Non-radial weights build a dense Gram matrix by
Gauss-Legendre x trapezoid product quadrature and solve a Jacobi-scaled
Hermitian system.

Norm convention: ``||f||^2 = integral |f|^2 rho dLambda`` (plain Lebesgue
area measure).  Under this convention the unweighted unit disc gives
``K(0,0) = 1/pi`` and the capacity/kernel comparison reads exactly
``c_beta(z)^2 <= pi K(z,z)``.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .domains import (
    Annulus,
    Disc,
    GreenEvaluator,
    PlanarDomain,
    capacity,
    gauss_legendre,
    refine,
)
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
    "weight_phi",
    "gram_matrix",
    "kernel_diag",
    "least_norm_extension",
    "evaluate_span",
    "suita_ratio",
    "SuitaRatio",
    "extended_suita_check",
    "ExtendedSuitaResult",
    "kernel_record",
    "suita_record",
    "extended_suita_record",
    "default_basis",
    "auto_basis",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Weight specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unweighted:
    """Density ``rho = scale`` (constant; scale defaults to 1)."""

    scale: float = 1.0
    radial: bool = True

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, self.scale, dtype=float)


@dataclass(frozen=True)
class HarmonicLog:
    """Harmonic weight ``h = alpha log|z|``, density ``rho = |z|^(-2 alpha)``."""

    alpha: float
    scale: float = 1.0
    radial: bool = True

    def density(self, z):
        return self.scale * np.abs(np.asarray(z, dtype=complex)) ** (-2.0 * self.alpha)


@dataclass(frozen=True)
class MaxPiece:
    """Density ``exp(-phi)``, ``phi = (1+delta) max(log|z|^2, log a^2)``."""

    delta: float
    a: float
    scale: float = 1.0
    radial: bool = True

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
    radial: bool = False

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return self.scale * np.exp(-2.0 * self.c * z.real)


WeightSpec = Unweighted | HarmonicLog | MaxPiece | HarmonicRe


def weight_phi(weight: WeightSpec, z):
    """Exponent ``phi`` with ``rho = exp(-phi)`` (so ``phi = 2h`` when the
    weight comes from a harmonic ``h``)."""
    with np.errstate(divide="ignore"):
        return -np.log(weight.density(z))


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
    out[pos] = pp * math.log(hi) + np.log1p(-((lo / hi) ** pp)) - np.log(pp)
    # p < 0: (lo^p - hi^p)/(-p)
    pn = p[neg]
    out[neg] = pn * math.log(lo) + np.log1p(-((hi / lo) ** pn)) - np.log(-pn)
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


def log_radial_moment(domain: PlanarDomain, weight: WeightSpec, n: int) -> float:
    """``log`` of ``integral_Omega |z|^{2n} rho dLambda`` for one mode ``n``."""
    return float(log_radial_moments(domain, weight, np.array([n]))[0])


# ---------------------------------------------------------------------------
# Basis ranges
# ---------------------------------------------------------------------------


def default_basis(domain: PlanarDomain) -> tuple[int, int]:
    """Default monomial index range: [0, 64] disc, [-64, 64] annulus."""
    if isinstance(domain, Annulus):
        return (-64, 64)
    return (0, 64)


def auto_basis(
    domain: PlanarDomain, z: complex, rel_tol: float = 1e-7
) -> tuple[int, int]:
    """Index range making the kernel truncation at ``z`` negligible.

    Kernel terms decay like ``|z|^{2n} n`` for large positive ``n`` and like
    ``(r/|z|)^{2|n|} |n|`` for large negative ``n`` on an annulus.  The range
    is sized so that *half* of it already truncates at relative level
    ``rel_tol``, which keeps the halved-range estimate reported by
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
                (math.log(rel_tol) - 2.0 * math.log(n + 2.0)) / (2.0 * math.log(q)),
            )
        return int(math.ceil(n))

    s = abs(z)
    if isinstance(domain, Annulus):
        return (-2 * n_for(domain.r_inner / s), 2 * n_for(s))
    return (0, 2 * n_for(s))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


# The last matrix gram_matrix returned (weakly held) and the normalized
# condition it computed, so that kernel_diag reports it without a second SVD.
_last_gram: list = [lambda: None, 1.0]


def gram_matrix(
    domain: PlanarDomain,
    weight: WeightSpec,
    basis: tuple[int, int] | None = None,
    gram_tol: float = 1e-10,
    quad_start: int = 64,
) -> np.ndarray:
    """Gram matrix of the monomials ``z^n`` for ``n`` in the basis range.

    Entry ``(m, n)`` is ``integral z^m conj(z)^n rho dLambda``.  Radial
    weights on disc/annulus give a diagonal matrix with closed-form
    moments; otherwise entries come from Gauss-Legendre x trapezoid product
    quadrature, doubled by :func:`domains.refine` until the entrywise
    relative change is at most ``gram_tol`` (:class:`AccuracyError` if five
    doublings do not get there).  A Jacobi-normalized condition number
    above 1e10 triggers an ill-conditioning warning.

    Raises :class:`DomainError` if a closed-form moment exceeds the float
    range (use :func:`kernel_diag`, which works in log space, instead).
    """
    if basis is None:
        basis = default_basis(domain)
    n_min, n_max = basis
    if n_min > n_max:
        raise DomainError("basis range is empty")
    if isinstance(domain, Disc) and n_min < 0:
        raise DomainError("disc basis requires n_min >= 0")
    ns = np.arange(n_min, n_max + 1)

    if weight.radial:
        logs = log_radial_moments(domain, weight, ns)
        if np.max(logs) > 700.0:
            raise DomainError(
                "Gram entries exceed the floating-point range; "
                "kernel_diag evaluates radial kernels in log space instead"
            )
        gram = np.diag(np.exp(logs))
    else:
        gram = _gram_quadrature(domain, weight, ns, gram_tol, quad_start)

    cond = _normalized_condition(gram)
    if cond > 1e10:
        warnings.warn(
            f"Gram matrix condition {cond:.3e} exceeds 1e10", RuntimeWarning
        )
    _last_gram[:] = [weakref.ref(gram), cond]
    return gram


def _is_diagonal(gram: np.ndarray) -> bool:
    return bool(np.all(gram == np.diag(np.diag(gram))))


def _normalized_condition(gram: np.ndarray) -> float:
    """Condition number of the Jacobi-normalized (correlation) matrix.

    For a diagonal Gram matrix the basis is orthogonal, per-mode solves are
    perfectly conditioned, and the normalized condition is exactly 1.
    """
    if _is_diagonal(gram):
        return 1.0
    d = np.sqrt(np.abs(np.diag(gram)))
    corr = gram / np.outer(d, d)
    return float(np.linalg.cond(corr))


def _gram_quadrature(
    domain: PlanarDomain,
    weight: WeightSpec,
    ns: np.ndarray,
    gram_tol: float,
    quad_start: int,
) -> np.ndarray:
    if isinstance(domain, Disc):
        lo, hi = 0.0, domain.radius
    elif isinstance(domain, Annulus):
        lo, hi = domain.r_inner, 1.0
    else:
        raise DomainError("quadrature Gram needs a disc or annulus")
    if np.any(ns < 0) and lo == 0.0:
        raise DivergentIntegralError("negative modes on a disc diverge")
    size = ns.size
    idx = np.arange(size)

    def compute(n_rad: int, n_ang: int) -> np.ndarray:
        x, wq = gauss_legendre(n_rad)
        s = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * wq
        th = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
        zs = s[:, None] * np.exp(1j * th[None, :])  # (rad, ang)
        rho = weight.density(zs)
        # angular Fourier transform of rho at each radius via FFT:
        # A[r, k] = sum_t rho[r, t] e^{-i k t} * (2 pi / n_ang)
        fft = np.fft.fft(rho, axis=1) * (2.0 * math.pi / n_ang)
        # entry (i, j): integral s^{n_i + n_j + 1} rho e^{i (n_i - n_j) th}
        #             = sum_r ws s^{n_i+n_j+1} A[r, (n_j - n_i) mod n_ang]
        # depends on i + j and j - i only: one GEMM over the 2N-1 distinct
        # sums and differences, B[i + j, j - i + N - 1], then a gather
        sums = 2 * ns[0] + np.arange(2 * size - 1)  # n_i + n_j (ns is a range)
        diffs = np.arange(1 - size, size)  # n_j - n_i
        spow = ws[:, None] * s[:, None] ** (sums + 1)  # (rad, sums)
        b = spow.T @ fft[:, diffs % n_ang]  # (sums, diffs)
        return b[idx[:, None] + idx[None, :], idx[None, :] - idx[:, None] + size - 1]

    def change(cur: np.ndarray, prev: np.ndarray) -> float:
        # scale-invariant entrywise change, relative to sqrt(diag_i diag_j)
        # (the normalization under which the matrix is later solved)
        d = np.sqrt(np.abs(np.diag(cur)).real)
        return float(np.max(np.abs(cur - prev) / np.outer(d, d)))

    max_deg = int(np.max(np.abs(ns)))
    n_rad = max(quad_start, max_deg + 16)
    n_ang = max(quad_start, 4 * (2 * max_deg + 2))
    gram, _ = refine(
        lambda k: compute(n_rad << k, n_ang << k), change, gram_tol, doublings=5
    )
    return 0.5 * (gram + gram.conj().T)


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
    Jacobi-scaled Hermitian system ``(gram / d d^T) y = rhs / d``, whose
    unit diagonal keeps modes of very different norms equally accurate."""
    import scipy.linalg

    d = np.sqrt(np.abs(np.diag(gram)).real)
    corr = gram / np.outer(d, d)
    return scipy.linalg.solve(corr, rhs / d, assume_a="her"), d


def _dense_kernel_value(gram: np.ndarray, b: np.ndarray) -> float:
    """``b^H gram^{-1} b`` through :func:`_jacobi_solve`."""
    y, d = _jacobi_solve(gram, b)
    return float(np.vdot(b / d, y).real)


def _half_mask(ns: np.ndarray) -> np.ndarray:
    n_min, n_max = int(ns[0]), int(ns[-1])
    lo = n_min // 2 if n_min >= 0 else -((-n_min) // 2)
    hi = n_max // 2 if n_max >= 0 else -((-n_max) // 2)
    return (ns >= lo) & (ns <= hi)


def kernel_diag(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    basis: tuple[int, int] | None = None,
    trunc_tol: float = 1e-6,
    gram: np.ndarray | None = None,
) -> KernelEstimate:
    """Bergman kernel diagonal ``K(z, z)`` over the monomial basis span.

    The truncation error estimate is the relative change when the basis
    index range is halved toward zero; :class:`TruncationError` is raised
    when it exceeds ``trunc_tol``.
    """
    if basis is None:
        basis = default_basis(domain)
    n_min, n_max = basis
    if isinstance(domain, Disc) and n_min < 0:
        raise DomainError("disc basis requires n_min >= 0")
    ns = np.arange(n_min, n_max + 1)
    half = _half_mask(ns)

    if gram is None and weight.radial and isinstance(domain, (Disc, Annulus)):
        lt = _log_kernel_terms(domain, weight, z, ns)
        log_k = _logsumexp(lt)
        if log_k == -math.inf:
            raise ZeroKernelError("kernel diagonal vanishes on this basis")
        value = math.exp(log_k)
        value_half = math.exp(_logsumexp(lt[half]))
        condition = 1.0
    else:
        if gram is None:
            gram = gram_matrix(domain, weight, basis)
            built, condition = _last_gram
            if built() is not gram:
                condition = _normalized_condition(gram)
        else:
            condition = _normalized_condition(gram)
        b = np.asarray(z, dtype=complex) ** ns
        value = _dense_kernel_value(gram, b)
        value_half = _dense_kernel_value(gram[np.ix_(half, half)], b[half])

    trunc = abs(value - value_half) / value if value > 0.0 else 0.0
    if trunc > trunc_tol:
        raise TruncationError(
            f"basis truncation estimate {trunc:.3e} exceeds trunc_tol={trunc_tol:.3e}"
        )
    return KernelEstimate(
        value=value,
        basis_size=int(ns.size),
        gram_condition=condition,
        truncation_error_estimate=trunc,
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
        y, d = _jacobi_solve(gram, np.conj(b))
        sol = y / d
        kz = _dense_kernel_value(gram, b)
    if kz <= 1e-300:
        raise ZeroKernelError("kernel diagonal vanishes at the prescribed point")
    coeffs = value * sol / kz
    return abs(value) ** 2 / kz, coeffs


def evaluate_span(coeffs: np.ndarray, basis: tuple[int, int], z):
    """Evaluate ``sum_n c_n z^n`` for a coefficient vector on a basis range."""
    ns = np.arange(basis[0], basis[1] + 1)
    z = np.asarray(z, dtype=complex)
    powers = z[..., None] ** ns
    return powers @ coeffs


# ---------------------------------------------------------------------------
# Suita-type checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuitaRatio:
    """Capacity/kernel comparison ``c_beta^2 / (pi K)`` at one point."""

    value: float
    capacity: float
    kernel: KernelEstimate
    violation: bool

    def __float__(self) -> float:
        return self.value


def suita_ratio(
    domain: PlanarDomain,
    z: complex,
    basis: tuple[int, int] | None = None,
    ratio_tol: float = 1e-6,
    evaluator: GreenEvaluator | None = None,
) -> SuitaRatio:
    """Ratio ``c_beta(z)^2 / (pi K(z, z))`` with its ingredients.

    Must lie in ``(0, 1 + ratio_tol]``; larger values are flagged as
    violations (reported, never clipped).  ``evaluator`` overrides the
    capacity method (e.g. a Nystrom evaluator for cross-method pipelines);
    the kernel part always uses the monomial Gram machinery.
    """
    cap = capacity(evaluator if evaluator is not None else domain, z)
    kernel_domain = domain
    if basis is None and isinstance(kernel_domain, (Disc, Annulus)):
        basis = auto_basis(kernel_domain, z)
    est = kernel_diag(kernel_domain, Unweighted(), z, basis=basis)
    if est.value <= 0.0:
        raise ZeroKernelError("kernel diagonal is not positive")
    ratio = cap**2 / (math.pi * est.value)
    violation = ratio > 1.0 + ratio_tol
    if violation:
        warnings.warn(
            f"capacity/kernel ratio {ratio} exceeds 1 + {ratio_tol} at z={z}",
            RuntimeWarning,
        )
    return SuitaRatio(value=ratio, capacity=cap, kernel=est, violation=violation)


@dataclass(frozen=True)
class ExtendedSuitaResult:
    """Weighted comparison ``pi rho(z) K_rho(z, z) >= c_beta(z)^2``."""

    margin: float
    passed: bool
    capacity_sq: float
    rho_at_z: float
    weighted_kernel: KernelEstimate


def extended_suita_check(
    domain: PlanarDomain,
    weight: WeightSpec,
    z: complex,
    basis: tuple[int, int] | None = None,
    margin_tol: float = 1e-9,
) -> ExtendedSuitaResult:
    """Check ``pi rho(z) K_rho(z, z) - c_beta(z)^2 >= -margin_tol``.

    ``weight`` must come from a harmonic exponent (``Unweighted``,
    ``HarmonicLog`` or ``HarmonicRe``); ``MaxPiece`` is not of that form.
    """
    if isinstance(weight, MaxPiece):
        raise DomainError("extended check requires a harmonic weight variant")
    cap = capacity(domain, z)
    if basis is None and isinstance(domain, (Disc, Annulus)):
        basis = auto_basis(domain, z)
    est = kernel_diag(domain, weight, z, basis=basis)
    rho = float(weight.density(np.asarray([z], dtype=complex))[0])
    margin = math.pi * rho * est.value - cap**2
    return ExtendedSuitaResult(
        margin=margin,
        passed=margin >= -margin_tol,
        capacity_sq=cap**2,
        rho_at_z=rho,
        weighted_kernel=est,
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def kernel_record(
    domain: PlanarDomain, weight: WeightSpec, z: complex, trunc_tol: float
) -> ReportRecord:
    """Kernel diagonal ``K_rho(z, z)`` with its basis diagnostics; the
    record passes while the diagonal is finite."""
    est = kernel_diag(domain, weight, z, trunc_tol=trunc_tol)
    return make_record(
        command="bergman",
        input_id=f"{domain!r} {weight!r} z={z}",
        inputs={"domain": repr(domain), "weight": repr(weight), "z": z, "trunc_tol": trunc_tol},
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


def suita_record(domain: PlanarDomain, z: complex, ratio_tol: float) -> ReportRecord:
    """``c_beta(z)^2 / (pi K(z, z)) <= 1`` (overshoot up to ``ratio_tol``)
    and ``> 0``, from :func:`suita_ratio`."""
    ratio = suita_ratio(domain, z, ratio_tol=ratio_tol)
    return make_record(
        command="suita-check",
        input_id=f"{domain!r} z={z}",
        inputs={"domain": repr(domain), "z": z, "ratio_tol": ratio_tol},
        quantities={
            "ratio": ratio.value,
            "capacity": ratio.capacity,
            "kernel_diag": ratio.kernel.value,
            "gram_condition": ratio.kernel.gram_condition,
        },
        margins={"upper": 1.0 - ratio.value, "positive": ratio.value},
        tolerances={"upper": ratio_tol, "positive": 0.0},
        primary="ratio",
        provenance={
            "ratio": "suita_ratio",
            "capacity": "capacity",
            "kernel_diag": "kernel_diag",
            "gram_condition": "gram_matrix",
        },
    )


def extended_suita_record(
    domain: PlanarDomain, weight: WeightSpec, z: complex, margin_tol: float
) -> ReportRecord:
    """``pi rho(z) K_rho(z, z) - c_beta(z)^2 >= -margin_tol``, from
    :func:`extended_suita_check`."""
    res = extended_suita_check(domain, weight, z, margin_tol=margin_tol)
    return make_record(
        command="extended-suita-check",
        input_id=f"{domain!r} {weight!r} z={z}",
        inputs={"domain": repr(domain), "weight": repr(weight), "z": z, "margin_tol": margin_tol},
        quantities={
            "margin": res.margin,
            "capacity_sq": res.capacity_sq,
            "rho_at_z": res.rho_at_z,
            "weighted_kernel": res.weighted_kernel.value,
            "gram_condition": res.weighted_kernel.gram_condition,
        },
        margins={"nonnegative": res.margin},
        tolerances={"nonnegative": margin_tol},
        primary="margin",
        provenance={
            "margin": "extended_suita_check",
            "capacity_sq": "capacity",
            "rho_at_z": "extended_suita_check",
            "weighted_kernel": "kernel_diag",
            "gram_condition": "gram_matrix",
        },
    )
