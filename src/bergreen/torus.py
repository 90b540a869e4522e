"""Flat-torus quantities: Jacobi theta series, the lattice Green function
with unit metric volume, its capacity, theta bases of positive line
bundles, and the degree-dependent kernel inequality.

Conventions (pinned by internal-consistency checks, see README):

* Torus ``C / (Z + tau Z)`` with volume form ``dV = dLebesgue / Im tau``
  (total volume 1).
* The Green function is ``g(z) = log|theta1(z, tau)| - pi (Im z)^2 / Im
  tau + gamma`` on the reduced cell; it is doubly periodic, even, and
  satisfies ``Lap_vol g = -1`` off the pole for the volume-normalized
  Laplacian ``Lap_vol = (Im tau / 2 pi) * Lap_euclid`` — the scaling under
  which the curvature coefficient ``a`` of the Green weight integrates
  to 1 over the torus.
* The additive constant ``gamma`` is not fixed by the defining
  conditions; both supported normalizations are exposed: ``"meanzero"``
  (zero mean against the volume form) and ``"maxzero"`` (supremum zero,
  making g nonpositive).  Consistency identities (curvature ratio,
  residual mass) hold under either.
* Degree-``d`` sections are modeled by theta functions with
  characteristics ``j/d`` and the translation-invariant Gaussian weight
  ``exp(-2 pi d (Im z)^2 / Im tau)``; the weighted squared modulus is
  doubly periodic, so fundamental-domain quadrature applies verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bergman import KernelEstimate, _dense_kernel_value, _normalized_condition
from .domains import refine
from .errors import AccuracyError, ParameterError, TruncationError
from .extension import PolarSpec, residual_measure
from .reports import ReportRecord, make_record

__all__ = [
    "require_tau",
    "TorusSpec",
    "theta1",
    "theta1_term_count",
    "theta1_prime0",
    "lattice_reduce",
    "ArakelovGreen",
    "arakelov_green",
    "laplacian_deviation",
    "torus_capacity",
    "require_degree",
    "ThetaBasis",
    "torus_gram",
    "torus_bergman",
    "curvature_coefficients",
    "residual_mass",
    "arak1_check",
]

# fewest theta1 terms ever summed (see theta1)
_MIN_TERMS = 8
# the certified theta1 tail bound at the term cap; the summed count stops at
# this times eps (see theta1_term_count)
_THETA_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# the central-difference step of the max-zero Newton polish
_POLISH_STEP = 1e-4


def require_tau(tau) -> None:
    """Precondition of :class:`TorusSpec` on the modulus: finite, with
    ``Im tau > 0``."""
    tau = complex(tau)
    if not (math.isfinite(tau.real) and 0.0 < tau.imag < math.inf):
        raise ParameterError(f"torus modulus {tau} must be finite with Im tau > 0")


@dataclass(frozen=True)
class TorusSpec:
    """Torus ``C / (Z + tau Z)`` with the unit-volume flat metric."""

    tau: complex
    terms: int = 64

    def __post_init__(self):
        require_tau(self.tau)
        if self.terms < _MIN_TERMS:
            raise ParameterError(f"theta truncation needs terms >= {_MIN_TERMS}")

    @property
    def tau2(self) -> float:
        return self.tau.imag


# ---------------------------------------------------------------------------
# Theta series
# ---------------------------------------------------------------------------


def _tail_certified(n: int, log_q: float, ymax: float, tol: float) -> bool:
    """Whether the theta1 tail after ``n`` terms is certified below ``tol``:
    the first dropped term ``2|q|^{(n+1/2)^2} e^{(2n+1) pi ymax}`` is at
    most ``tol`` and the ratio ``|q|^{2n+2} e^{2 pi ymax}`` between
    consecutive dropped terms is at most 1/2."""
    log_ratio = (2 * n + 2) * log_q + 2.0 * math.pi * ymax
    log_first = math.log(2.0) + (n + 0.5) ** 2 * log_q + (2 * n + 1) * math.pi * ymax
    return log_ratio <= math.log(0.5) and log_first <= math.log(tol)


def theta1_term_count(z, tau: complex, terms: int = 64) -> int:
    """Number of series terms :func:`theta1` sums for the points ``z``:
    the smallest count in ``[8, terms]`` whose certified tail is below
    ``_THETA_TOL * eps``, or ``terms`` if none is.  Raises
    :class:`TruncationError` if even the tail after ``terms`` terms is not
    certified below ``_THETA_TOL``, or if the largest kept sine overflows
    (its inf times an underflowed ``q`` power would return NaN)."""
    tau = complex(tau)
    if not (tau.imag > 0.0):
        raise ParameterError("theta1 needs Im tau > 0")
    if terms < _MIN_TERMS:
        raise ParameterError(f"theta1 needs terms >= {_MIN_TERMS}")
    z = np.asarray(z, dtype=complex)
    ymax = float(np.max(np.abs(z.imag))) if z.size else 0.0
    log_q = -math.pi * tau.imag
    if not _tail_certified(terms, log_q, ymax, _THETA_TOL):
        raise TruncationError(
            f"theta1 tail bound exceeds {_THETA_TOL:.1e} at terms={terms} "
            f"(|Im z| up to {ymax:.3g}); increase terms"
        )
    stop = _THETA_TOL * np.finfo(float).eps
    count = next(
        (n for n in range(_MIN_TERMS, terms) if _tail_certified(n, log_q, ymax, stop)),
        terms,
    )
    if math.pi * (2 * count - 1) * ymax > _LOG_FLOAT_MAX:
        raise TruncationError(
            f"theta1 term sin({2 * count - 1} pi z) overflows at |Im z| = {ymax:.3g}; "
            "reduce z to the fundamental cell (lattice_reduce)"
        )
    return count


def theta1(z, tau: complex, terms: int = 64):
    """Odd Jacobi theta series
    ``theta1(z) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z)``
    with ``q = exp(i pi tau)`` and a certified geometric tail bound (grows
    with ``|Im z|``; raise ``terms`` or reduce the argument to the
    fundamental cell for large imaginary parts).

    ``terms`` is a cap: if the tail after ``terms`` terms is not certified
    below ``_THETA_TOL``, :class:`TruncationError` is raised.  Otherwise
    the series is summed to the smallest count in ``[8, terms]`` whose
    tail is certified below ``_THETA_TOL * eps`` (:func:`theta1_term_count`),
    so every dropped term lies below rounding.  The floor of 8 keeps the
    result bit-identical to the sum over all ``terms``: the dropped terms
    do not change the sum, but the dot product of a scalar ``z`` groups
    fewer than 8 terms differently, and the last-bit changes that follow
    reach the 10th digit of the finite-difference curvatures (step
    ``h = 3e-4`` amplifies them by ``1/h^2``).
    """
    z = np.asarray(z, dtype=complex)
    ns = np.arange(theta1_term_count(z, tau, terms))
    q_pow = np.exp(1j * math.pi * complex(tau) * (ns + 0.5) ** 2) * (-1.0) ** ns
    # sin((2n+1) pi z) for all n at once
    phases = np.sin(math.pi * np.multiply.outer(z, 2 * ns + 1))
    out = 2.0 * phases @ q_pow
    return out if out.ndim else complex(out)


def theta1_prime0(tau: complex, terms: int = 64) -> complex:
    """Derivative ``theta1'(0) = 2 pi sum_{n<N} t_n`` with ``t_n = (-1)^n
    (2n+1) q^{(n+1/2)^2}`` and ``N`` the smallest count in ``[8, terms]``
    whose tail bound is below ``_THETA_TOL * eps`` (else ``terms``).

    The series alternates, and for small ``Im tau`` its terms cancel, so
    the sum is certified: :class:`TruncationError` is raised when the tail
    bound plus the rounding bound ``N * eps * sum |t_n|`` exceeds
    ``_THETA_TOL * |theta1'(0)|``.  The tail is bounded by its first term
    over one minus the ratio of consecutive terms, which decreases in n.
    """
    tau = complex(tau)
    if not (tau.imag > 0.0):
        raise ParameterError("theta1_prime0 needs Im tau > 0")
    if terms < _MIN_TERMS:
        raise ParameterError(f"theta1_prime0 needs terms >= {_MIN_TERMS}")
    log_q = -math.pi * tau.imag

    def tail(n: int) -> float:
        ratio = (2 * n + 3) / (2 * n + 1) * math.exp((2 * n + 2) * log_q)
        first = (2 * n + 1) * math.exp((n + 0.5) ** 2 * log_q)
        return first / (1.0 - ratio) if ratio < 1.0 else math.inf

    stop = _THETA_TOL * np.finfo(float).eps
    count = next((n for n in range(_MIN_TERMS, terms) if tail(n) <= stop), terms)
    ns = np.arange(count)
    q_pow = np.exp(1j * math.pi * tau * (ns + 0.5) ** 2) * (-1.0) ** ns
    t = (2 * ns + 1) * q_pow
    value = complex(2.0 * math.pi * np.sum(t))
    rounding = count * np.finfo(float).eps * float(np.sum(np.abs(t)))
    bound = 2.0 * math.pi * (tail(count) + rounding)
    if not bound <= _THETA_TOL * abs(value):
        raise TruncationError(
            f"theta1'(0) relative error bound {bound / abs(value):.3e} exceeds "
            f"{_THETA_TOL:.1e} at tau = {tau} (the series cancels)"
        )
    return value


def lattice_reduce(z, tau: complex):
    """Representative of ``z`` modulo ``Z + tau Z`` nearest the origin
    (coefficients rounded in the (1, tau) basis)."""
    tau = complex(tau)
    z = np.asarray(z, dtype=complex)
    n2 = np.round(z.imag / tau.imag)
    z1 = z - n2 * tau
    n1 = np.round(z1.real)
    out = z1 - n1
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------


def _green_raw(spec: TorusSpec, z):
    """Doubly periodic ``log|theta1(z_c)| - pi (Im z_c)^2 / Im tau`` with
    ``z_c`` the lattice-reduced argument (gamma = 0 normalization)."""
    zc = np.asarray(lattice_reduce(z, spec.tau), dtype=complex)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(theta1(zc, spec.tau, spec.terms))) - (
            math.pi * zc.imag**2 / spec.tau2
        )
    return out if out.ndim else float(out)


def _log_abs_theta_over_z(spec: TorusSpec, z):
    """``log|theta1(z)/z|``, smooth across the origin."""
    z = np.asarray(z, dtype=complex)
    th = np.asarray(theta1(z, spec.tau, spec.terms), dtype=complex)
    small = np.abs(z) < 1e-14
    ratio = np.abs(th / np.where(small, 1.0, z))
    # theta1'(0) is a whole series: sum it only when a point is on the pole
    if small.any():
        ratio = np.where(small, abs(theta1_prime0(spec.tau, spec.terms)), ratio)
    out = np.log(ratio)
    return out if out.ndim else float(out)


def _gamma_meanzero(spec: TorusSpec) -> float:
    """Additive constant making the Green function mean-zero against the
    volume form: ``gamma = -log|eta(tau)| = -(1/3) log(|theta1'(0)| / 2 pi)``
    by Jacobi's ``theta1'(0) = 2 pi eta(tau)^3``."""
    return -math.log(abs(theta1_prime0(spec.tau, spec.terms)) / (2.0 * math.pi)) / 3.0


def _gamma_maxzero(spec: TorusSpec) -> float:
    """Additive constant making ``sup g = 0``: minus the raw profile's
    maximum, by Newton steps (central differences of step ``_POLISH_STEP``)
    from the 96^2 grid maximum, each taken only if it raises the profile."""
    n = 96
    s = np.linspace(0.0, 1.0, n, endpoint=False)
    S, T = np.meshgrid(s, s, indexing="ij")
    Z = (S + T * spec.tau).ravel()
    vals = _green_raw(spec, Z)
    k = int(np.argmax(vals))
    z, best, h = complex(Z[k]), float(vals[k]), _POLISH_STEP
    stencil = h * np.add.outer(np.arange(-1, 2), 1j * np.arange(-1, 2))
    while True:
        f = _green_raw(spec, z + stencil)  # f[i, j] at z + ((i - 1) + (j - 1) i) h
        fxy = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        hess = np.array([[np.diff(f[:, 1], 2)[0], fxy], [fxy, np.diff(f[1], 2)[0]]]) / (h * h)
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        trial = z + complex(*np.linalg.solve(hess, -grad))
        value = float(_green_raw(spec, trial))
        if not value > best:  # on thin tori g is almost flat along Im z: steps overshoot
            break
        z, best = trial, value
    # g is even, so its half-periods are critical points (Lin and Wang, Ann. of Math. 2010)
    halves = _green_raw(spec, 0.5 * np.array([1.0, spec.tau, 1.0 + spec.tau]))
    if not (hess[0, 0] < 0.0 < np.linalg.det(hess) and best >= np.max(halves)):
        raise AccuracyError(
            f"max-zero polish at tau = {spec.tau} ends at z = {z:.6g} with g = {best!r}: the "
            f"Hessian must be negative definite, and g at least {np.max(halves)!r} (half-periods)"
        )
    return -best


@dataclass(frozen=True)
class ArakelovGreen:
    """Green evaluator ``g(z)`` with pole at 0; ``g(p, q) = g(p - q)``."""

    spec: TorusSpec
    gamma: float
    normalization: str

    def __call__(self, z):
        raw = _green_raw(self.spec, z)
        return raw + self.gamma

    def pair(self, p, q):
        return self(np.asarray(p, dtype=complex) - np.asarray(q, dtype=complex))


def arakelov_green(spec: TorusSpec, normalization: str = "meanzero") -> ArakelovGreen:
    """Green function of the unit-volume flat torus in the requested
    additive normalization (``"meanzero"`` or ``"maxzero"``)."""
    if normalization == "meanzero":
        gamma = _gamma_meanzero(spec)
    elif normalization == "maxzero":
        gamma = _gamma_maxzero(spec)
    else:
        raise ParameterError(
            f"unknown normalization {normalization!r}; "
            f"use 'meanzero' or 'maxzero'"
        )
    return ArakelovGreen(spec=spec, gamma=gamma, normalization=normalization)


def _five_point_laplacian(f, z: complex, h: float) -> float:
    """Euclidean Laplacian of ``f`` at ``z`` by the five-point stencil of
    step ``h``."""
    return (
        f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)
    ) / (h * h)


# the five-point stencil step of laplacian_deviation
_LAP_STEP = 5e-4


def laplacian_deviation(green: ArakelovGreen, samples=None) -> float:
    """Max deviation of the volume-normalized Laplacian ``Lap_vol = (Im tau
    / 2 pi) Lap_euclid`` of ``g`` from -1 over interior samples, by
    five-point finite differences of step ``_LAP_STEP * min(1, Im tau)``
    (``g`` varies on the scale of ``Im tau``); NaN if any sample gives NaN.
    The ``laplacian`` margin of :func:`arak1_check` gates it."""
    spec = green.spec
    h = _LAP_STEP * min(1.0, spec.tau2)
    if samples is None:
        samples = [
            0.3 + 0.2j * spec.tau2,
            0.1 + 0.45j * spec.tau2,
            -0.25 + 0.3j * spec.tau2,
            0.42 + 0.18j * spec.tau2,
        ]
    devs = []
    for z in samples:
        z = complex(z)
        if abs(lattice_reduce(z, spec.tau)) < 10 * h:
            raise ParameterError(f"sample {z!r} too close to the pole")
        lap_vol = spec.tau2 / (2.0 * math.pi) * _five_point_laplacian(green, z, h)
        devs.append(abs(lap_vol + 1.0))
    return float(np.max(devs, initial=0.0))


def torus_capacity(green: ArakelovGreen) -> float:
    """Capacity ``exp(lim_{z->0} (g(z) - log(|z| / sqrt(Im tau))))``.

    Near the pole ``theta1(z) = theta1'(0) z + O(z^3)``, so the limit is
    ``e^gamma |theta1'(0)| sqrt(Im tau)``; ``g`` depends only on the
    difference of its arguments, so the capacity is the same at every
    point.
    """
    spec = green.spec
    return math.exp(green.gamma) * abs(theta1_prime0(spec.tau, spec.terms)) * math.sqrt(spec.tau2)


# ---------------------------------------------------------------------------
# Theta basis and kernel
# ---------------------------------------------------------------------------


def require_degree(d: int) -> None:
    """Precondition of :class:`ThetaBasis` and :func:`arak1_check` on the
    degree: even and at least 4."""
    if d < 4 or d % 2 != 0:
        raise ParameterError(f"degree d = {d} must be even and at least 4")


@dataclass(frozen=True)
class ThetaBasis:
    """Degree-``d`` section space: theta functions with characteristics
    ``j/d`` and the translation-invariant Gaussian weight.

    ``theta_j(z) = sum_n exp(pi i tau d (n + j/d)^2 + 2 pi i d (n + j/d) z)``
    is 1-periodic and picks up ``exp(-pi i tau d - 2 pi i d z)`` under
    ``z -> z + tau``; the weighted modulus ``weight(z) |theta_j(z)|^2``
    with ``weight = exp(-2 pi d (Im z)^2 / Im tau)`` is doubly periodic.
    """

    spec: TorusSpec
    d: int

    def __post_init__(self):
        require_degree(self.d)

    @property
    def _n_range(self) -> int:
        scale = math.pi * self.spec.tau2 * self.d
        return max(12, int(math.ceil(math.sqrt(900.0 / scale))) + 3)

    def theta(self, j: int, z):
        if not (0 <= j < self.d):
            raise ParameterError("characteristic index out of range")
        tau, d = self.spec.tau, self.d
        z = np.asarray(z, dtype=complex)
        N = self._n_range
        nu = np.arange(-N, N + 1) + j / d
        expo = 1j * math.pi * tau * d * nu**2
        out = np.exp(expo + 2j * math.pi * d * np.multiply.outer(z, nu)).sum(axis=-1)
        return out if out.ndim else complex(out)

    def theta_grid(self, n: int) -> np.ndarray:
        """``theta_j`` for every ``j`` on the product grid ``a/n + (b/n) tau``
        (``0 <= a, b < n``): shape ``(d, n*n)``, columns ``a``-major, as
        :meth:`theta` gives them term by term.

        A series term factors as ``U[a, nu] W[b, nu]`` with the unimodular
        ``U = exp(2 pi i d nu a/n)`` and ``W = exp(pi i tau d nu^2 +
        2 pi i d nu tau b/n)``, so row ``j`` is the product ``U_j W_j^T``.
        ``d nu`` is an integer, so ``U`` takes its phase reduced mod ``n``
        exactly.  The Gaussian factor stays in ``W``, where ``|W|`` is the
        modulus of the series term, at most ``exp(pi d Im tau)``; split off,
        ``exp(2 pi i d nu tau b/n)`` alone grows like ``exp(2 pi d N Im tau)``
        and overflows (``d = 10``, ``tau = i``).
        """
        tau, d = self.spec.tau, self.d
        N = self._n_range
        dnu = d * np.arange(-N, N + 1) + np.arange(d)[:, None]  # (d, 2N+1)
        nu = dnu / d
        idx = np.arange(n)
        U = np.exp(2j * math.pi / n * (np.multiply.outer(dnu, idx) % n))  # (d, 2N+1, n)
        expo = 1j * math.pi * tau * d * nu**2
        W = np.exp(expo[:, :, None] + 2j * math.pi * d * np.multiply.outer(nu, idx / n * tau))
        return (np.swapaxes(U, 1, 2) @ W).reshape(d, n * n)

    def weight(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.exp(-2.0 * math.pi * self.d * z.imag**2 / self.spec.tau2)
        return out if out.ndim else float(out)

    def quasi_periodicity_defect(self, z_samples) -> float:
        """Max relative defect of the two automorphy relations."""
        z = np.asarray(z_samples, dtype=complex)
        tau, d = self.spec.tau, self.d
        worst = 0.0
        for j in range(d):
            v = self.theta(j, z)
            scale = np.maximum(np.abs(v), 1e-300)
            d1 = np.abs(self.theta(j, z + 1.0) - v) / scale
            factor = np.exp(-1j * math.pi * tau * d - 2j * math.pi * d * z)
            d2 = np.abs(self.theta(j, z + tau) - factor * v) / (
                np.maximum(np.abs(factor), 1.0) * scale
            )
            worst = max(worst, float(np.max(d1)), float(np.max(d2)))
        return worst


# the largest scaled entry change between the two last torus Gram levels
_GRAM_TOL = 1e-9


def torus_gram(basis: ThetaBasis, n_grid: int = 256) -> tuple[np.ndarray, float]:
    """(Gram matrix, doubling residual) of the weighted theta sections over
    the fundamental domain against the unit volume form.

    The integrand is smooth and doubly periodic, so the uniform product
    grid (trapezoid in both periods) converges spectrally.  On that grid a
    theta term factors into a table over the real period and a table over
    the ``tau`` period (:meth:`ThetaBasis.theta_grid`), so the ``d`` rows
    on ``n^2`` points take one batched ``(n, 2N+1) @ (2N+1, n)`` product
    instead of an ``exp`` per point and term; the Gaussian factor
    ``exp(pi i tau d nu^2)`` rides with the ``tau``-direction table, which
    it keeps bounded.

    ``n_grid`` is the finest grid allowed: the grid starts from the
    smallest power of two that covers the basis band ``2N + 1`` (or
    ``n_grid // 2`` if that is smaller), so a coarse pair cannot agree by
    aliasing, and doubles through :func:`domains.refine` until entries
    move by at most ``_GRAM_TOL`` relative to the diagonal scale; reaching
    the cap without agreement, or a NaN change, raises
    :class:`AccuracyError`.
    """
    if n_grid < 2:
        raise ParameterError("torus Gram needs a cap n_grid >= 2")
    band = 2 * basis._n_range + 1
    start = min(1 << (band - 1).bit_length(), n_grid // 2)
    doublings = (n_grid // start).bit_length() - 1

    def compute(n: int) -> np.ndarray:
        s = np.arange(n) / n
        S, T = np.meshgrid(s, s, indexing="ij")
        Z = (S + T * basis.spec.tau).ravel()
        theta_rows = basis.theta_grid(n)
        w = basis.weight(Z)
        G = (theta_rows * w) @ theta_rows.conj().T / (n * n)
        return 0.5 * (G + G.conj().T)

    def change(fine: np.ndarray, coarse: np.ndarray) -> float:
        scale = float(np.max(np.abs(np.diag(fine)).real))
        return float(np.max(np.abs(fine - coarse))) / scale

    return refine(lambda k: compute(start << k), change, _GRAM_TOL, doublings)


def torus_bergman(
    spec: TorusSpec,
    d: int,
    p: complex = 0.0,
    gram: tuple[np.ndarray, float] | None = None,
) -> KernelEstimate:
    """Weighted kernel diagonal of the degree-``d`` section space at ``p``:
    ``weight(p) * b^H G^{-1} b`` with ``b_j = theta_j(p)``.

    The diagonal is exactly invariant under translating ``p`` by the
    refined lattice ``(Z + tau Z) / d`` (the translations that fix the
    section space as a metrized bundle); between those points it varies
    by ``O(exp(-pi d Im tau / 2))`` — exponentially small in the degree
    but far above machine precision at small ``d``.

    Pass a precomputed ``(G, residual)`` from :func:`torus_gram` to skip
    the quadrature; each call solves the Gram system afresh.
    """
    basis = ThetaBasis(spec, d)
    G, resid = gram if gram is not None else torus_gram(basis)
    b = np.array([basis.theta(j, p) for j in range(d)])
    value = float(basis.weight(p)) * _dense_kernel_value(G, b)
    return KernelEstimate(
        value=value,
        basis_size=d,
        gram_condition=_normalized_condition(G),
        truncation_error_estimate=resid,
    )


# ---------------------------------------------------------------------------
# Curvature bookkeeping and the inequality record
# ---------------------------------------------------------------------------


# the point and the five-point stencil step of curvature_coefficients
_CURVATURE_POINT = 0.31 + 0.23j
_CURVATURE_STEP = 3e-4


def curvature_coefficients(green: ArakelovGreen, d: int) -> tuple[float, float]:
    """(a, b): curvature coefficients against the volume form of the Green
    weight ``2g`` and the degree-``d`` section weight, extracted by
    five-point finite differences of the implemented potentials at
    ``_CURVATURE_POINT``.

    The coefficient of a weight ``phi`` is ``(Im tau / 4 pi) Lap_euclid
    phi``; for ``-2g`` it integrates to 1 (Green condition), for the
    Gaussian line-bundle weight it equals the degree ``d``.
    """
    spec = green.spec
    basis = ThetaBasis(spec, d)

    z, h = _CURVATURE_POINT, _CURVATURE_STEP
    factor = spec.tau2 / (4.0 * math.pi)
    a = -factor * _five_point_laplacian(lambda w: 2.0 * float(green(w)), z, h)
    b = factor * _five_point_laplacian(
        lambda w: -math.log(float(basis.weight(complex(w)))), z, h
    )
    return float(a), float(b)


def residual_mass(green: ArakelovGreen, t: float = 20.0) -> float:
    """Mass of the generalized residual of ``Psi = 2 g`` against the
    volume form: ``(2 / Im tau) * (1/pi) int_{shell} e^{-Psi} dLambda``."""
    spec = green.spec
    gamma = green.gamma

    def psi_rest(z):
        z = np.asarray(z, dtype=complex)
        return (
            2.0 * gamma
            + 2.0 * _log_abs_theta_over_z(spec, z)
            - 2.0 * math.pi * np.asarray(z, dtype=complex).imag ** 2 / spec.tau2
        )

    psi = PolarSpec(0.0, psi_rest, None, name="torus-green")
    return 2.0 / spec.tau2 * residual_measure(psi, lambda z: np.ones(np.shape(z)), t)


# the allowed negative inequality margin, and the bounds on the residual-mass
# identity, the Laplacian deviation, the curvature ratio and the kernel
# diagonal spread
_MARGIN_TOL = 1e-9
_RESIDUAL_TOL = 1e-4
_LAP_TOL = 1e-5
_AB_TOL = 1e-6
_DIAG_TOL = 1e-6
# the shell depth of the residual mass
_T_RESIDUAL = 20.0


def arak1_check(spec: TorusSpec, d: int) -> ReportRecord:
    """Degree-``d`` kernel inequality on the torus with its side identities:

    * ``pi (1 + 1/(d/2 - 1)) * kernel >= capacity^2`` under both additive
      Green normalizations;
    * volume Laplacian of ``g`` equals -1 (finite differences);
    * curvature ratio ``2a/b = 2/d``;
    * kernel diagonal constant across base points;
    * residual mass of ``2g`` equals ``2 / capacity^2``.
    """
    require_degree(d)
    delta = d / 2.0 - 1.0
    factor = math.pi * (1.0 + 1.0 / delta)

    basis = ThetaBasis(spec, d)
    gram = torus_gram(basis)
    kernel = torus_bergman(spec, d, p=0.0, gram=gram)
    # base points where the metrized bundle is literally translation-
    # invariant: the refined-lattice translates of the origin
    others = [
        torus_bergman(spec, d, p=1.0 / d, gram=gram).value,
        torus_bergman(spec, d, p=(1.0 + spec.tau) / d, gram=gram).value,
    ]
    diag_spread = float(np.max(np.abs(np.subtract(others, kernel.value)))) / kernel.value
    # between refined-lattice points the diagonal varies by an amount
    # exponentially small in d; recorded for reference, not gated
    midcell = torus_bergman(spec, d, p=(1.0 + spec.tau) / (2 * d), gram=gram).value
    midcell_dev = abs(midcell - kernel.value) / kernel.value
    lhs = factor * kernel.value

    quantities: dict = {
        "lhs": lhs,
        "kernel_diag": kernel.value,
        "delta": delta,
        "factor": factor,
        "diag_spread": diag_spread,
        "midcell_deviation": midcell_dev,
        "gram_condition": kernel.gram_condition,
    }
    margins: dict = {"diag_constancy": _DIAG_TOL - diag_spread}
    tolerances: dict = {"diag_constancy": 0.0}

    lap_dev = None
    for norm in ("meanzero", "maxzero"):
        green = arakelov_green(spec, normalization=norm)
        if lap_dev is None:
            lap_dev = laplacian_deviation(green)
            a, b = curvature_coefficients(green, d)
            quantities["laplacian_deviation"] = lap_dev
            quantities["curvature_a"] = a
            quantities["curvature_b"] = b
            quantities["two_a_over_b"] = 2.0 * a / b
            margins["laplacian"] = _LAP_TOL - lap_dev
            tolerances["laplacian"] = 0.0
            margins["curvature_ratio"] = _AB_TOL - abs(2.0 * a / b - 2.0 / d)
            tolerances["curvature_ratio"] = 0.0
        cap = torus_capacity(green)
        rhs = cap * cap
        mass = residual_mass(green, t=_T_RESIDUAL)
        expected_mass = 2.0 / rhs
        quantities[f"capacity_{norm}"] = cap
        quantities[f"rhs_{norm}"] = rhs
        quantities[f"margin_{norm}"] = lhs - rhs
        quantities[f"residual_mass_{norm}"] = mass
        quantities[f"residual_expected_{norm}"] = expected_mass
        margins[f"inequality_{norm}"] = lhs - rhs
        tolerances[f"inequality_{norm}"] = _MARGIN_TOL
        margins[f"residual_mass_{norm}"] = _RESIDUAL_TOL - abs(mass - expected_mass)
        tolerances[f"residual_mass_{norm}"] = 0.0

    return make_record(
        command="torus-check",
        input_id=f"tau={spec.tau},d={d}",
        inputs={"tau": spec.tau, "d": d, "terms": spec.terms, "t_residual": _T_RESIDUAL},
        quantities=quantities,
        margins=margins,
        tolerances=tolerances,
        primary="lhs",
        provenance={
            k: (
                "torus_bergman"
                if k in ("lhs", "kernel_diag", "diag_spread", "gram_condition")
                else "arak1_check"
            )
            for k in quantities
        },
    )
