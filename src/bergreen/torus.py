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
  doubly periodic, and the sections are orthogonal with one norm in closed
  form (:func:`torus_gram`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ParameterError, TruncationError
from .extension import residual_measure
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

# fewest theta1 terms ever summed (see theta1), and the most terms
# theta1_prime0 sums
_MIN_TERMS = 8
_PRIME0_TERMS = 64
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

    def __post_init__(self):
        require_tau(self.tau)

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
    # sin((2n+1) pi z) for all n at once
    phases = np.sin(math.pi * np.multiply.outer(z, 2 * ns + 1))
    out = 2.0 * phases @ _q_powers(tau, ns)
    return out if out.ndim else complex(out)


def _q_powers(tau: complex, ns: np.ndarray) -> np.ndarray:
    """Theta coefficients ``(-1)^n q^{(n+1/2)^2}`` with ``q = exp(i pi tau)``."""
    return np.exp(1j * math.pi * complex(tau) * (ns + 0.5) ** 2) * (-1.0) ** ns


def theta1_prime0(tau: complex) -> complex:
    """Derivative ``theta1'(0) = 2 pi sum_{n<N} t_n`` with ``t_n = (-1)^n
    (2n+1) q^{(n+1/2)^2}`` and ``N`` the smallest count in ``[8,
    _PRIME0_TERMS]`` whose tail bound is below ``_THETA_TOL * eps`` (else
    ``_PRIME0_TERMS``).

    The series alternates, and for small ``Im tau`` its terms cancel, so
    the sum is certified: :class:`TruncationError` is raised when the tail
    bound plus the rounding bound ``N * eps * sum |t_n|`` exceeds
    ``_THETA_TOL * |theta1'(0)|``.  The tail is bounded by its first term
    over one minus the ratio of consecutive terms, which decreases in n.
    """
    tau = complex(tau)
    if not (tau.imag > 0.0):
        raise ParameterError("theta1_prime0 needs Im tau > 0")
    log_q = -math.pi * tau.imag

    def tail(n: int) -> float:
        ratio = (2 * n + 3) / (2 * n + 1) * math.exp((2 * n + 2) * log_q)
        first = (2 * n + 1) * math.exp((n + 0.5) ** 2 * log_q)
        return first / (1.0 - ratio) if ratio < 1.0 else math.inf

    stop = _THETA_TOL * np.finfo(float).eps
    count = next(
        (n for n in range(_MIN_TERMS, _PRIME0_TERMS) if tail(n) <= stop), _PRIME0_TERMS
    )
    ns = np.arange(count)
    t = (2 * ns + 1) * _q_powers(tau, ns)
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
        out = np.log(np.abs(theta1(zc, spec.tau))) - math.pi * zc.imag**2 / spec.tau2
    return out if out.ndim else float(out)


def _green_grid(spec: TorusSpec, n: int) -> np.ndarray:
    """:func:`_green_raw` on the product grid ``a/n + (b/n) tau`` (``0 <= a,
    b < n``), shape ``(n, n)`` indexed ``[a, b]``, with both coordinates
    reduced to ``(-1/2, 1/2]`` as :func:`lattice_reduce` reduces them.

    ``sin((2k+1) pi (x + y)) = sin((2k+1) pi x) cos((2k+1) pi y) + cos((2k+1)
    pi x) sin((2k+1) pi y)`` splits each theta1 term into a row and a column
    factor, so the grid takes two ``(n, N) @ (N, n)`` products instead of an
    ``(n^2, N)`` sine table.  ``N`` is :func:`theta1_term_count` on the
    column points ``(b/n) tau``, which carry the whole imaginary part, so its
    tail certificate and overflow guard hold on every node.
    """
    s = np.arange(n) / n
    s = s - np.round(s)
    ns = np.arange(theta1_term_count(s * spec.tau, spec.tau))
    x = math.pi * np.multiply.outer(s, 2 * ns + 1)
    y = math.pi * np.multiply.outer(s * spec.tau, 2 * ns + 1)
    q_pow = 2.0 * _q_powers(spec.tau, ns)
    theta = np.sin(x) @ (np.cos(y) * q_pow).T + np.cos(x) @ (np.sin(y) * q_pow).T
    with np.errstate(divide="ignore"):  # theta1 vanishes on the pole node
        return np.log(np.abs(theta)) - math.pi * spec.tau2 * s**2


def _log_abs_theta_over_z(spec: TorusSpec, z):
    """``log|theta1(z)/z|``, smooth across the origin."""
    z = np.asarray(z, dtype=complex)
    th = np.asarray(theta1(z, spec.tau), dtype=complex)
    small = np.abs(z) < 1e-14
    ratio = np.abs(th / np.where(small, 1.0, z))
    # theta1'(0) is a whole series: sum it only when a point is on the pole
    if small.any():
        ratio = np.where(small, abs(theta1_prime0(spec.tau)), ratio)
    out = np.log(ratio)
    return out if out.ndim else float(out)


def _gamma_meanzero(spec: TorusSpec) -> float:
    """Additive constant making the Green function mean-zero against the
    volume form: ``gamma = -log|eta(tau)| = -(1/3) log(|theta1'(0)| / 2 pi)``
    by Jacobi's ``theta1'(0) = 2 pi eta(tau)^3``."""
    return -math.log(abs(theta1_prime0(spec.tau)) / (2.0 * math.pi)) / 3.0


def _gamma_maxzero(spec: TorusSpec) -> float:
    """Additive constant making ``sup g = 0``: minus the raw profile's
    maximum, by Newton steps (central differences of step ``_POLISH_STEP``)
    from the 96^2 grid maximum, each taken only if it raises the profile; a
    singular Hessian ends the polish, and the guard then raises.

    The grid (:func:`_green_grid`) only picks the start node, taken in
    ``[0, 1)^2`` in the ``(1, tau)`` basis.  Its value comes from one
    :func:`_green_raw` call with the three half-periods, and the polish
    starts from the highest of the four: where the maximum is a
    half-period, the start then holds the half-period's value bit for bit,
    as the final guard reads it from the same call.
    """
    n = 96
    s = np.linspace(0.0, 1.0, n, endpoint=False)
    a, b = divmod(int(np.argmax(_green_grid(spec, n))), n)
    starts = np.array([s[a] + s[b] * spec.tau, 0.5, 0.5 * spec.tau, 0.5 * (1.0 + spec.tau)])
    vals = _green_raw(spec, starts)
    k = int(np.argmax(vals))
    z, best, h = complex(starts[k]), float(vals[k]), _POLISH_STEP
    stencil = h * np.add.outer(np.arange(-1, 2), 1j * np.arange(-1, 2))
    while True:
        f = _green_raw(spec, z + stencil)  # f[i, j] at z + ((i - 1) + (j - 1) i) h
        fxy = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        hess = np.array([[np.diff(f[:, 1], 2)[0], fxy], [fxy, np.diff(f[1], 2)[0]]]) / (h * h)
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        try:
            trial = z + complex(*np.linalg.solve(hess, -grad))
        except np.linalg.LinAlgError:  # g flat along a direction (tall tori)
            break
        value = float(_green_raw(spec, trial))
        if not value > best:  # on thin tori g is almost flat along Im z: steps overshoot
            break
        z, best = trial, value
    # g is even, so its half-periods are critical points (Lin and Wang, Ann. of Math. 2010);
    # the polish climbs from the highest start, so only a NaN leaves it below them
    halves = vals[1:]
    if not (hess[0, 0] < 0.0 < np.linalg.det(hess) and best >= np.max(halves)):
        raise AccuracyError(
            f"max-zero polish at tau = {spec.tau} ends at z = {z:.6g} with g = {best!r}: the "
            f"Hessian must be negative definite, and g at least {float(np.max(halves))!r} "
            f"(half-periods)"
        )
    return -best


@dataclass(frozen=True)
class ArakelovGreen:
    """Green evaluator ``g(z)`` with pole at 0; ``g(p, q) = g(p - q)``."""

    spec: TorusSpec
    gamma: float
    normalization: str

    def __call__(self, z):
        return _green_raw(self.spec, z) + self.gamma


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


def _five_point_laplacian(f, z, h: float):
    """Euclidean Laplacian of ``f`` at the centres ``z`` by the five-point
    stencil of step ``h``, shaped as ``z``.

    ``f`` is evaluated once, on the ``(..., 5)`` array of every centre's
    nodes ``z + h, z - h, z + ih, z - ih, z``, and the stencil sums them in
    that order."""
    nodes = np.asarray(z)[..., None] + np.array([h, -h, 1j * h, -1j * h, 0.0])
    east, west, north, south, centre = np.moveaxis(f(nodes), -1, 0)
    return (east + west + north + south - 4.0 * centre) / (h * h)


# the five-point stencil step of laplacian_deviation, and its samples, where
# x + iy stands for the point x + i y Im tau: each at least 0.1 from the pole
_LAP_STEP = 5e-4
_LAP_SAMPLES = (0.3 + 0.2j, 0.1 + 0.45j, -0.25 + 0.3j, 0.42 + 0.18j)


def laplacian_deviation(green: ArakelovGreen) -> float:
    """Max deviation of the volume-normalized Laplacian ``Lap_vol = (Im tau
    / 2 pi) Lap_euclid`` of ``g`` from -1 over the samples
    ``_LAP_SAMPLES``, by five-point finite differences of step ``_LAP_STEP
    * min(1, Im tau)`` (``g`` varies on the scale of ``Im tau``); NaN if
    any sample gives NaN.  The ``laplacian`` margin of :func:`arak1_check`
    gates it."""
    spec = green.spec
    h = _LAP_STEP * min(1.0, spec.tau2)
    z = np.array([complex(w.real, w.imag * spec.tau2) for w in _LAP_SAMPLES])
    lap_vol = spec.tau2 / (2.0 * math.pi) * _five_point_laplacian(green, z, h)
    return float(np.max(np.abs(lap_vol + 1.0), initial=0.0))


def torus_capacity(green: ArakelovGreen) -> float:
    """Capacity ``exp(lim_{z->0} (g(z) - log(|z| / sqrt(Im tau))))``.

    Near the pole ``theta1(z) = theta1'(0) z + O(z^3)``, so the limit is
    ``e^gamma |theta1'(0)| sqrt(Im tau)``; ``g`` depends only on the
    difference of its arguments, so the capacity is the same at every
    point.
    """
    spec = green.spec
    return math.exp(green.gamma) * abs(theta1_prime0(spec.tau)) * math.sqrt(spec.tau2)


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

    def weight(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.exp(-2.0 * math.pi * self.d * z.imag**2 / self.spec.tau2)
        return out if out.ndim else float(out)


def torus_gram(basis: ThetaBasis) -> float:
    """Squared norm ``1 / sqrt(2 d Im tau)`` of each weighted theta section
    against the unit volume form; the sections are orthogonal, so this
    times the identity is their Gram matrix (D. Mumford, *Tata Lectures on
    Theta I*, 1983).

    Over ``0 < Re z < 1``, ``theta_j conj(theta_k)`` keeps only its terms
    ``nu = mu`` (so ``j = k``), and the weighted modulus of term ``nu`` is
    ``exp(-2 pi d (Im z + nu Im tau)^2 / Im tau)``: the sum over ``nu``
    unfolds the integral over ``0 < Im z < Im tau`` into a Gaussian integral
    over the line.  The tests hold it against the trapezoid quadrature of
    the Gram (``tests/oracles.py::theta_gram``).
    """
    return 1.0 / math.sqrt(2.0 * basis.d * basis.spec.tau2)


def torus_bergman(spec: TorusSpec, d: int, ps) -> np.ndarray:
    """Weighted kernel diagonal ``K = weight sum_j |theta_j|^2 /``
    :func:`torus_gram` of the degree-``d`` section space at the points
    ``ps``, shaped as ``ps``.

    K is invariant under the division lattice ``(Z + tau Z) / d`` (the
    translations that fix the section space as a metrized bundle), and its
    torus mean is ``d``, the dimension of the section space.  Between
    division points it varies: on rectangular tori the mid-cell deviation
    depends on ``s = d min(Im tau, 1/Im tau)`` alone, and reads 1.8 to 8
    times ``exp(-pi s / 2)`` from 0.1i to 10i at ``d`` in {4, 6, 8} (0.5858
    at ``s = 1``); non-rectangular moduli were not measured.
    """
    basis = ThetaBasis(spec, d)
    ps = np.asarray(ps, dtype=complex)
    squares = sum(np.abs(basis.theta(j, ps)) ** 2 for j in range(d))
    return basis.weight(ps) * squares / torus_gram(basis)


# the aliasing bound of the kernel-mean trapezoid, relative to d: rounding
_MEAN_ALIAS = float(np.finfo(float).eps)


def _kernel_samples(spec: TorusSpec, d: int) -> tuple[np.ndarray, float]:
    """(K at the origin, at its translates ``1/d`` and ``(1 + tau)/d`` and
    at the mid-cell point ``(1 + tau)/(2d)``; the torus mean of K), from one
    :func:`torus_bergman` call.

    K is invariant under the division lattice, so its torus mean is its
    mean over one division cell, taken by the trapezoid on the nodes ``(a +
    b tau) / (m d)``, ``0 <= a, b < m``.  The rule misses only the Fourier
    modes of K whose indices are multiples of ``m``; a leading pair of them
    is at most ``2 exp(-pi d m^2 min(Im tau, 1/Im tau) / 2)`` relative to
    ``d``, and ``m`` is the smallest count that puts that below
    ``_MEAN_ALIAS``.
    """
    s = min(spec.tau2, 1.0 / spec.tau2)
    m = math.ceil(math.sqrt(2.0 * math.log(2.0 / _MEAN_ALIAS) / (math.pi * d * s)))
    a = np.arange(m) / (m * d)
    nodes = np.add.outer(a, a * spec.tau).ravel()
    base = np.array([0.0, 1.0, 1.0 + spec.tau, 0.5 * (1.0 + spec.tau)]) / d
    values = torus_bergman(spec, d, np.concatenate([base, nodes]))
    return values[: base.size], float(np.mean(values[base.size :]))


# ---------------------------------------------------------------------------
# Curvature bookkeeping and the inequality record
# ---------------------------------------------------------------------------


# the point and the five-point stencil step of curvature_coefficients, where
# x + iy stands for the point x + i y Im tau, as in _LAP_SAMPLES
_CURVATURE_POINT = 0.31 + 0.23j
_CURVATURE_STEP = 3e-4


def curvature_coefficients(green: ArakelovGreen, d: int) -> tuple[float, float]:
    """(a, b): curvature coefficients against the volume form of the Green
    weight ``2g`` and the degree-``d`` section weight, extracted by
    five-point finite differences of the implemented potentials at
    ``_CURVATURE_POINT`` with step ``_CURVATURE_STEP * min(1, Im tau)``,
    placed as :func:`laplacian_deviation` places its samples (a fixed point
    and step would let the stencil error in ``a`` grow like ``Im tau h^2``).

    The coefficient of a weight ``phi`` is ``(Im tau / 4 pi) Lap_euclid
    phi``; for ``-2g`` it integrates to 1 (Green condition), for the
    Gaussian line-bundle weight it equals the degree ``d``.
    """
    spec = green.spec
    basis = ThetaBasis(spec, d)

    z = complex(_CURVATURE_POINT.real, _CURVATURE_POINT.imag * spec.tau2)
    h = _CURVATURE_STEP * min(1.0, spec.tau2)
    factor = spec.tau2 / (4.0 * math.pi)
    a = -factor * _five_point_laplacian(lambda w: 2.0 * green(w), z, h)
    b = factor * _five_point_laplacian(lambda w: -np.log(basis.weight(w)), z, h)
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

    return 2.0 / spec.tau2 * residual_measure(psi_rest, lambda z: np.ones(np.shape(z)), t)


# the allowed negative inequality margin and max-zero grid supremum, and the
# gates on the residual-mass identity, the Laplacian deviation, the
# curvature ratio, the kernel diagonal spread and the kernel's mean
_MARGIN_TOL = 1e-9
_RESIDUAL_TOL = 1e-4
_LAP_TOL = 1e-5
_AB_TOL = 1e-6
_DIAG_TOL = 1e-6
_MEAN_TOL = 1e-12
# the shell depth of the residual mass: its e^{-t} bias, relative, must stay
# inside the absolute gate on masses up to 178.9 (mean-zero at tau = 0.1i),
# where it is 1.3e-4 at t = 20 and 2.4e-6 at t = 24
_T_RESIDUAL = 24.0


def arak1_check(spec: TorusSpec, d: int) -> ReportRecord:
    """Degree-``d`` kernel inequality on the torus with its side identities:

    * ``pi (1 + 1/(d/2 - 1)) * kernel >= capacity^2`` under both additive
      Green normalizations;
    * volume Laplacian of ``g`` equals -1 (finite differences);
    * curvature ratio ``2a/b = 2/d``;
    * kernel diagonal constant across division-lattice base points, and its
      torus mean equal to ``d``;
    * residual mass of ``2g`` equals ``2 / capacity^2``;
    * the max-zero ``g`` is at most 0 on the 97^2 grid, which shares only
      the pole node with the 96^2 grid of the polish that fixed its
      constant.

    The normalizations differ by a constant, so the Laplacian, curvature
    and residual mass are taken on the mean-zero ``g`` alone; the max-zero
    residual mass would repeat it, as ``mass_max(t) / expected_max =
    mass_mean(t - 2 (gamma_max - gamma_mean)) / expected_mean``.  Each gated
    quantity is written as ``-value`` against its gate.
    """
    require_degree(d)
    delta = d / 2.0 - 1.0
    factor = math.pi * (1.0 + 1.0 / delta)

    base, kernel_mean = _kernel_samples(spec, d)
    kernel, *others, midcell = base.tolist()
    diag_spread = float(np.max(np.abs(np.subtract(others, kernel)))) / kernel
    # between division-lattice points the diagonal varies; recorded for
    # reference, not gated
    midcell_dev = abs(midcell - kernel) / kernel
    lhs = factor * kernel

    green = arakelov_green(spec, "meanzero")
    lap_dev = laplacian_deviation(green)
    a, b = curvature_coefficients(green, d)
    two_a_over_b = 2.0 * a / b
    cap_mean = torus_capacity(green)
    rhs_mean = cap_mean * cap_mean
    mass = residual_mass(green, t=_T_RESIDUAL)
    mass_expected = 2.0 / rhs_mean
    green_max = arakelov_green(spec, "maxzero")
    cap_max = torus_capacity(green_max)
    rhs_max = cap_max * cap_max
    margin_mean, margin_max = lhs - rhs_mean, lhs - rhs_max
    grid_sup = float(np.max(_green_grid(spec, 97))) + green_max.gamma

    quantities = {
        "lhs": lhs,
        "kernel_diag": kernel,
        "delta": delta,
        "factor": factor,
        "diag_spread": diag_spread,
        "midcell_deviation": midcell_dev,
        "kernel_mean": kernel_mean,
        "laplacian_deviation": lap_dev,
        "curvature_a": a,
        "curvature_b": b,
        "two_a_over_b": two_a_over_b,
        "capacity_meanzero": cap_mean,
        "rhs_meanzero": rhs_mean,
        "margin_meanzero": margin_mean,
        "residual_mass_meanzero": mass,
        "residual_expected_meanzero": mass_expected,
        "capacity_maxzero": cap_max,
        "rhs_maxzero": rhs_max,
        "margin_maxzero": margin_max,
        "maxzero_grid_sup": grid_sup,
        "t_residual": _T_RESIDUAL,
    }
    gated = {  # name: (margin, tolerance)
        "diag_constancy": (-diag_spread, _DIAG_TOL),
        "kernel_mean": (-abs(kernel_mean / d - 1.0), _MEAN_TOL),
        "laplacian": (-lap_dev, _LAP_TOL),
        "curvature_ratio": (-abs(two_a_over_b - 2.0 / d), _AB_TOL),
        "inequality_meanzero": (margin_mean, _MARGIN_TOL),
        "residual_mass_meanzero": (-abs(mass - mass_expected), _RESIDUAL_TOL),
        "inequality_maxzero": (margin_max, _MARGIN_TOL),
        "maxzero_sup": (-grid_sup, _MARGIN_TOL),
    }
    from_kernel = ("lhs", "kernel_diag", "diag_spread", "midcell_deviation", "kernel_mean")
    return make_record(
        quantities=quantities,
        gates=gated,
        primary="lhs",
        provenance={
            k: "torus_bergman" if k in from_kernel else "arak1_check" for k in quantities
        },
    )
