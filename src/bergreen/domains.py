"""Planar domains, Green functions, and logarithmic capacity.

Supported domains are the disc, the annulus ``A(r, 1)`` and smooth Jordan
domains given by truncated Fourier coefficients of a positively wound
boundary parameterization.  Green functions follow the convention

    G(xi, z) = log|xi - z| + H(xi, z),

with ``H`` harmonic in ``xi``, ``G < 0`` inside and ``G = 0`` on the
boundary.  The logarithmic capacity is ``c_beta(z) = exp(H(z, z))``.

Three evaluation methods are provided:

* ``closed_form``   -- disc of any radius,
* ``laurent_modes`` -- annulus, via per-mode closed-form coefficients,
* ``nystrom``       -- smooth Jordan domains (and the annulus, with the
  standard one-log-source augmentation for the hole), via a double layer
  potential discretized with the trapezoid rule.

:class:`GreenEvaluator` is the one way to evaluate them, and it holds every
guard: both points must lie inside the domain, and on the Nystrom method
farther than ``1e-3 * diameter`` from the boundary; the Nystrom system must
be well conditioned, and its value must be certified by the same problem
solved on half (or, failing that, twice) the nodes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    CoincidentPointsError,
    DomainError,
    ExtrapolationDivergenceError,
    NonConvergenceError,
    SolverSingularError,
)
from .reports import ReportRecord, finite_margin, make_record

__all__ = [
    "Disc",
    "Annulus",
    "Jordan",
    "GreenEvaluator",
    "GREEN_METHODS",
    "green_evaluator",
    "capacity",
    "green_record",
    "capacity_record",
    "gauss_legendre",
    "refine",
    "sample_interior",
]

_COINCIDENT_TOL = 1e-14
# the Nystrom refinement tolerance (see GreenEvaluator._nystrom_remainder)
_REFINE_TOL = 1e-7

# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    """Open disc of given radius centered at the origin."""

    radius: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainError("disc radius must be positive and finite")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, z: complex) -> bool:
        return abs(z) < self.radius

    def boundary_distance(self, z: complex) -> float:
        return self.radius - abs(z)


@dataclass(frozen=True)
class Annulus:
    """Annulus ``r_inner < |z| < 1``; the outer radius is fixed at 1."""

    r_inner: float

    def __post_init__(self):
        if not (0.0 < self.r_inner < 1.0):
            raise DomainError("annulus requires 0 < r_inner < 1")

    @property
    def diameter(self) -> float:
        return 2.0

    def contains(self, z: complex) -> bool:
        return self.r_inner < abs(z) < 1.0

    def boundary_distance(self, z: complex) -> float:
        return min(1.0 - abs(z), abs(z) - self.r_inner)


# boundary samples of the Jordan simplicity and winding tests
_VALIDATE_SAMPLES = 1024
_WINDING_SAMPLES = 2048


@functools.cache
def _far_pairs() -> np.ndarray:
    """Mask of the sample pairs of :meth:`Jordan._validate` more than
    1/32 of the ring apart, which a simple curve keeps separated; built
    once per process, on the first Jordan domain."""
    idx = np.arange(_VALIDATE_SAMPLES)
    gap = np.abs(idx[:, None] - idx[None, :])
    mask = np.minimum(gap, _VALIDATE_SAMPLES - gap) > _VALIDATE_SAMPLES // 32
    mask.setflags(write=False)
    return mask


class Jordan:
    """Smooth Jordan domain bounded by a curve with Fourier parameterization.

    The boundary is ``gamma(t) = sum_k c_k exp(i k t)`` for ``t`` in
    ``[0, 2pi)``, winding positively (counterclockwise) around the domain.

    Parameters
    ----------
    coeffs : dict[int, complex]
        Fourier coefficients ``c_k`` indexed by (possibly negative) integer
        frequency.
    """

    def __init__(self, coeffs: dict[int, complex]):
        if not coeffs:
            raise DomainError("Jordan boundary needs at least one coefficient")
        self._indices = np.array(sorted(coeffs), dtype=np.int64)
        self._coeffs = np.array([complex(coeffs[k]) for k in sorted(coeffs)])
        self.coeffs = {int(k): complex(coeffs[k]) for k in sorted(coeffs)}
        self._validate()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def circle(cls, radius: float = 1.0, center: complex = 0.0) -> "Jordan":
        c = {1: complex(radius)}
        if center != 0:
            c[0] = complex(center)
        return cls(c)

    @classmethod
    def ellipse(cls, a: float, b: float, center: complex = 0.0) -> "Jordan":
        """Ellipse with semi-axes ``a`` (real direction) and ``b``."""
        c = {1: (a + b) / 2.0 + 0j, -1: (a - b) / 2.0 + 0j}
        if center != 0:
            c[0] = complex(center)
        return cls(c)

    @classmethod
    def from_file(cls, path) -> "Jordan":
        """Read boundary Fourier coefficients from a text file.

        Each non-comment line holds ``index  re  im`` (whitespace separated);
        lines starting with ``#`` are ignored.
        """
        coeffs: dict[int, complex] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise DomainError(
                        f"{path}:{lineno}: expected 'index re im', got {line!r}"
                    )
                try:
                    k = int(parts[0])
                    re, im = float(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: {exc}") from exc
                if k in coeffs:
                    raise DomainError(f"{path}:{lineno}: duplicate index {k}")
                coeffs[k] = complex(re, im)
        return cls(coeffs)

    # -- geometry ------------------------------------------------------------

    def point(self, t) -> np.ndarray:
        """Boundary point(s) ``gamma(t)``; vectorized in ``t``."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, self._indices.astype(float)))
        return phases @ self._coeffs

    def tangent(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k = self._indices.astype(float)
        phases = np.exp(1j * np.multiply.outer(t, k))
        return phases @ (1j * k * self._coeffs)

    def second(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k = self._indices.astype(float)
        phases = np.exp(1j * np.multiply.outer(t, k))
        return phases @ (-(k**2) * self._coeffs)

    def _validate(self) -> None:
        t = np.linspace(0.0, 2.0 * math.pi, _VALIDATE_SAMPLES, endpoint=False)
        pts = self.point(t)
        dpt = self.tangent(t)
        if np.min(np.abs(dpt)) < 1e-9:
            raise DomainError("boundary parameterization derivative vanishes")
        # simplicity: non-neighboring samples must stay separated
        d = np.abs(pts[:, None] - pts[None, :])
        if np.min(d[_far_pairs()]) < 1e-9:
            raise DomainError("boundary self-intersects on a dense sample")
        # positive winding around an interior reference point
        t = np.linspace(0.0, 2.0 * math.pi, _WINDING_SAMPLES, endpoint=False)
        self._winding_samples = (self.point(t), self.tangent(t))
        centroid = complex(np.mean(pts))
        if self.winding(centroid) != 1:
            raise DomainError("boundary must wind positively (counterclockwise)")
        self._cached_samples = pts
        self._cached_diameter = float(np.max(d))

    @property
    def diameter(self) -> float:
        return self._cached_diameter

    def winding(self, z: complex) -> int:
        pts, dpt = self._winding_samples
        vals = dpt / (pts - z)
        integral = np.sum(vals) * (2.0 * math.pi / _WINDING_SAMPLES)
        return int(round((integral / (2j * math.pi)).real))

    def contains(self, z: complex) -> bool:
        if np.min(np.abs(self._cached_samples - z)) < 1e-12:
            return False
        return self.winding(z) == 1

    def boundary_distance(self, z: complex) -> float:
        return float(np.min(np.abs(self._cached_samples - z)))


PlanarDomain = Disc | Annulus | Jordan


# ---------------------------------------------------------------------------
# Closed form: disc
# ---------------------------------------------------------------------------


def _check_distinct(z: complex, w: complex) -> None:
    if abs(z - w) < _COINCIDENT_TOL:
        raise CoincidentPointsError(f"points {z} and {w} coincide")


def _disc_remainder(z: complex, w: complex, radius: float = 1.0) -> float:
    R = float(radius)
    return math.log(R / abs(R * R - w.conjugate() * z))


def _disc_robin(z: complex, radius: float = 1.0) -> float:
    R = float(radius)
    return math.log(R / (R * R - abs(z) ** 2))


# ---------------------------------------------------------------------------
# Laurent modes: annulus
# ---------------------------------------------------------------------------


def _annulus_tail_ratio(r: float, z: complex, w: complex) -> float:
    az, aw = abs(z), abs(w)
    return max(az * aw, r * r / (az * aw), r * r * az / aw, r * r * aw / az)


def _annulus_modes_auto(q: float, tol: float, lo: int = 64, hi: int = 4_000_000) -> int:
    """Smallest mode count with geometric tail ``q^N/(1-q)`` below ``tol``."""
    if q <= 0.0:
        return lo
    n = math.log(max(tol, 1e-300) * (1.0 - q)) / math.log(q)
    return int(min(max(lo, math.ceil(n) + 8), hi))


def _annulus_remainder(
    r: float, z: complex, w: complex, modes: int
) -> tuple[float, float]:
    """Harmonic remainder ``H(z, w)`` on ``A(r, 1)`` and a tail estimate.

    ``H = d0 log|z| + sum_k Re[alpha_k z^k + beta_k z^{-k}]`` where the
    coefficients solve the two-circle Dirichlet matching problem:

        beta_k  = r^{2k} (conj(w)^{-k} - w^k) / (k (1 - r^{2k})),
        alpha_k = conj(w)^k / k - conj(beta_k),
        d0      = log|w| / log(1/r).

    All mode terms are assembled from bases of modulus < 1 so the sum is
    overflow-free for any admissible pair of points.
    """
    d0 = math.log(abs(w)) / math.log(1.0 / r)
    out = d0 * math.log(abs(z))

    k = np.arange(1, modes + 1, dtype=float)
    r2k = np.exp(k * (2.0 * math.log(r)))  # r^(2k), safe
    denom = k * (1.0 - r2k)

    wb = w.conjugate()
    B2 = r * r / wb  # |.| = r^2/|w| < 1
    B3 = r * r * w  # |.| < r^2

    # beta_k z^{-k} = ((B2/z)^k - (B3/z)^k) / denom
    t_bz = (np.power(B2 / z, k) - np.power(B3 / z, k)) / denom
    # conj(beta_k) z^k = ((conj(B2) z)^k - (conj(B3) z)^k) / denom
    t_cbz = (np.power(B2.conjugate() * z, k) - np.power(B3.conjugate() * z, k)) / denom
    # alpha_k z^k = (conj(w) z)^k / k - conj(beta_k) z^k
    t_az = np.power(wb * z, k) / k - t_cbz

    out += float(np.sum(t_az.real + t_bz.real))

    q = _annulus_tail_ratio(r, z, w)
    if q >= 1.0:
        raise NonConvergenceError("mode series does not converge at these points")
    tail = 3.0 * q ** (modes + 1) / ((1.0 - q) * (modes + 1) * (1.0 - r * r))
    return out, tail


def _annulus_robin(r: float, z: complex, modes: int | None = None) -> float:
    """Diagonal remainder ``H(z, z)`` on the annulus.

    The pure-disc part sums to ``-log(1 - |z|^2)`` in closed form; the
    remaining correction terms decay at least like ``max(r^2/|z|^2, r^2|z|^2,
    r^2)^k`` and are summed adaptively.
    """
    s2 = abs(z) ** 2
    q = max(r * r / s2, r * r * s2, r * r)
    n = modes if modes is not None else _annulus_modes_auto(q, 1e-14)
    k = np.arange(1, n + 1, dtype=float)
    r2k = np.exp(k * (2.0 * math.log(r)))
    corr = (
        np.power(r * r / s2, k) - 2.0 * r2k + np.power(r * r * s2, k)
    ) / (k * (1.0 - r2k))
    lz = math.log(abs(z))
    return lz * lz / math.log(1.0 / r) - math.log1p(-s2) + float(np.sum(corr))


# ---------------------------------------------------------------------------
# Nystrom solver (double layer potential, trapezoid rule)
# ---------------------------------------------------------------------------


_ASSEMBLY_ROWS = 128


class _NystromSolver:
    """Dirichlet solver for the Laplacian via a double layer potential.

    The solution is represented as ``u(x) = D mu(x) + sum_j b_j log|x - c_j|``
    where ``D`` is the double layer over all boundary components and one log
    source per hole (with center ``c_j``) supplies the flux degrees of
    freedom of a multiply connected domain.  Interior limits satisfy
    ``(-I/2 + K) mu + sum_j b_j log|x - c_j| = f`` plus one mean-density side
    condition per hole.
    """

    def __init__(self, components, hole_centers, n_per_component: int):
        # components: list of (point_fn, tangent_fn, second_fn) callables
        self.n = int(n_per_component)
        self.hole_centers = [complex(c) for c in hole_centers]
        pts, tans, secs = [], [], []
        self.slices = []
        start = 0
        for point_fn, tangent_fn, second_fn in components:
            t = np.linspace(0.0, 2.0 * math.pi, self.n, endpoint=False)
            pts.append(point_fn(t))
            tans.append(tangent_fn(t))
            secs.append(second_fn(t))
            self.slices.append(slice(start, start + self.n))
            start += self.n
        self.pts = np.concatenate(pts)
        self.tans = np.concatenate(tans)
        self.secs = np.concatenate(secs)
        self.speed = np.abs(self.tans)
        self.normals = -1j * self.tans / self.speed
        self.curv = np.imag(np.conj(self.tans) * self.secs) / self.speed**3
        self.h = 2.0 * math.pi / self.n
        self.weights = self.speed * self.h
        self._assemble()

    def _assemble(self) -> None:
        y = self.pts
        m = self.pts.size
        nh = len(self.hole_centers)
        A = np.zeros((m + nh, m + nh))
        # rows in blocks, so the complex temporaries of a large system stay
        # a fraction of its matrix; each entry is computed as on whole rows
        for lo in range(0, m, _ASSEMBLY_ROWS):
            rows = slice(lo, lo + _ASSEMBLY_ROWS)
            diff = y[None, :] - y[rows, None]  # y_j - x_i
            with np.errstate(divide="ignore", invalid="ignore"):
                kern = (
                    -np.real(np.conj(self.normals)[None, :] * diff)
                    / (2.0 * math.pi * np.abs(diff) ** 2)
                )
            A[rows, :m] = kern * self.weights[None, :]
        diag = np.arange(m)
        A[diag, diag] = (-self.curv / (4.0 * math.pi)) * self.weights
        A[diag, diag] -= 0.5
        for j, c in enumerate(self.hole_centers):
            A[:m, m + j] = np.log(np.abs(y - c))
            # side condition: mean density over the hole component
            sl = self.slices[1 + j]
            A[m + j, sl] = self.weights[sl]
        self.matrix = A
        self._lu = None

    def solve(self, f_boundary: np.ndarray) -> np.ndarray:
        import scipy.linalg

        if self._lu is None:
            self._lu = scipy.linalg.lu_factor(self.matrix)
        nh = len(self.hole_centers)
        rhs = np.concatenate([f_boundary, np.zeros(nh)])
        return scipy.linalg.lu_solve(self._lu, rhs)

    def evaluate(self, sol: np.ndarray, x) -> np.ndarray:
        """Evaluate the represented harmonic function at interior point(s)."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        m = self.pts.size
        mu = sol[:m]
        diff = self.pts[None, :] - x[:, None]
        kern = (
            -np.real(np.conj(self.normals)[None, :] * diff)
            / (2.0 * math.pi * np.abs(diff) ** 2)
        )
        out = kern @ (mu * self.weights)
        for j, c in enumerate(self.hole_centers):
            out += sol[m + j] * np.log(np.abs(x - c))
        return out


def _circle(radius: float, turn: int):
    """(point, tangent, second derivative) of ``radius * exp(i turn t)``;
    ``turn`` is 1 (counterclockwise) or -1 (clockwise)."""

    def point(t):
        return radius * np.exp(1j * turn * t)

    def tangent(t):
        return 1j * turn * point(t)

    def second(t):
        return -point(t)

    return point, tangent, second


def _nystrom_components(domain: PlanarDomain):
    """Boundary components (outward-from-domain orientation) and hole centers."""
    if isinstance(domain, Jordan):
        return [(domain.point, domain.tangent, domain.second)], []
    if isinstance(domain, Disc):
        return [_circle(domain.radius, 1)], []
    if isinstance(domain, Annulus):
        # inner circle, clockwise so the domain stays on the left
        return [_circle(1.0, 1), _circle(domain.r_inner, -1)], [0.0 + 0.0j]
    raise DomainError(f"unsupported domain {domain!r}")


# ---------------------------------------------------------------------------
# Evaluator facade and capacity
# ---------------------------------------------------------------------------


# what ``green_evaluator`` accepts; ``auto`` picks by the domain's type
GREEN_METHODS = ("auto", "closed_form", "laurent_modes", "nystrom")


@dataclass
class GreenEvaluator:
    """Uniform interface over the three Green function methods.

    ``green(xi, z)`` and ``remainder(xi, z)`` evaluate ``G`` and
    ``H = G - log|xi - z|``; ``robin(z)`` returns ``H(z, z)`` directly for
    the closed-form and mode methods.

    Every evaluation is guarded: a point outside the domain raises
    :class:`DomainError`, and so does, on the Nystrom method, a point
    within ``1e-3 * diameter`` of the boundary.  The Nystrom method reports
    the ``quad_points`` value and raises :class:`AccuracyError` unless the
    same problem on ``quad_points // 2`` (or, failing that, twice as many)
    nodes certifies it; each witness system is built on first use and its
    densities are cached per pole, as the main system's are.
    """

    domain: PlanarDomain
    method: str
    modes: int | None = None
    quad_points: int = 256
    tail_tol: float = 1e-9
    _solver: object = field(default=None, repr=False)
    _density_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.method not in GREEN_METHODS[1:]:
            raise DomainError(
                f"unknown Green function method {self.method!r} "
                f"(use {' | '.join(GREEN_METHODS[1:])})"
            )
        if self.method == "closed_form" and not isinstance(self.domain, Disc):
            raise DomainError("closed_form method is only available on discs")
        if self.method == "laurent_modes" and not isinstance(self.domain, Annulus):
            raise DomainError("laurent_modes method is only available on annuli")
        if self.method == "nystrom":
            if self.quad_points < 64:
                raise DomainError("quad_points must be at least 64")
            self._solver = _NystromSolver(*_nystrom_components(self.domain), self.quad_points)
            cond = float(np.linalg.cond(self._solver.matrix))
            if cond > 1e12:
                raise SolverSingularError(f"boundary system condition {cond:.3e} exceeds 1e12")

    # -- internals -----------------------------------------------------------

    def _check_inside(self, *points: complex) -> None:
        dom = self.domain
        for p in points:
            if not dom.contains(p):
                raise DomainError(f"point {p} is not inside the domain")
            if self.method == "nystrom" and dom.boundary_distance(p) <= 1e-3 * dom.diameter:
                raise DomainError(f"point {p} is closer to the boundary than 1e-3 * diameter")

    def _modes_for(self, z: complex, w: complex) -> int:
        if self.modes is not None:
            return self.modes
        q = _annulus_tail_ratio(self.domain.r_inner, z, w)
        return _annulus_modes_auto(q, self.tail_tol * 1e-2)

    @functools.cached_property
    def _half(self) -> _NystromSolver:
        return _NystromSolver(*_nystrom_components(self.domain), self.quad_points // 2)

    @functools.cached_property
    def _double(self) -> _NystromSolver:
        return _NystromSolver(*_nystrom_components(self.domain), 2 * self.quad_points)

    def _nystrom_value(self, solver: _NystromSolver, xi: complex, z: complex) -> float:
        key = (solver.n, complex(z))
        sol = self._density_cache.get(key)
        if sol is None:
            f = -np.log(np.abs(solver.pts - z))
            sol = self._density_cache[key] = solver.solve(f)
        return float(solver.evaluate(sol, xi)[0])

    def _nystrom_remainder(self, xi: complex, z: complex) -> float:
        """``H`` on ``n = quad_points`` nodes, certified to ``_REFINE_TOL / 3``.

        The discretization error at least quarters per doubling of ``n``
        (``test_convergence_at_least_quadratic``), so either
        ``|h_n - h_{n/2}| <= tol`` or ``|h_n - h_{2n}| <= tol / 4`` bounds
        the error of ``h_n`` by ``tol / 3``.  The ``n/2`` witness is tried
        first; the ``2n`` system is built only when it cannot tell, as near
        the boundary, where the error falls much faster than quadratically.
        """
        h = self._nystrom_value(self._solver, xi, z)
        if abs(h - self._nystrom_value(self._half, xi, z)) <= _REFINE_TOL:
            return h
        moved = abs(h - self._nystrom_value(self._double, xi, z))
        if not moved <= _REFINE_TOL / 4:
            raise AccuracyError(
                f"doubling quad_points moved the result by {moved:.3e} "
                f"(> {_REFINE_TOL / 4:.1e}) and halving it by more than {_REFINE_TOL:.0e}"
            )
        return h

    # -- public API ------------------------------------------------------------

    def remainder(self, xi: complex, z: complex) -> float:
        self._check_inside(z, xi)
        if self.method == "closed_form":
            return _disc_remainder(xi, z, self.domain.radius)
        if self.method == "laurent_modes":
            h, tail = _annulus_remainder(
                self.domain.r_inner, xi, z, self._modes_for(xi, z)
            )
            if tail > self.tail_tol:
                raise NonConvergenceError(
                    f"tail estimate {tail:.3e} exceeds {self.tail_tol:.3e}"
                )
            return h
        return self._nystrom_remainder(xi, z)

    def green(self, xi: complex, z: complex) -> float:
        _check_distinct(xi, z)
        return math.log(abs(xi - z)) + self.remainder(xi, z)

    def robin(self, z: complex) -> float:
        """Diagonal remainder ``H(z, z)``; closed-form methods only."""
        if self.method == "nystrom":
            raise DomainError("robin(z) needs a closed-form or mode evaluator")
        self._check_inside(z)
        if self.method == "closed_form":
            return _disc_robin(z, self.domain.radius)
        return _annulus_robin(self.domain.r_inner, z, self.modes)


def green_evaluator(
    domain: PlanarDomain,
    method: str = "auto",
    modes: int | None = None,
    quad_points: int = 256,
    tail_tol: float = 1e-9,
) -> GreenEvaluator:
    """Construct the natural evaluator for the domain.

    ``auto`` picks ``closed_form`` for discs, ``laurent_modes`` for annuli
    and ``nystrom`` for Jordan domains.
    """
    if method == "auto":
        if isinstance(domain, Disc):
            method = "closed_form"
        elif isinstance(domain, Annulus):
            method = "laurent_modes"
        else:
            method = "nystrom"
    return GreenEvaluator(
        domain, method, modes=modes, quad_points=quad_points, tail_tol=tail_tol
    )


_CAPACITY_ANGLES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)


def capacity(
    evaluator: GreenEvaluator | PlanarDomain,
    z: complex,
    cap_tol: float = 1e-6,
    eps_pair: tuple[float, float] = (1e-4, 1e-5),
    force_limit: bool = False,
) -> float:
    """Logarithmic capacity ``c_beta(z) = exp(H(z, z))``.

    Closed-form and mode evaluators use the exact diagonal unless
    ``force_limit``; otherwise ``H(z, z)`` is the Richardson-extrapolated
    limit of four-angle averages of ``H(z + eps e^{i theta}, z)`` over the
    two radii in ``eps_pair``.  The two stage averages must agree within
    ``cap_tol`` or :class:`ExtrapolationDivergenceError` is raised.
    """
    if not isinstance(evaluator, GreenEvaluator):
        evaluator = green_evaluator(evaluator)
    if evaluator.method in ("closed_form", "laurent_modes") and not force_limit:
        return math.exp(evaluator.robin(z))

    eps1, eps2 = eps_pair
    if not eps1 > eps2 > 0:
        raise ValueError("eps_pair must be decreasing and positive")

    def stage(eps: float) -> float:
        vals = [
            evaluator.remainder(z + eps * cmath.exp(1j * th), z)
            for th in _CAPACITY_ANGLES
        ]
        return sum(vals) / len(vals)

    a1, a2 = stage(eps1), stage(eps2)
    if abs(a1 - a2) > cap_tol:
        raise ExtrapolationDivergenceError(
            f"epsilon stages differ by {abs(a1 - a2):.3e} (> cap_tol)"
        )
    rho = (eps1 / eps2) ** 2
    h_diag = (rho * a2 - a1) / (rho - 1.0)
    return math.exp(h_diag)


def green_record(domain: PlanarDomain, xi: complex, z: complex, method: str) -> ReportRecord:
    """``G(xi, z)`` and its remainder ``H(xi, z)`` by the evaluator
    ``method``; the record passes while both are finite."""
    ev = green_evaluator(domain, method=method)
    _check_distinct(xi, z)
    h = ev.remainder(xi, z)
    # G from the one remainder evaluation, as GreenEvaluator.green forms it
    g = math.log(abs(xi - z)) + h
    return make_record(
        command="green",
        input_id=f"{domain!r} xi={xi} z={z}",
        inputs={"domain": repr(domain), "method": method, "xi": xi, "z": z},
        quantities={"green": g, "remainder": h},
        margins={"finite": finite_margin(g, h)},
        tolerances={"finite": 0.0},
        primary="green",
        provenance={"green": "green_evaluator", "remainder": "green_evaluator"},
    )


def capacity_record(domain: PlanarDomain, z: complex, cap_tol: float) -> ReportRecord:
    """Logarithmic capacity ``c_beta(z)`` (see :func:`capacity`); the
    record passes while it is finite."""
    val = capacity(domain, z, cap_tol=cap_tol)
    return make_record(
        command="capacity",
        input_id=f"{domain!r} z={z}",
        inputs={"domain": repr(domain), "z": z, "cap_tol": cap_tol},
        quantities={"capacity": val, "log_capacity": math.log(val)},
        margins={"finite": finite_margin(val)},
        tolerances={"finite": 0.0},
        primary="capacity",
        provenance={"capacity": "capacity", "log_capacity": "capacity"},
    )


# ---------------------------------------------------------------------------
# Quadrature nodes and refinement (shared by the Gram, shell and torus
# integrals)
# ---------------------------------------------------------------------------


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``n``-point Gauss-Legendre nodes and weights on [-1, 1],
    computed once per process.

    The cache is keyed on the rule bound at
    ``numpy.polynomial.legendre.leggauss`` as well as on ``n``, so a
    replaced rule (a test double, an instrumenting wrapper) is computed
    afresh instead of being served the nodes of the rule it replaced.
    """
    return _gauss_legendre(n, np.polynomial.legendre.leggauss)


@functools.cache
def _gauss_legendre(n: int, rule) -> tuple[np.ndarray, np.ndarray]:
    x, w = rule(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def refine(compute, change, tol: float, doublings: int):
    """``(value, moved)`` of the first doubling level that moved at most
    ``tol`` from the level before it.

    ``compute(k)`` evaluates a quadrature at level ``k``, on ``2**k`` times
    the nodes of level 0, and ``change(fine, coarse)`` is the scaled change
    between two consecutive levels.  Level 0 is computed, then levels
    ``1 .. doublings`` in turn; :class:`AccuracyError` is raised if none of
    them passes, and a NaN change never passes.
    """
    coarse = compute(0)
    for k in range(1, doublings + 1):
        fine = compute(k)
        moved = change(fine, coarse)
        if moved <= tol:
            return fine, moved
        coarse = fine
    raise AccuracyError(
        f"quadrature unresolved after {doublings} doubling(s): "
        f"the last one moved it by {moved:.3e} (tolerance {tol:.1e})"
    )


# ---------------------------------------------------------------------------
# Deterministic interior sampling (used by checks and the CLI)
# ---------------------------------------------------------------------------


def sample_interior(
    domain: PlanarDomain, count: int, seed: int = 0, margin: float = 0.05
) -> list[complex]:
    """Deterministic pseudo-random interior points, away from the boundary."""
    rng = np.random.default_rng(seed)
    out: list[complex] = []
    if isinstance(domain, Disc):
        R = domain.radius * (1.0 - margin)
        r0 = domain.radius * margin
        while len(out) < count:
            rad = r0 + (R - r0) * math.sqrt(rng.random())
            out.append(rad * cmath.exp(2j * math.pi * rng.random()))
        return out
    if isinstance(domain, Annulus):
        lo = domain.r_inner + margin * (1.0 - domain.r_inner)
        hi = 1.0 - margin * (1.0 - domain.r_inner)
        while len(out) < count:
            rad = lo + (hi - lo) * rng.random()
            out.append(rad * cmath.exp(2j * math.pi * rng.random()))
        return out
    # Jordan: rejection sampling in the bounding box
    pts = domain._cached_samples
    xlo, xhi = float(np.min(pts.real)), float(np.max(pts.real))
    ylo, yhi = float(np.min(pts.imag)), float(np.max(pts.imag))
    guard = margin * domain.diameter
    while len(out) < count:
        cand = complex(
            xlo + (xhi - xlo) * rng.random(), ylo + (yhi - ylo) * rng.random()
        )
        if domain.contains(cand) and domain.boundary_distance(cand) > guard:
            out.append(cand)
    return out
