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

__all__ = [
    "Disc",
    "Annulus",
    "Jordan",
    "GreenEvaluator",
    "green_disc",
    "green_annulus",
    "green_nystrom",
    "green_evaluator",
    "capacity",
    "gauss_legendre",
    "sample_interior",
]

_COINCIDENT_TOL = 1e-14

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

    def _validate(self, samples: int = 1024) -> None:
        t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        pts = self.point(t)
        dpt = self.tangent(t)
        if np.min(np.abs(dpt)) < 1e-9:
            raise DomainError("boundary parameterization derivative vanishes")
        # simplicity: non-neighboring samples must stay separated
        sep = samples // 32
        d = np.abs(pts[:, None] - pts[None, :])
        idx = np.arange(samples)
        ring = np.minimum(
            np.abs(idx[:, None] - idx[None, :]),
            samples - np.abs(idx[:, None] - idx[None, :]),
        )
        mask = ring > sep
        if np.min(d[mask]) < 1e-9:
            raise DomainError("boundary self-intersects on a dense sample")
        # positive winding around an interior reference point
        centroid = complex(np.mean(pts))
        if self.winding(centroid) != 1:
            raise DomainError("boundary must wind positively (counterclockwise)")
        self._cached_samples = pts
        self._cached_diameter = float(np.max(d))

    @property
    def diameter(self) -> float:
        return self._cached_diameter

    def winding(self, z: complex, samples: int = 2048) -> int:
        t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        pts = self.point(t)
        dpt = self.tangent(t)
        vals = dpt / (pts - z)
        integral = np.sum(vals) * (2.0 * math.pi / samples)
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


def green_disc(z: complex, w: complex, radius: float = 1.0) -> float:
    """Green function of the disc of given radius, closed form.

    ``G(z, w) = log( R |z - w| / |R^2 - conj(w) z| )``.
    """
    R = float(radius)
    if abs(z) >= R or abs(w) >= R:
        raise DomainError("points must lie strictly inside the disc")
    _check_distinct(z, w)
    return math.log(R * abs(z - w) / abs(R * R - w.conjugate() * z))


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


def green_annulus(
    domain: Annulus,
    z: complex,
    w: complex,
    modes: int = 64,
    tail_tol: float = 1e-9,
) -> float:
    """Green function of ``A(r, 1)`` via the truncated mode expansion.

    Raises :class:`NonConvergenceError` when the mode-``modes`` geometric
    tail estimate exceeds ``tail_tol``.
    """
    r = domain.r_inner
    if not (domain.contains(z) and domain.contains(w)):
        raise DomainError("points must lie strictly inside the annulus")
    _check_distinct(z, w)
    h, tail = _annulus_remainder(r, z, w, modes)
    if tail > tail_tol:
        raise NonConvergenceError(
            f"mode-{modes} tail estimate {tail:.3e} exceeds tail_tol={tail_tol:.3e}"
        )
    return math.log(abs(z - w)) + h


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
        diff = y[None, :] - y[:, None]  # y_j - x_i
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = (
                -np.real(np.conj(self.normals)[None, :] * diff)
                / (2.0 * math.pi * np.abs(diff) ** 2)
            )
        np.fill_diagonal(kern, -self.curv / (4.0 * math.pi))
        m = self.pts.size
        nh = len(self.hole_centers)
        A = np.zeros((m + nh, m + nh))
        A[:m, :m] = kern * self.weights[None, :]
        A[:m, :m] -= 0.5 * np.eye(m)
        for j, c in enumerate(self.hole_centers):
            A[:m, m + j] = np.log(np.abs(y - c))
            # side condition: mean density over the hole component
            sl = self.slices[1 + j]
            A[m + j, sl] = self.weights[sl]
        self.matrix = A
        self.condition = float(np.linalg.cond(A))
        if self.condition > 1e12:
            raise SolverSingularError(
                f"boundary system condition {self.condition:.3e} exceeds 1e12"
            )
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


def _nystrom_components(domain: PlanarDomain):
    """Boundary components (outward-from-domain orientation) and hole centers."""
    if isinstance(domain, Jordan):
        return [(domain.point, domain.tangent, domain.second)], []
    if isinstance(domain, Disc):
        R = domain.radius

        def p(t):
            return R * np.exp(1j * t)

        def dp(t):
            return 1j * R * np.exp(1j * t)

        def ddp(t):
            return -R * np.exp(1j * t)

        return [(p, dp, ddp)], []
    if isinstance(domain, Annulus):
        r = domain.r_inner

        def po(t):
            return np.exp(1j * t)

        def dpo(t):
            return 1j * np.exp(1j * t)

        def ddpo(t):
            return -np.exp(1j * t)

        # inner circle, clockwise so the domain stays on the left
        def pi_(t):
            return r * np.exp(-1j * t)

        def dpi(t):
            return -1j * r * np.exp(-1j * t)

        def ddpi(t):
            return -r * np.exp(-1j * t)

        return [(po, dpo, ddpo), (pi_, dpi, ddpi)], [0.0 + 0.0j]
    raise DomainError(f"unsupported domain {domain!r}")


def _interior_guard(domain: PlanarDomain, z: complex) -> None:
    if not domain.contains(z):
        raise DomainError(f"point {z} is not inside the domain")
    if domain.boundary_distance(z) <= 1e-3 * domain.diameter:
        raise DomainError(
            f"point {z} is closer to the boundary than 1e-3 * diameter"
        )


def green_nystrom(
    domain: PlanarDomain,
    z: complex,
    w: complex,
    quad_points: int = 256,
    refine_tol: float = 1e-7,
    check_refinement: bool = True,
) -> float:
    """Green function via the Nystrom-discretized double layer equation.

    Solves the Dirichlet problem for the harmonic correction ``H(., w)``
    with boundary data ``-log|. - w|`` and returns ``log|z - w| + H(z, w)``.
    With ``check_refinement`` the computation is repeated at twice the
    quadrature size; an :class:`AccuracyError` is raised when the results
    differ by more than ``refine_tol``.
    """
    if quad_points < 64:
        raise DomainError("quad_points must be at least 64")
    _interior_guard(domain, z)
    _interior_guard(domain, w)
    _check_distinct(z, w)

    def run(n: int) -> float:
        comps, holes = _nystrom_components(domain)
        solver = _NystromSolver(comps, holes, n)
        f = -np.log(np.abs(solver.pts - w))
        sol = solver.solve(f)
        return float(solver.evaluate(sol, z)[0])

    h1 = run(quad_points)
    if check_refinement:
        h2 = run(2 * quad_points)
        if abs(h1 - h2) > refine_tol:
            raise AccuracyError(
                f"doubling quad_points moved the result by {abs(h1 - h2):.3e} "
                f"(> refine_tol={refine_tol:.3e})"
            )
        h1 = h2
    return math.log(abs(z - w)) + h1


# ---------------------------------------------------------------------------
# Evaluator facade and capacity
# ---------------------------------------------------------------------------


@dataclass
class GreenEvaluator:
    """Uniform interface over the three Green function methods.

    ``green(xi, z)`` and ``remainder(xi, z)`` evaluate ``G`` and
    ``H = G - log|xi - z|``; ``robin(z)`` returns ``H(z, z)`` directly for
    the closed-form and mode methods.
    """

    domain: PlanarDomain
    method: str
    modes: int | None = None
    quad_points: int = 256
    tail_tol: float = 1e-9
    _solver: object = field(default=None, repr=False)
    _density_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.method == "nystrom":
            comps, holes = _nystrom_components(self.domain)
            self._solver = _NystromSolver(comps, holes, self.quad_points)

    # -- internals -----------------------------------------------------------

    def _modes_for(self, z: complex, w: complex) -> int:
        if self.modes is not None:
            return self.modes
        q = _annulus_tail_ratio(self.domain.r_inner, z, w)
        return _annulus_modes_auto(q, self.tail_tol * 1e-2)

    def _nystrom_remainder(self, xi: complex, z: complex) -> float:
        key = complex(z)
        sol = self._density_cache.get(key)
        if sol is None:
            f = -np.log(np.abs(self._solver.pts - z))
            sol = self._solver.solve(f)
            self._density_cache[key] = sol
        return float(self._solver.evaluate(sol, xi)[0])

    # -- public API ------------------------------------------------------------

    def remainder(self, xi: complex, z: complex) -> float:
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
        if self.method == "closed_form":
            return _disc_robin(z, self.domain.radius)
        if self.method == "laurent_modes":
            return _annulus_robin(self.domain.r_inner, z, self.modes)
        raise DomainError("robin(z) needs a closed-form or mode evaluator")


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
    if method == "closed_form" and not isinstance(domain, Disc):
        raise DomainError("closed_form method is only available on discs")
    if method == "laurent_modes" and not isinstance(domain, Annulus):
        raise DomainError("laurent_modes method is only available on annuli")
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
    dom = evaluator.domain
    if not dom.contains(z):
        raise DomainError(f"point {z} is not inside the domain")
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


# ---------------------------------------------------------------------------
# Quadrature nodes (shared by the Gram, shell and torus integrals)
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
