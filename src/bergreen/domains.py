"""Planar domains, Green functions, and logarithmic capacity.

Supported domains are the disc, the annulus ``A(r, 1)`` and smooth Jordan
domains given by truncated Fourier coefficients of a positively wound
boundary parameterization.  Green functions follow the convention

    G(xi, z) = log|xi - z| + H(xi, z),

with ``H`` harmonic in ``xi``, ``G < 0`` inside and ``G = 0`` on the
boundary.  The logarithmic capacity is ``c_beta(z) = exp(H(z, z))``.

Two evaluation methods are provided:

* ``auto``    -- routed by the domain's type: the closed form on a disc of
  any radius, the prime-function closed form on an annulus, and
  ``nystrom`` on a Jordan domain;
* ``nystrom`` -- smooth Jordan domains (and the annulus, with the
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
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    CoincidentPointsError,
    DomainError,
    NonConvergenceError,
    SolverSingularError,
)
from .reports import ReportRecord, finite_margin, make_record

__all__ = [
    "Disc",
    "Annulus",
    "Jordan",
    "parse_domain",
    "GreenEvaluator",
    "GREEN_METHODS",
    "green_evaluator",
    "capacity",
    "exp_normal",
    "green_record",
    "capacity_record",
    "gauss_legendre",
    "refine",
    "sample_interior",
]

_COINCIDENT_TOL = 1e-14
# the Nystrom refinement tolerance (see GreenEvaluator._nystrom_remainder)
_REFINE_TOL = 1e-7
# the largest certified product tail of an annulus value (see _PRODUCT_TOL)
_TAIL_TOL = 1e-9
# kappa_2(A) <= kappa_F(A) = ||A||_F ||A^-1||_F (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 6), so a Frobenius condition at or
# below this constant passes the 1e12 gate of GreenEvaluator without the
# SVD.  It is taken from the computed inverse X, whose columns solve
# (A + dA_j) x_j = e_j with ||dA_j||_2 <= g ||A||_2, g a small multiple of
# n u times the pivot growth (ch. 9 and 14).  Then A X = I - E with
# ||E||_2 <= g ||A||_2 ||X||_F, so A^-1 = X + A^-1 E and
# kappa_2(A) <= K / (1 - g K) for the computed K = ||A||_F ||X||_F.  At
# K <= 1e10 that is below 1e12 whenever g < 0.99e-10, that is n times the
# growth below about 9e5; two decades keep rounding from flipping the gate.
_COND_CERTIFIED = 1e10
# Nystrom nodes per boundary component; even, since the n/2 witness takes
# every other node of the reported system
_QUAD_POINTS = 256

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
    """Annulus ``r_inner < |z| < 1``; the outer radius is fixed at 1.

    ``r_inner`` must be a normal float, at least ``sys.float_info.min``
    (2.2e-308): below it the float holds fewer than 53 significant bits.
    """

    r_inner: float

    def __post_init__(self):
        if not (sys.float_info.min <= self.r_inner < 1.0):
            raise DomainError(
                "annulus requires sys.float_info.min (2.2e-308) <= r_inner < 1, "
                "a normal float"
            )

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
# the least distance between boundary samples more than 1/32 of the ring
# apart, which a simple curve keeps
_SEPARATION = 1e-9
# the sweep direction of _far_samples_separated: an irrational angle, so that
# no axis-symmetric curve puts two samples at one projection by symmetry
_SWEEP = cmath.exp(1j * math.sqrt(2.0))


def _far_samples_separated(pts: np.ndarray) -> bool:
    """Whether every two of the ring samples ``pts`` more than ``n // 32``
    apart along the ring (cyclically) are at least ``_SEPARATION`` apart.

    A sweep over the samples sorted by their projection onto ``_SWEEP``:
    a pair closer than ``_SEPARATION`` is closer than that in projection
    too, so only the pairs within a window a little wider are candidates,
    and the window's slack covers the rounding of the projections.  Each
    candidate is then judged by the same ``abs`` of the same difference as
    the all-pairs test it replaces, so the verdict is the same.
    """
    n = pts.size
    proj = (pts * _SWEEP.conjugate()).real
    window = 2.0 * _SEPARATION + 16.0 * np.finfo(float).eps * float(
        np.max(np.abs(pts.real) + np.abs(pts.imag))
    )
    order = np.argsort(proj, kind="stable")
    sweep = proj[order]
    # sorted sample i pairs with the count[i] sorted samples after it, the
    # ones within the window
    count = np.searchsorted(sweep, sweep + window, side="right") - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), count)
    offset = np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
    i, j = order[first], order[first + 1 + offset]
    gap = np.abs(i - j)
    far = np.minimum(gap, n - gap) > n // 32
    return not np.any(np.abs(pts[i[far]] - pts[j[far]]) < _SEPARATION)


def _diameter(pts: np.ndarray) -> float:
    """``max |p_i - p_j|`` over the samples ``pts``, as the float the full
    distance matrix gives, from the rows that can hold it.

    The antipodal pairs give a lower bound ``L`` on the maximum, and row
    ``i`` is at most ``|p_i - c| + max_j |p_j - c|`` about the centroid
    ``c``; rows whose bound (with a relative slack far above rounding)
    falls short of ``L`` are skipped.  The kept rows are the same ``abs``
    of the same differences, so the result is the same float.
    """
    low = float(np.max(np.abs(pts - np.roll(pts, pts.size // 2))))
    radius = np.abs(pts - np.mean(pts))
    rows = (radius + np.max(radius)) * (1.0 + 1e-12) >= low
    return float(np.max(np.abs(pts[rows, None] - pts[None, :])))


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
        if not np.all(np.isfinite(self._coeffs)):
            raise DomainError("Jordan boundary coefficients must be finite")
        ks = self._indices.astype(float)
        # the series weights of gamma, gamma' and gamma''
        self._weights = (self._coeffs, 1j * ks * self._coeffs, -(ks**2) * self._coeffs)
        self.coeffs = {int(k): complex(coeffs[k]) for k in sorted(coeffs)}
        self._validate()

    def __repr__(self) -> str:
        # built from the coefficients, so record ids do not vary by process
        return f"Jordan({self.coeffs!r})"

    # -- construction helpers ------------------------------------------------

    @classmethod
    def ellipse(cls, a: float, b: float) -> "Jordan":
        """Ellipse about the origin with semi-axes ``a`` (real direction)
        and ``b``."""
        return cls({1: (a + b) / 2.0 + 0j, -1: (a - b) / 2.0 + 0j})

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

    def _table(self, t) -> np.ndarray:
        """``exp(i k t)`` over the coefficient indices ``k``: one row per
        ``t``, one column per ``k``."""
        t = np.asarray(t, dtype=float)
        return np.exp(1j * np.multiply.outer(t, self._indices.astype(float)))

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(gamma(t), gamma'(t), gamma''(t))``, vectorized in ``t``, from
        one table of ``exp(i k t)``."""
        table = self._table(t)
        return tuple(table @ w for w in self._weights)

    def _validate(self) -> None:
        """Necessary conditions of a smooth, positively wound simple curve,
        tested on samples: they reject the curves that fail them but do not
        prove the curve simple."""
        # the separation samples are every other winding sample: the step
        # 2 pi / n doubles exactly, so their t are the same floats
        t = np.linspace(0.0, 2.0 * math.pi, _WINDING_SAMPLES, endpoint=False)
        fine, dfine, sfine = self.derivatives(t)
        stride = _WINDING_SAMPLES // _VALIDATE_SAMPLES
        pts, dpt = fine[::stride], dfine[::stride]
        if np.min(np.abs(dpt)) < 1e-9:
            raise DomainError("boundary parameterization derivative vanishes")
        # simplicity: non-neighboring samples must stay separated
        if not _far_samples_separated(pts):
            raise DomainError("boundary self-intersects on a dense sample")
        # positive winding around an interior reference point
        self._winding_samples = (fine, dfine)
        centroid = complex(np.mean(pts))
        if self.winding(centroid) != 1:
            raise DomainError("boundary must wind positively (counterclockwise)")
        # the tangent of a simple closed curve turns exactly once (Hopf's
        # Umlaufsatz): (1/2pi) * integral of Im(gamma''/gamma') dt
        with np.errstate(divide="ignore", invalid="ignore"):
            turning = float(np.mean((sfine / dfine).imag))
        if not abs(turning - 1.0) < 0.5:
            raise DomainError(
                f"boundary tangent turns {turning:.3f} times, not once: the curve "
                "has a loop (a simple closed curve turns exactly once) or bends "
                f"too sharply for {_WINDING_SAMPLES} samples"
            )
        self._cached_samples = pts
        self._cached_diameter = _diameter(pts)

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


def parse_domain(spec: str) -> PlanarDomain:
    """Domain from its spec: ``disc[:R]`` | ``annulus:r`` | ``ellipse:a:b``
    | ``jordan:<file>`` (coefficients as read by :meth:`Jordan.from_file`).

    Raises :class:`DomainError` naming the spec when it is malformed or its
    file cannot be read.
    """
    kind, _, rest = str(spec).partition(":")
    try:
        if kind == "disc":
            return Disc(float(rest)) if rest else Disc()
        if kind == "annulus":
            return Annulus(float(rest))
        if kind == "ellipse":
            a, _, b = rest.partition(":")
            return Jordan.ellipse(float(a), float(b))
        if kind == "jordan" and rest:
            return Jordan.from_file(rest)
    except (ValueError, OSError, DomainError) as exc:
        raise DomainError(f"bad domain spec {spec!r}: {exc}") from exc
    raise DomainError(
        f"bad domain spec {spec!r} (use disc[:R] | annulus:r | ellipse:a:b | jordan:file)"
    )


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
    # R^2 - |z|^2 as a product, which stays accurate near the circle
    R, s = float(radius), abs(z)
    return math.log(R / ((R - s) * (R + s)))


# ---------------------------------------------------------------------------
# Prime function: annulus
# ---------------------------------------------------------------------------


# The prime function of r < |z| < 1 (Crowdy and Marshall, IMA J. Appl. Math.
# 72, 2007) is P(w) = (1 - w) prod_{k>=1} (1 - q^k w)(1 - q^k / w), q = r^2.
# Each value below sums the logs of K factors of four such products, and
# every factor is 1 - x with |x| <= q^(k-1), so the factors after K sum in
# |log| to at most sum_{k>K} 4 q^(k-1) / (1 - q) = 4 q^K / (1 - q)^2.  K is
# the least count whose bound is below _PRODUCT_TOL, and at most _MAX_TERMS;
# the bound itself is the certified tail that _TAIL_TOL gates.
_PRODUCT_TOL = 1e-17
_MAX_TERMS = 4_000_000


def _prime_powers(r: float) -> tuple[np.ndarray, float]:
    """``q^(k-1)`` for ``k = 1..K`` with ``q = r^2``, and the certified tail
    ``4 q^K / (1 - q)^2`` of the ``K``-factor products.  Both come from
    ``log q``, so ``q`` may underflow without a NaN."""
    log_q = 2.0 * math.log(r)
    one_minus_q = -math.expm1(log_q)
    need = math.log(_PRODUCT_TOL * one_minus_q * one_minus_q / 4.0) / log_q
    K = min(max(1, math.ceil(need)), _MAX_TERMS)
    return np.exp(np.arange(K) * log_q), 4.0 * math.exp(K * log_q) / (one_minus_q * one_minus_q)


def _annulus_remainder(r: float, z: complex, w: complex, qk: np.ndarray) -> float:
    """Harmonic remainder ``H(z, w)`` on ``A(r, 1)`` from the ``K`` factors
    whose powers ``qk`` :func:`_prime_powers` gives.

    ``G(z, w) = log|P(z/w)| - log|P(z conj(w))| - log|w| log|z| / log r +
    log|w|``: the factor ``1 - z/w`` of ``P(z/w)`` is ``log|z - w| -
    log|w|``, and the rest is ``H``.  Each ``q^k x`` is formed as
    ``q^(k-1)`` times a product of bases of modulus below 1, such as
    ``q^k / (z conj(w)) = q^(k-1) (r/z)(r/conj(w))``, so no step overflows.
    """
    wb = w.conjugate()
    products = 0.0
    for base, sign in (
        ((r / w) * (r * z), 1.0),  # q^k z / w
        ((r / z) * (r * w), 1.0),  # q^k w / z
        ((r * z) * (r * wb), -1.0),  # q^k z conj(w)
        ((r / z) * (r / wb), -1.0),  # q^k / (z conj(w))
    ):
        products += sign * float(np.sum(np.log(np.abs(1.0 - base * qk))))
    harmonic = math.log(abs(w)) * math.log(abs(z)) / math.log(r)
    return products - math.log(abs(1.0 - z * wb)) - harmonic


def _annulus_robin(r: float, z: complex, qk: np.ndarray) -> float:
    """Diagonal remainder ``H(z, z)`` on the annulus from the ``K`` factors
    whose powers ``qk`` :func:`_prime_powers` gives.

    ``H(z, z) = 2 sum_k log(1 - q^k) - log P(|z|^2) - (log|z|)^2 / log r``.
    The three factors of each ``k`` are taken as one, ``(1 - q^k)^2 / ((1 -
    q^k |z|^2)(1 - q^k / |z|^2)) = 1 + q^k (1/|z| - |z|)^2 / (...)``, so the
    sum holds no cancelling terms.  ``1 - |z|^2`` is formed as ``(1 - |z|)(1
    + |z|)`` and ``1 - q / |z|^2`` as ``((|z| - r)/|z|)((|z| + r)/|z|)``,
    which keep their relative accuracy next to the outer and the inner
    circle, and ``q^k / |z|^2`` as ``q^(k-1) (r/|z|)^2``, which does not
    underflow where ``q`` does.
    """
    s = abs(z)
    t = r / s
    outer = (1.0 - s) * (1.0 + s)
    inner = 1.0 - t * t * qk
    inner[0] = ((s - r) / s) * ((s + r) / s)
    ratio = t * t * qk * outer * outer / ((1.0 - (r * s) * (r * s) * qk) * inner)
    return float(np.sum(np.log1p(ratio))) - math.log(outer) - math.log(s) ** 2 / math.log(r)


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
        # components: one derivatives(t) -> (gamma, gamma', gamma'') callable
        # per boundary component
        n = int(n_per_component)
        t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        samples = zip(*(derivatives(t) for derivatives in components))
        self._place(n, hole_centers, *(np.concatenate(s) for s in samples))
        self._assemble()

    def _place(self, n: int, hole_centers, pts, tans, secs) -> None:
        """The nodes, weights and curvatures of ``n`` nodes per component,
        from the samples ``gamma``, ``gamma'`` and ``gamma''`` at them."""
        self.n = n
        self.hole_centers = [complex(c) for c in hole_centers]
        self.slices = [slice(start, start + n) for start in range(0, pts.size, n)]
        self.pts, self.tans, self.secs = pts, tans, secs
        self.speed = np.abs(self.tans)
        self.normals = -1j * self.tans / self.speed
        self.curv = np.imag(np.conj(self.tans) * self.secs) / self.speed**3
        self.h = 2.0 * math.pi / self.n
        self.weights = self.speed * self.h

    def _assemble(self) -> None:
        y = self.pts
        m = self.pts.size
        nh = len(self.hole_centers)
        A = np.zeros((m + nh, m + nh))
        # rows in blocks, so the complex temporaries of a large system stay
        # a fraction of its matrix; each entry is computed as on whole rows
        for lo in range(0, m, _ASSEMBLY_ROWS):
            # the last block stops at m, short of the side-condition rows
            rows = slice(lo, min(lo + _ASSEMBLY_ROWS, m))
            # the diagonal divides 0 by 0; it is overwritten below
            with np.errstate(divide="ignore", invalid="ignore"):
                kern = self._double_layer(y[rows])
            A[rows, :m] = kern * self.weights[None, :]
        for j, c in enumerate(self.hole_centers):
            A[:m, m + j] = np.log(np.abs(y - c))
            # side condition: mean density over the hole component
            sl = self.slices[1 + j]
            A[m + j, sl] = self.weights[sl]
        self._set_diagonal(A)

    def _set_diagonal(self, A: np.ndarray) -> None:
        """The kernel's diagonal limit ``-curv / (4 pi)``, weighted, minus
        the jump ``1/2``, on the node diagonal of ``A``; then keep ``A``."""
        diag = np.arange(self.pts.size)
        A[diag, diag] = (-self.curv / (4.0 * math.pi)) * self.weights
        A[diag, diag] -= 0.5
        self.matrix = A

    def halved(self) -> "_NystromSolver":
        """The same problem on every other node of each component, sliced
        from this system: the step doubles exactly, so the nodes are the
        same floats, the weights are doubled, and so are the kernel columns
        and side-condition rows; the hole columns are equal.  Only the
        diagonal is computed afresh.  Needs an even ``n``."""
        m = self.pts.size
        even = np.arange(0, m, 2)
        half = object.__new__(_NystromSolver)
        half._place(self.n // 2, self.hole_centers, self.pts[even], self.tans[even], self.secs[even])
        keep = np.concatenate([even, np.arange(m, m + len(self.hole_centers))])
        A = self.matrix[np.ix_(keep, keep)]
        A[:, : even.size] *= 2.0
        half._set_diagonal(A)
        return half

    def _double_layer(self, x: np.ndarray) -> np.ndarray:
        """Double-layer kernel ``-Re(conj(n_j) (y_j - x_i)) / (2 pi |y_j -
        x_i|^2)``: one row per point ``x_i``, one column per node ``y_j``."""
        diff = self.pts[None, :] - x[:, None]
        return -np.real(np.conj(self.normals)[None, :] * diff) / (2.0 * math.pi * np.abs(diff) ** 2)

    def solve(self, f_boundary: np.ndarray) -> np.ndarray:
        nh = len(self.hole_centers)
        rhs = np.concatenate([f_boundary, np.zeros(nh)])
        return np.linalg.solve(self.matrix, rhs)

    def evaluate(self, sol: np.ndarray, x) -> np.ndarray:
        """Evaluate the represented harmonic function at interior point(s)."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        m = self.pts.size
        mu = sol[:m]
        out = self._double_layer(x) @ (mu * self.weights)
        for j, c in enumerate(self.hole_centers):
            out += sol[m + j] * np.log(np.abs(x - c))
        return out


def _circle(radius: float, turn: int):
    """The ``derivatives(t)`` callable of ``radius * exp(i turn t)``:
    ``(gamma, gamma', gamma'')``; ``turn`` is 1 (counterclockwise) or -1
    (clockwise)."""

    def derivatives(t):
        point = radius * np.exp(1j * turn * t)
        return point, 1j * turn * point, -point

    return derivatives


def _nystrom_components(domain: PlanarDomain):
    """Boundary components (outward-from-domain orientation) and hole centers."""
    if isinstance(domain, Jordan):
        return [domain.derivatives], []
    if isinstance(domain, Disc):
        return [_circle(domain.radius, 1)], []
    if isinstance(domain, Annulus):
        # inner circle, clockwise so the domain stays on the left
        return [_circle(1.0, 1), _circle(domain.r_inner, -1)], [0.0 + 0.0j]
    raise DomainError(f"unsupported domain {domain!r}")


# ---------------------------------------------------------------------------
# Evaluator facade and capacity
# ---------------------------------------------------------------------------


# what ``green_evaluator`` accepts; ``auto`` routes by the domain's type
GREEN_METHODS = ("auto", "nystrom")


@dataclass
class GreenEvaluator:
    """Uniform interface over the Green function methods: ``auto`` takes
    the closed form on a disc, the prime-function closed form on an annulus
    and the Nystrom method on a Jordan domain; ``nystrom`` takes the Nystrom
    method on every domain.

    ``green(xi, z)`` and ``remainder(xi, z)`` evaluate ``G`` and
    ``H = G - log|xi - z|``; ``robin(z)`` returns the diagonal ``H(z, z)``
    on every method.

    Every evaluation is guarded: a point outside the domain raises
    :class:`DomainError`, and so does, on the Nystrom method, a point
    within ``1e-3 * diameter`` of the boundary.  An annulus value whose
    certified product tail (:func:`_prime_powers`) exceeds ``_TAIL_TOL``
    raises :class:`NonConvergenceError`.  The Nystrom method reports the
    value on ``_QUAD_POINTS`` nodes per boundary component and raises
    :class:`AccuracyError` unless the same problem on half (or, failing
    that, twice) as many nodes certifies it; each witness system is built
    on first use, the half one sliced from the reported system.  The
    Nystrom systems are real and not symmetric; each value solves for its
    pole's density afresh, by one partial-pivoting LU solve
    (``numpy.linalg.solve``).  No factor or density is kept.
    The reported system must hold finite entries and have a 2-norm
    condition of at most 1e12, or :class:`SolverSingularError` is raised;
    its Frobenius condition (one LU), an upper bound, certifies the gate
    when it is at most ``_COND_CERTIFIED`` (1e10), and the SVD decides
    above that.
    """

    domain: PlanarDomain
    method: str
    _solver: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.method not in GREEN_METHODS:
            raise DomainError(
                f"unknown Green function method {self.method!r} "
                f"(use {' | '.join(GREEN_METHODS)})"
            )
        if self.method == "nystrom" or not isinstance(self.domain, (Disc, Annulus)):
            self._solver = _NystromSolver(*_nystrom_components(self.domain), _QUAD_POINTS)
            A = self._solver.matrix
            if not np.isfinite(A).all():
                raise SolverSingularError("boundary system holds a non-finite entry")
            # one LU certifies a well-conditioned system; the SVD decides past it
            cond = float(np.linalg.cond(A, "fro"))
            if not cond <= _COND_CERTIFIED:
                cond = float(np.linalg.cond(A))
            if not cond <= 1e12:
                raise SolverSingularError(f"boundary system condition {cond:.3e} exceeds 1e12")

    # -- internals -----------------------------------------------------------

    def _check_inside(self, *points: complex) -> None:
        dom = self.domain
        for p in points:
            if not dom.contains(p):
                raise DomainError(f"point {p} is not inside the domain")
            if self._solver is not None and dom.boundary_distance(p) <= 1e-3 * dom.diameter:
                raise DomainError(f"point {p} is closer to the boundary than 1e-3 * diameter")

    @staticmethod
    def _tail_gated(value_and_tail: tuple):
        """The value, once its certified tail is at most ``_TAIL_TOL``."""
        value, tail = value_and_tail
        if not tail <= _TAIL_TOL:
            raise NonConvergenceError(f"tail estimate {tail:.3e} exceeds {_TAIL_TOL:.3e}")
        return value

    @functools.cached_property
    def _half(self) -> _NystromSolver:
        return self._solver.halved()

    @functools.cached_property
    def _double(self) -> _NystromSolver:
        return _NystromSolver(*_nystrom_components(self.domain), 2 * self._solver.n)

    def _nystrom_value(self, solver: _NystromSolver, xi: complex, z: complex) -> float:
        sol = solver.solve(-np.log(np.abs(solver.pts - z)))
        return float(solver.evaluate(sol, xi)[0])

    def _nystrom_remainder(self, xi: complex, z: complex) -> float:
        """``H`` on the ``n`` nodes of the reported system, certified to
        ``_REFINE_TOL / 3``.

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
                f"doubling the nodes moved the result by {moved:.3e} "
                f"(> {_REFINE_TOL / 4:.1e}) and halving it by more than {_REFINE_TOL:.0e}"
            )
        return h

    # -- public API ------------------------------------------------------------

    def remainder(self, xi: complex, z: complex) -> float:
        self._check_inside(z, xi)
        if self._solver is not None:
            return self._nystrom_remainder(xi, z)
        if isinstance(self.domain, Disc):
            return _disc_remainder(xi, z, self.domain.radius)
        r = self.domain.r_inner
        return _annulus_remainder(r, xi, z, self._tail_gated(_prime_powers(r)))

    def green(self, xi: complex, z: complex) -> float:
        _check_distinct(xi, z)
        return math.log(abs(xi - z)) + self.remainder(xi, z)

    def robin(self, z: complex) -> float:
        """Diagonal remainder ``H(z, z)``, guarded as :meth:`remainder`."""
        self._check_inside(z)
        if self._solver is not None:
            # H = G - log|xi - z| has no log term, so the Nystrom value is
            # evaluated at xi = z itself
            return self._nystrom_remainder(z, z)
        if isinstance(self.domain, Disc):
            return _disc_robin(z, self.domain.radius)
        r = self.domain.r_inner
        return _annulus_robin(r, z, self._tail_gated(_prime_powers(r)))


def green_evaluator(domain: PlanarDomain, method: str = "auto") -> GreenEvaluator:
    """Construct the evaluator ``method`` of :data:`GREEN_METHODS` for the
    domain; ``auto`` is its natural one (see :class:`GreenEvaluator`)."""
    return GreenEvaluator(domain, method)


def exp_normal(log_value: float, name: str) -> float:
    """``e^log_value``, the value of the positive quantity ``name``, where it
    is a normal float; :class:`DomainError` naming the range where it is
    not (a 0 or a subnormal is an underflow)."""
    huge = math.log(sys.float_info.max)  # e^huge is still finite
    value = math.exp(log_value) if log_value <= huge else math.inf
    if not sys.float_info.min <= value < math.inf:
        raise DomainError(
            f"{name} = e^{log_value:.6g} leaves the floating-point range of normal "
            f"floats, e^{math.log(sys.float_info.min):.6g} to e^{huge:.6g}"
        )
    return value


def capacity(evaluator: GreenEvaluator | PlanarDomain, z: complex) -> float:
    """Logarithmic capacity ``c_beta(z) = exp(H(z, z))``, from the
    evaluator's diagonal :meth:`GreenEvaluator.robin` on every method;
    :class:`DomainError` where it is not a normal float."""
    if not isinstance(evaluator, GreenEvaluator):
        evaluator = green_evaluator(evaluator)
    return exp_normal(evaluator.robin(z), f"c_beta(z) at z = {z}")


def green_record(domain: PlanarDomain, xi: complex, z: complex, method: str) -> ReportRecord:
    """``G(xi, z)`` and its remainder ``H(xi, z)`` by the evaluator
    ``method``; the record passes while both are finite."""
    ev = green_evaluator(domain, method=method)
    _check_distinct(xi, z)
    h = ev.remainder(xi, z)
    # G from the one remainder evaluation, as GreenEvaluator.green forms it
    g = math.log(abs(xi - z)) + h
    return make_record(
        quantities={"green": g, "remainder": h},
        gates={"finite": (finite_margin(g, h), 0.0)},
        primary="green",
        provenance={"green": "green_evaluator", "remainder": "green_evaluator"},
    )


def capacity_record(domain: PlanarDomain, z: complex) -> ReportRecord:
    """Logarithmic capacity ``c_beta(z)`` (see :func:`capacity`); the
    record passes while it is finite."""
    val = capacity(domain, z)
    return make_record(
        quantities={"capacity": val, "log_capacity": math.log(val)},
        gates={"finite": (finite_margin(val), 0.0)},
        primary="capacity",
        provenance={"capacity": "capacity", "log_capacity": "capacity"},
    )


# ---------------------------------------------------------------------------
# Quadrature nodes and refinement (shared by the shell and torus integrals)
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
    them passes, and a NaN change never passes.  ``doublings`` must be at
    least 1 (:class:`ValueError` otherwise): one level has nothing to agree
    with.
    """
    if doublings < 1:
        raise ValueError(f"refine needs at least one doubling, got {doublings}")
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
# Deterministic interior sampling (the benchmark's generator and the tests use it)
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
