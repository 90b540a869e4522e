"""Sharp-constant machinery: cutoffs, an ODE pair, residual shell
measures, and the optimal-constant experiment.

The pieces fit together as follows.  A smoothed cutoff family ``v_{t0,eps}``
(unit-mass second derivative supported in ``(-t0-1, -t0)``) drives weight
deformations; a closed-form ODE pair ``(u, s)`` realizes the sharp constant
``C = 1`` in the defining identity; the residual measure of a
pole is extracted by integrating ``f e^{-Psi}`` over the sublevel shell
``{-1-t < Psi < -t}``; and the optimal-constant experiment computes
least-norm extensions against the plateaued weight ``MaxPiece(delta, a)``
and extrapolates ``a -> 0``, recovering the limit ``(1 + 1/delta) pi
e^{-eps}`` that shows the constant cannot be improved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bergman import MaxPiece, least_norm_extension
from .domains import gauss_legendre, refine
from .errors import AccuracyError, DerivativeMismatchError, ParameterError
from .reports import ReportRecord, make_record, min_margin

__all__ = [
    "CutoffFamily",
    "make_cutoff",
    "b_step",
    "cutoff_limit_check",
    "OdePair",
    "ode_pair",
    "ode_residual",
    "require_ode_t",
    "ode_record",
    "residual_measure",
    "RESIDUAL_PROFILES",
    "residual_record",
    "require_delta",
    "require_eps",
    "require_a",
    "require_a_values",
    "require_cutoff_eps",
    "require_eps_sequence",
    "require_t0",
    "require_positive_delta",
    "require_psi0",
    "require_shell_depth",
    "optimal_constant_experiment",
]


# ---------------------------------------------------------------------------
# Cutoff family
# ---------------------------------------------------------------------------


# panels of the bump moment tables on [-1, 1], and Gauss-Legendre nodes per panel
_BUMP_PANELS = 256
_BUMP_GAUSS = 16


def _bump_moments(lo, hi):
    """``int_lo^hi u^k exp(-1/(1-u^2)) du`` for k = 0, 1, 2 (last axis), by
    ``_BUMP_GAUSS``-point Gauss-Legendre, for arrays of bounds in [-1, 1]."""
    x, w = gauss_legendre(_BUMP_GAUSS)
    half = 0.5 * (hi - lo)[..., None]
    u = 0.5 * (hi + lo)[..., None] + half * x
    with np.errstate(divide="ignore"):  # a node that rounds to +-1 gives exp(-inf) = 0
        fw = half * w * np.exp(-1.0 / (1.0 - u * u))
    return np.stack([fw.sum(axis=-1), (fw * u).sum(axis=-1), (fw * u * u).sum(axis=-1)], axis=-1)


@functools.cache
def _bump_tables():
    """(pqr, q1) for the normalized bump ``f = exp(-1/(1-x^2))`` on [-1, 1]:
    ``pqr(x)`` is the CDF ``P1`` and its antiderivatives ``Q1``, ``R1`` from
    -1, and ``q1 = Q1(1)``.  By Cauchy's formula for repeated integrals all
    three come from one pass over the moments ``M_k(x) = int_{-1}^x u^k f``:
    ``P1 = M0/m``, ``Q1 = (x M0 - M1)/m``, ``R1 = (x^2 M0 - 2x M1 + M2)/2m``
    (``m`` the mass).  The moments are cumulative sums over panels; a point
    inside (-1, 1) adds its partial panel, and the ends read the table.
    Built once per process, on the first cutoff.
    """
    edges = np.linspace(-1.0, 1.0, _BUMP_PANELS + 1)
    table = np.cumsum(_bump_moments(edges[:-1], edges[1:]), axis=0)
    table = np.concatenate([np.zeros((1, 3)), table])
    mass = table[-1, 0]

    def pqr(x):
        x = np.asarray(x, dtype=float)
        panel = np.clip(((x + 1.0) * (_BUMP_PANELS / 2)).astype(int), 0, _BUMP_PANELS)
        moments = np.take(table, panel, axis=0)
        inside = np.abs(x) < 1.0
        moments[inside] += _bump_moments(edges[panel[inside]], x[inside])
        m0, m1, m2 = np.moveaxis(moments, -1, 0)
        return m0 / mass, (x * m0 - m1) / mass, (x * x * m0 - 2.0 * x * m1 + m2) / (2.0 * mass)

    return pqr, float(pqr(1.0)[1])


@dataclass(frozen=True)
class CutoffFamily:
    """Smoothed cutoff ``v`` with ``v(t) = t`` on the right, constant on the
    left, and unit-mass second derivative supported in ``(-t0-1, -t0)``.

    ``v''`` is the mollification of ``k * indicator(A, B)`` by the bump of
    half-width ``m``; the indicator is shrunk by ``m`` on each side so the
    mollified support is exactly ``(-t0-1+eps, -t0-eps)`` and the linear
    anchoring ``v(t) = t`` for ``t >= -t0-eps`` holds exactly.  ``m = eps/4``
    (the convolution half-width) for ``eps <= 0.2``; for ``eps`` in
    ``(0.2, 0.25)`` it is reduced to ``1/4 - eps`` so the bound
    ``sup v'' = 1/(B - A) <= 2`` survives.
    """

    t0: float
    eps: float
    m: float
    A: float
    B: float
    k: float
    C: float

    def _pqr(self, x):
        """P, Q, R evaluated at physical offset x (P = CDF of the mollifier,
        Q, R its antiderivatives, linear/quadratic continuations exact)."""
        pqr, q1 = _bump_tables()
        xi = np.asarray(x, dtype=float) / self.m
        p, q, r = pqr(np.clip(xi, -1.0, 1.0))
        above = np.maximum(xi - 1.0, 0.0)
        return p, self.m * (q + above), self.m**2 * (r + q1 * above + 0.5 * above**2)

    def _difference(self, t, i: int):
        """``k (X(t - A) - X(t - B))`` for ``X`` the ``i``-th of P, Q, R."""
        t = np.asarray(t, dtype=float)
        out = self.k * (self._pqr(t - self.A)[i] - self._pqr(t - self.B)[i])
        return out if out.ndim else float(out)

    def v(self, t):
        return self._difference(t, 2) + self.C

    def v_prime(self, t):
        return self._difference(t, 1)

    def v_second(self, t):
        return self._difference(t, 0)

    @property
    def support(self) -> tuple[float, float]:
        """Support interval of ``v''`` (equals ``(-t0-1+eps, -t0-eps)``)."""
        return (self.A - self.m, self.B + self.m)


def _require_decreasing(values, name: str) -> None:
    if any(b >= a for a, b in zip(values[:-1], values[1:])):
        raise ParameterError(f"{name} must be strictly decreasing")


def require_cutoff_eps(eps: float) -> None:
    """Precondition of :func:`make_cutoff` on the sharpness ``eps``."""
    if not 0.0 < eps < 0.25:
        raise ParameterError("eps must lie in (0, 1/4)")


# the largest offset a cutoff takes: there the spacing of doubles, 1.2e-10,
# is still below the kink exclusion of cutoff_limit_check
_T0_MAX = 1e6


def require_t0(t0: float) -> None:
    """Precondition of :func:`make_cutoff` and :func:`cutoff_limit_check`
    on the offset ``t0``: at most ``_T0_MAX`` in size, so that the rounding
    of ``t0`` stays below the kink exclusion of the sampled gaps."""
    if not abs(t0) <= _T0_MAX:
        raise ParameterError(f"t0 must be finite with |t0| <= {_T0_MAX:g}")


def require_eps_sequence(eps_sequence) -> None:
    """Precondition of :func:`cutoff_limit_check` on the whole ``eps``
    sequence."""
    _require_decreasing(eps_sequence, "eps sequence")


def make_cutoff(t0: float, eps: float) -> CutoffFamily:
    """Build the cutoff family member for shift ``t0`` and sharpness ``eps``."""
    require_t0(t0)
    require_cutoff_eps(eps)
    m = min(eps / 4.0, 0.25 - eps)
    A = -t0 - 1.0 + eps + m
    B = -t0 - eps - m
    k = 1.0 / (B - A)
    q1 = _bump_tables()[1]
    # anchor so v(t) = t exactly for t >= B + m = -t0 - eps
    C = 0.5 * (A + B) + m - m * q1
    return CutoffFamily(t0=float(t0), eps=float(eps), m=m, A=A, B=B, k=k, C=C)


def b_step(t0: float, t):
    """Limit profile ``b_{t0}(t) = clip(t + t0 + 1, 0, 1)`` of ``v'`` as
    ``eps -> 0`` (integral of the unit indicator on ``(-t0-1, -t0)``)."""
    out = np.clip(np.asarray(t, dtype=float) + t0 + 1.0, 0.0, 1.0)
    return out if out.ndim else float(out)


# sample points on (-t0-2, -t0+1), the distance within which a sample counts
# as a kink of b_t0, and the bound on the last sup gap
_CUTOFF_SAMPLES = 1201
_KINK_EXCLUSION = 1e-9
_LIMIT_TOL = 0.05


def cutoff_limit_check(t0: float, eps_sequence) -> ReportRecord:
    """Check ``v' -> b_{t0}`` pointwise along a decreasing ``eps`` sequence.

    Records the sup over sample points (excluding the two kink points of
    ``b_{t0}``) of ``|v' - b_{t0}|`` per ``eps``, and the number of those
    points; passes if the sequence decreases monotonically and ends below
    ``_LIMIT_TOL``.
    """
    require_t0(t0)
    eps_sequence = [float(e) for e in eps_sequence]
    require_eps_sequence(eps_sequence)
    ts = np.linspace(-t0 - 2.0, -t0 + 1.0, _CUTOFF_SAMPLES)
    keep = (np.abs(ts + t0) > _KINK_EXCLUSION) & (np.abs(ts + t0 + 1.0) > _KINK_EXCLUSION)
    ts = ts[keep]
    target = b_step(t0, ts)
    gaps = []
    for eps in eps_sequence:
        fam = make_cutoff(t0, eps)
        gaps.append(float(np.max(np.abs(fam.v_prime(ts) - target))))
    diffs = [a - b for a, b in zip(gaps[:-1], gaps[1:])]
    quantities = {f"sup_gap_eps_{e}": g for e, g in zip(eps_sequence, gaps)}
    quantities["final_sup_gap"] = gaps[-1]
    quantities["samples"] = int(ts.size)
    return make_record(
        quantities=quantities,
        gates={
            "monotone_decrease": (min_margin(diffs), 1e-12),
            "final_below_tol": (_LIMIT_TOL - gaps[-1], 1e-12),
        },
        primary="final_sup_gap",
        provenance={k: "cutoff_limit_check" for k in quantities},
    )


# ---------------------------------------------------------------------------
# ODE pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdePair:
    """Closed-form pair ``u = -log(a - e^{-t})``, ``s = (a t + e^{-t} + b) /
    (a - e^{-t})`` with ``a = 1 + 1/delta``, ``b = a^2 - 2a = 1/delta^2 - 1``.

    The pair satisfies ``(s + s'^2/(u''s - s'')) e^{u - t} = 1`` and
    ``s' - s u' = 1`` identically; all derivatives are analytic closed
    forms.  Valid for ``t > -log(a)`` (in particular all ``t >= 0``).
    """

    delta: float
    a: float
    b: float

    def _de(self, t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-t)
        d = self.a - e
        if np.any(d <= 0.0):
            raise ParameterError("t out of range: need e^{-t} < a")
        return t, e, d

    def u(self, t):
        _, _, d = self._de(t)
        out = -np.log(d)
        return out if out.ndim else float(out)

    def u_prime(self, t):
        _, e, d = self._de(t)
        out = -e / d
        return out if out.ndim else float(out)

    def u_second(self, t):
        _, e, d = self._de(t)
        out = self.a * e / d**2
        return out if out.ndim else float(out)

    def s(self, t):
        t, e, d = self._de(t)
        out = (self.a * t + e + self.b) / d
        return out if out.ndim else float(out)

    def s_prime(self, t):
        # from s' = 1 + s u'
        t, e, d = self._de(t)
        n = self.a * t + e + self.b
        out = 1.0 - n * e / d**2
        return out if out.ndim else float(out)

    def s_second(self, t):
        # s'' = s' u' + s u''
        t, e, d = self._de(t)
        n = self.a * t + e + self.b
        sp = 1.0 - n * e / d**2
        out = sp * (-e / d) + (n / d) * (self.a * e / d**2)
        return out if out.ndim else float(out)


def require_positive_delta(delta: float) -> None:
    """Precondition of :func:`ode_pair` on ``delta``: positive; ``inf`` is allowed (the pair's limit ``a = 1``)."""
    if not delta > 0.0:
        raise ParameterError("delta must be positive")


def ode_pair(delta: float) -> OdePair:
    require_positive_delta(delta)
    a = 1.0 + 1.0 / delta
    return OdePair(delta=float(delta), a=a, b=a * a - 2.0 * a)


# the finite-difference step and its allowed relative mismatch
_FD_STEP = 1e-6
_FD_REL_TOL = 1e-5


def require_ode_t(t: float) -> None:
    """Precondition of :func:`ode_residual`, and so of :func:`ode_record`,
    on each point ``t`` of its grid."""
    if not 0.0 < t < math.inf:
        raise ParameterError("ode_residual requires t > 0 and finite")


def ode_residual(pair: OdePair, t):
    """Residuals of the defining identities at each ``t`` (a float or an
    array of floats):

    ``r1 = (s + s'^2/(u''s - s'')) e^{u-t} - 1`` and ``r2 = s' - s u' - 1``,

    both evaluated from analytic derivatives in one array pass over the
    points.  The analytic first derivatives are cross-checked against
    central finite differences of ``u, s`` and the analytic second
    derivatives against central differences of the analytic first
    derivatives, at step ``_FD_STEP``; a relative mismatch above
    ``_FD_REL_TOL`` raises :class:`DerivativeMismatchError`.  (The relative
    error uses denominator floor 1e-3: differencing magnitudes ~1 at step
    1e-6 carries ~1e-10 roundoff, which would swamp a pure relative
    comparison against derivatives decaying like ``e^{-t}``.)

    Every check is per point: ``t`` finite and positive
    (:func:`require_ode_t`), then the four cross-checks in the
    order u', s', u'', s'', then ``u''s - s'' > 0``.  The error raised is
    the one of the first point that fails a check, naming its first failing
    check, as a loop over the points would raise it.  A scalar ``t`` gives
    two floats, an array two arrays of its shape.
    """
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    # only the points before the first t outside (0, inf) are evaluated; a
    # NaN t is outside
    inside = (flat > 0.0) & (flat < math.inf)
    first = flat.size if inside.all() else int(np.argmin(inside))
    tt = flat[:first]
    h = _FD_STEP
    u, up, upp = pair.u(tt), pair.u_prime(tt), pair.u_second(tt)
    s, sp, spp = pair.s(tt), pair.s_prime(tt), pair.s_second(tt)

    checks = [
        (up, (pair.u(tt + h) - pair.u(tt - h)) / (2 * h), "u'"),
        (sp, (pair.s(tt + h) - pair.s(tt - h)) / (2 * h), "s'"),
        (upp, (pair.u_prime(tt + h) - pair.u_prime(tt - h)) / (2 * h), "u''"),
        (spp, (pair.s_prime(tt + h) - pair.s_prime(tt - h)) / (2 * h), "s''"),
    ]
    # each check looks only before the first failure found so far, so the
    # earliest point wins and, at one point, the earlier check
    error = None
    for analytic, fd, name in checks:
        rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1e-3)
        hit = np.flatnonzero(rel[:first] > _FD_REL_TOL)
        if hit.size:
            k = first = int(hit[0])
            error = DerivativeMismatchError(
                f"{name} analytic={float(analytic[k])} vs finite-difference={float(fd[k])} "
                f"(relative {rel[k]:.3e} > {_FD_REL_TOL:.1e}) at t={float(tt[k])}"
            )
    denom = upp * s - spp
    hit = np.flatnonzero(denom[:first] <= 0.0)
    if hit.size:
        k = first = int(hit[0])
        error = ParameterError(f"u''s - s'' = {float(denom[k])} not positive at t={float(tt[k])}")
    if error is not None:
        raise error
    if first < flat.size:
        require_ode_t(float(flat[first]))  # raises: that t is outside (0, inf)

    # e^{u-t} through libm, point by point
    growth = np.fromiter(map(math.exp, u - tt), dtype=float, count=first)
    r1 = (s + sp * sp / denom) * growth - 1.0
    r2 = sp - s * up - 1.0
    if ts.ndim == 0:
        return float(r1[0]), float(r2[0])
    return r1.reshape(ts.shape), r2.reshape(ts.shape)


# the bound on both identity residuals, and on |u(end) - u(inf)|
_ODE_RESIDUAL_TOL = 1e-9
_ODE_END_TOL = 1e-6


def ode_record(delta: float, grid) -> ReportRecord:
    """The ODE pair on the t ``grid``: both identity residuals below
    ``_ODE_RESIDUAL_TOL``, ``s >= 1/delta``, ``s' > 0``, ``u'' s - s'' > 0``,
    and ``u`` at the grid end within ``_ODE_END_TOL`` of its limit
    ``-log a``."""
    pair = ode_pair(delta)
    r1s, r2s = ode_residual(pair, grid)
    s_vals = pair.s(grid)
    sp_vals = pair.s_prime(grid)
    denom = pair.u_second(grid) * s_vals - pair.s_second(grid)
    u_end = pair.u(float(grid[-1]))
    u_target = -math.log(pair.a)
    quantities = {
        "max_r1": float(np.max(np.abs(r1s))),
        "max_r2": float(np.max(np.abs(r2s))),
        "u_end": u_end,
        "u_target": u_target,
        "min_s_minus_floor": float(np.min(s_vals)) - 1.0 / delta,
        "min_s_prime": float(np.min(sp_vals)),
        "min_denom": float(np.min(denom)),
    }
    return make_record(
        quantities=quantities,
        gates={
            "residual_r1": (-quantities["max_r1"], _ODE_RESIDUAL_TOL),
            "residual_r2": (-quantities["max_r2"], _ODE_RESIDUAL_TOL),
            "s_floor": (quantities["min_s_minus_floor"], 1e-12),
            "s_prime_positive": (quantities["min_s_prime"], 0.0),
            "denom_positive": (quantities["min_denom"], 0.0),
            "u_end_close": (-abs(u_end - u_target), _ODE_END_TOL),
        },
        primary="max_r1",
        provenance={k: "ode_residual" if k.startswith("max_") else "ode_pair" for k in quantities},
    )


# ---------------------------------------------------------------------------
# Residual measure
# ---------------------------------------------------------------------------


def _shell_edges(psi: Callable, theta: np.ndarray, level_lo: float, level_hi: float):
    """Per-angle solutions of ``Psi(e^{u + i theta}) = level`` in
    ``u = log(radius)`` for both shell levels, by one bracketed Newton
    solve over the stacked (2, angles) array.

    Near the pole ``Psi = 2u + psi`` with ``psi`` continuous, so ``Psi`` is
    strictly increasing in ``u`` once ``2u`` dominates; the bracket is
    built from the local spread of ``psi``.  Each iteration samples
    ``Psi`` at ``u`` and ``u +- delta`` (``delta`` 16 ulps of ``max(1,
    |u|)``) in one call; every sample inside the bracket moves the end of
    its sign.  The next ``u`` is the Newton step with the secant slope of
    the outer pair (the pole slope 2 where that is not positive), at least
    ``2 delta`` long, or the bracket's midpoint if the step leaves it (R. P.
    Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4).
    The solve stops when every bracket is at most ``2 delta`` wide, and
    after 64 iterations at the latest; each edge is the midpoint of a
    bracket whose ends ``Psi`` puts on either side of the level.
    """
    def g(u, th):
        # 2 log|z| is 2u exactly
        return 2.0 * u + np.asarray(psi(np.exp(u) * np.exp(1j * th)), dtype=float)

    # estimate the local psi spread on a probe circle at the shell scale
    probe_r = math.exp(0.5 * (level_lo - 1.0))
    probe = np.asarray(psi(probe_r * np.exp(1j * theta)), dtype=float)
    lo_guess = 0.5 * (level_lo - float(np.max(probe))) - 1.0
    hi_guess = 0.5 * (level_hi - float(np.min(probe))) + 1.0

    shape = (2, theta.size)
    th = np.broadcast_to(theta, shape)
    level = np.broadcast_to(np.array([[level_lo], [level_hi]]), shape)
    a = np.full(shape, lo_guess)
    b = np.full(shape, hi_guess)
    ga = g(a, th) - level
    gb = g(b, th) - level
    for _ in range(8):  # widen until bracketed (psi bounded: terminates)
        bad_a = ga >= 0.0
        if np.any(bad_a):
            a[bad_a] -= 2.0
            ga[bad_a] = g(a[bad_a], th[bad_a]) - level[bad_a]
        bad_b = gb <= 0.0
        if np.any(bad_b):
            b[bad_b] += 2.0
            gb[bad_b] = g(b[bad_b], th[bad_b]) - level[bad_b]
        if not (np.any(bad_a) or np.any(bad_b)):
            break
    else:
        raise AccuracyError("could not bracket the shell edge")
    u = np.clip(0.5 * (level - probe), a, b)  # Psi = 2u + psi, psi read off the probe
    for _ in range(64):
        delta = 16.0 * np.spacing(np.maximum(1.0, np.abs(u)))
        x = u + delta * np.array([-1.0, 0.0, 1.0])[:, None, None]
        F = g(x, th) - level  # one call for the three samples
        # each sample inside the bracket moves the end of its sign to it
        inside = (a < x) & (x < b)
        a = np.max(np.where(inside & (F < 0.0), x, a), axis=0)
        b = np.min(np.where(inside & (F >= 0.0), x, b), axis=0)
        if np.all(b - a <= 2.0 * delta):
            break
        slope = (F[2] - F[0]) / (2.0 * delta)
        step = -F[1] / np.where(slope > 0.0, slope, 2.0)
        # a step under 2 delta would resample the span u +- delta just taken
        step = u + np.copysign(np.maximum(np.abs(step), 2.0 * delta), step)
        u = np.where((a < step) & (step < b), step, 0.5 * (a + b))
    edges = 0.5 * (a + b)
    return edges[0], edges[1]


# angular offset of every shell grid, as a fraction of its step: irrational,
# so two consecutive doubling levels share no node and cannot agree by
# aliasing the same angular frequency
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _shell_integral(psi: Callable, f: Callable, t: float, n_rad: int, n_ang: int) -> float:
    """The smooth polar integral on ``n_rad`` radial by ``n_ang`` angular
    nodes."""
    theta = 2.0 * math.pi * (np.arange(n_ang) + _GOLDEN) / n_ang
    u_lo, u_hi = _shell_edges(psi, theta, -1.0 - t, -t)
    x, w = gauss_legendre(n_rad)
    # per-angle affine map of the Gauss nodes into [u_lo, u_hi]
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    u = mid[None, :] + half[None, :] * x[:, None]  # (rad, ang)
    zs = np.exp(u) * np.exp(1j * theta[None, :])
    # rho drho dtheta with rho = e^u: the pole factor e^{-2u} cancels exactly,
    # leaving the smooth integrand f e^{-psi}
    vals = np.asarray(f(zs), dtype=float) * np.exp(
        -np.asarray(psi(zs), dtype=float)
    )
    radial = (w[:, None] * vals).sum(axis=0) * half
    return float(radial.mean() * 2.0 * math.pi / math.pi)


# the largest scaled change between the two last shell grid levels, and the
# finest grid, (radial, angular) nodes
_SHELL_TOL = 1e-6
_SHELL_CAP = (1024, 512)


def residual_measure(psi: Callable, f: Callable, t: float) -> float:
    """Residual mass ``(1/pi) integral_{-1-t < Psi < -t} f e^{-Psi} dLambda``
    of ``Psi(z) = log|z|^2 + psi(z)``, the single-pole normalization of the
    admissible class: one logarithmic pole at the origin and a remainder
    ``psi`` continuous and bounded near it.

    In the radial log coordinate the pole factor cancels and the integrand
    is smooth, so Gauss-Legendre (radially, inside per-angle shell edges)
    x trapezoid (angularly, nodes offset by the golden fraction of a step)
    converges fast.  ``_SHELL_CAP`` is the finest grid: the grid starts
    from it halved down to 16 angles (halved at least once) and doubles
    through :func:`domains.refine` until two levels agree within
    ``_SHELL_TOL * max(1, |value|)``; reaching the cap without agreement,
    or a NaN change, raises :class:`AccuracyError`.
    """
    n_rad, n_ang = _SHELL_CAP
    doublings = max(1, (n_ang // 16).bit_length() - 1)

    def compute(k: int) -> float:
        return _shell_integral(psi, f, t, (n_rad >> doublings) << k, (n_ang >> doublings) << k)

    def change(fine: float, coarse: float) -> float:
        return abs(fine - coarse) / max(1.0, abs(fine))

    return refine(compute, change, _SHELL_TOL, doublings)[0]


# integrand profiles of the residual-measure check; both have f(0) = 1
RESIDUAL_PROFILES = {
    "one": lambda z: np.ones(np.shape(z)),
    "affine": lambda z: 1.0 + np.asarray(z, dtype=complex).real,
}


def require_psi0(psi0: float) -> None:
    """Precondition of :func:`residual_record` on the pole offset."""
    if not math.isfinite(psi0):
        raise ParameterError("psi0 must be finite")


def require_shell_depth(t: float) -> None:
    """Precondition of :func:`residual_record` on the shell depth ``t``."""
    if not 0.0 < t < math.inf:
        raise ParameterError("shell depth t must be finite and positive")


# the bound on |mass - e^{-psi0}|
_MASS_TOL = 1e-3


def residual_record(psi0: float, f: str, t: float = 20.0) -> ReportRecord:
    """Residual mass of ``log|z|^2 + psi0`` against the profile ``f`` of
    :data:`RESIDUAL_PROFILES` at shell depth ``t``, within ``_MASS_TOL`` of
    the point mass ``e^{-psi0} f(0)``."""
    require_psi0(psi0)
    require_shell_depth(t)
    mass = residual_measure(
        lambda z: np.full(np.shape(z), psi0, dtype=float), RESIDUAL_PROFILES[f], t
    )
    expected = math.exp(-psi0)
    err = abs(mass - expected)
    return make_record(
        quantities={"mass": mass, "expected": expected, "abs_error": err},
        gates={"value_match": (-err, _MASS_TOL)},
        primary="mass",
        provenance={
            "mass": "residual_measure",
            "expected": "residual-measure",
            "abs_error": "residual-measure",
        },
    )


# ---------------------------------------------------------------------------
# Optimal-constant experiment
# ---------------------------------------------------------------------------


# the largest relative change between the two last panel levels of the
# min-norm quadrature
_MIN_NORM_TOL = 1e-12


def _min_norm_quadrature(delta: float, a: float) -> float:
    """Independent route: direct radial quadrature of ``2 pi int s rho ds``
    for the plateaued weight, split at the corner ``s = a``: Gauss-Legendre,
    exact for the linear inner integrand, and the outer ``int_a^1
    s^{-1-2 delta} ds = int_{log a}^0 e^{-2 delta u} du`` over up to 256
    panels in ``u = log s``, doubled through :func:`domains.refine`."""
    x, w = gauss_legendre(16)
    s = 0.5 * a * (x + 1.0)
    inner = float(0.5 * a * w @ (2.0 * math.pi * s)) * a ** (-2.0 * (1.0 + delta))

    def outer(k: int) -> float:
        edges = np.linspace(math.log(a), 0.0, (1 << k) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        u = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
        return float(np.sum(half * w * 2.0 * math.pi * np.exp(-2.0 * delta * u)))

    return inner + refine(outer, lambda f, c: abs(f - c) / abs(f), _MIN_NORM_TOL, 8)[0]


def require_delta(delta: float) -> None:
    """Precondition of :func:`optimal_constant_experiment` on ``delta``."""
    if not 0.0 < delta < math.inf:
        raise ParameterError("delta must be finite and positive")


def require_eps(eps: float) -> None:
    """Precondition of :func:`optimal_constant_experiment` on ``eps``."""
    if not 0.0 <= eps < math.inf:
        raise ParameterError("eps must be finite and nonnegative")


def require_a(a: float) -> None:
    """Precondition of :func:`optimal_constant_experiment` on each plateau
    radius ``a``."""
    if not 0.0 < a < 1.0:
        raise ParameterError("a values must lie in (0, 1)")


def require_a_values(a_values) -> None:
    """Precondition of :func:`optimal_constant_experiment` on the whole
    sequence of plateau radii, which the limit ``a -> 0`` runs along."""
    _require_decreasing(a_values, "a sequence")


# the relative agreement of the two least-norm routes, and of the
# extrapolated limit with (1 + 1/delta) pi e^{-eps}
_CROSS_TOL = 1e-6
_LIMIT_REL_TOL = 0.01


def optimal_constant_experiment(
    delta: float,
    eps: float,
    a_values=(0.5, 0.1, 0.01, 1e-3, 1e-4),
) -> ReportRecord:
    """Least-norm extensions against ``MaxPiece(delta, a)`` as ``a -> 0``:
    the ``optimal-constant`` record.

    For each ``a`` the minimum of ``int |F|^2 e^{-phi}`` over ``F(0) = 1``
    is computed twice: through the Gram/least-norm machinery (closed-form
    radial moments) and through direct radial quadrature; the two must
    agree within ``_CROSS_TOL`` relative.  The ratio against the
    normalization ``a^{-2 delta} e^{eps}`` is tabulated, must increase as
    ``a`` shrinks, and is Richardson-extrapolated in the known power
    ``a^{2 delta}``; the limit must lie within ``_LIMIT_REL_TOL`` relative
    of the sharp target ``(1 + 1/delta) pi e^{-eps}``.
    """
    require_delta(delta)
    require_eps(eps)
    a_values = tuple(float(a) for a in a_values)
    for a in a_values:
        require_a(a)
    require_a_values(a_values)

    from .domains import Disc

    disc = Disc()
    closed, quads, ratios = [], [], []
    for a in a_values:
        mn, _ = least_norm_extension(disc, MaxPiece(delta, a), 0.0, 1.0, basis=(0, 8))
        closed.append(mn)
        quads.append(_min_norm_quadrature(delta, a))
        ratios.append(mn * a ** (2.0 * delta) * math.exp(-eps))

    target = (1.0 + 1.0 / delta) * math.pi * math.exp(-eps)
    if len(a_values) >= 2:
        a1, a2 = a_values[-2], a_values[-1]
        q = (a2 / a1) ** (2.0 * delta)
        limit = (ratios[-1] - q * ratios[-2]) / (1.0 - q)
    else:
        limit = ratios[-1]
    rel_err = abs(limit - target) / target
    cross_rel = float(np.max(np.abs(np.subtract(closed, quads)) / np.abs(closed)))
    quantities = {f"ratio_{i}": r for i, r in enumerate(ratios)}
    quantities.update(
        {
            "limit": limit,
            "target": target,
            "limit_rel_error": rel_err,
            "cross_rel_max": cross_rel,
        }
    )
    return make_record(
        quantities=quantities,
        gates={
            "limit_within_rel": (-rel_err, _LIMIT_REL_TOL),
            "routes_agree": (-cross_rel, _CROSS_TOL),
            "ratios_increasing": (min_margin(np.diff(ratios)), 1e-15),
        },
        primary="limit",
        provenance={k: "optimal_constant_experiment" for k in quantities},
    )
