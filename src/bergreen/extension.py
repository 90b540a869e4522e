"""Sharp-constant machinery: cutoffs, an ODE pair, residual shell
measures, and the optimal-constant experiment.

The pieces fit together as follows.  A smoothed cutoff family ``v_{t0,eps}``
(unit-mass second derivative supported in ``(-t0-1, -t0)``) drives weight
deformations; a closed-form ODE pair ``(u, s)`` realizes the sharp constant
``C = 1`` in the defining identity; the residual measure of a
pole is extracted by integrating ``f e^{-Psi}`` over the sublevel shell
``{-1-t < Psi < -t}``; and the optimal-constant experiment computes
least-norm extensions against the plateaued weight ``MaxPiece(delta, a)``
and holds them to their exact law in ``a``, whose limit ``(1 + 1/delta) pi
e^{-eps}`` as ``a -> 0`` shows that the constant cannot be improved.
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

    def jet(self, t):
        """``(u, u', u'', s, s', s'')`` at ``t``, a float, a complex number or
        an array of either, from one ``e^{-t}``; every form is analytic, so a
        complex ``t`` gives their continuations.  ``ParameterError`` where
        ``Re(a - e^{-t}) <= 0``."""
        t = np.asarray(t)
        e = np.exp(-t)
        d = self.a - e
        if np.any(np.real(d) <= 0.0):
            raise ParameterError("t out of range: need e^{-t} < a")
        n = self.a * t + e + self.b
        up = -e / d
        upp = self.a * e / d**2
        s = n / d
        sp = 1.0 - n * e / d**2
        return -np.log(d), up, upp, s, sp, sp * up + s * upp


def require_positive_delta(delta: float) -> None:
    """Precondition of :func:`ode_pair` on ``delta``: positive; ``inf`` is allowed (the pair's limit ``a = 1``)."""
    if not delta > 0.0:
        raise ParameterError("delta must be positive")


def ode_pair(delta: float) -> OdePair:
    require_positive_delta(delta)
    a = 1.0 + 1.0 / delta
    return OdePair(delta=float(delta), a=a, b=a * a - 2.0 * a)


# the complex step, and the allowed relative mismatch of each derivative
_COMPLEX_STEP = 1e-20
_DERIVATIVE_REL_TOL = 1e-5


def require_ode_t(t: float) -> None:
    """Precondition of :func:`ode_residual`, and so of :func:`ode_record`,
    on each point ``t`` of its grid."""
    if not 0.0 < t < math.inf:
        raise ParameterError("ode_residual requires t > 0 and finite")


def ode_residual(pair: OdePair, t):
    """Residuals of the defining identities at each ``t`` (a float or an
    array of floats):

    ``r1 = (s + s'^2/(u''s - s'')) e^{u-t} - 1`` and ``r2 = s' - s u' - 1``,

    both evaluated from one :meth:`OdePair.jet` over the points.  The
    analytic first and second derivatives are cross-checked against the
    complex step of ``u, s`` and of ``u', s'``: ``f'(t) = Im f(t + ih) / h``
    at ``h = _COMPLEX_STEP``, from one jet at ``t + ih``, with no difference
    to cancel (W. Squire and G. Trapp, SIAM Rev. 40, 1998).  A relative
    mismatch above ``_DERIVATIVE_REL_TOL``, against the larger of the
    analytic value and 1e-3, raises :class:`DerivativeMismatchError`.

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
    u, up, upp, s, sp, spp = pair.jet(tt)
    stepped = pair.jet(tt + 1j * _COMPLEX_STEP)
    analytic = np.stack([up, sp, upp, spp])
    step = np.stack([stepped[0], stepped[3], stepped[1], stepped[4]]).imag / _COMPLEX_STEP
    rel = np.abs(analytic - step) / np.maximum(np.abs(analytic), 1e-3)
    denom = upp * s - spp
    # rows: the checks in their order; the first column with a failure is the
    # first failing point, and its first failing row the check it names
    fails = np.vstack([rel > _DERIVATIVE_REL_TOL, denom <= 0.0])
    bad = np.flatnonzero(fails.any(axis=0))
    if bad.size:
        k = int(bad[0])
        check = int(np.argmax(fails[:, k]))
        if check == 4:
            raise ParameterError(f"u''s - s'' = {float(denom[k])} not positive at t={float(tt[k])}")
        name = ("u'", "s'", "u''", "s''")[check]
        raise DerivativeMismatchError(
            f"{name} analytic={float(analytic[check, k])} vs complex-step={float(step[check, k])} "
            f"(relative {rel[check, k]:.3e} > {_DERIVATIVE_REL_TOL:.1e}) at t={float(tt[k])}"
        )
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
    ``_ODE_RESIDUAL_TOL``, ``s >= 1/delta``, ``s' > 0``, and ``u`` at the
    grid end within ``_ODE_END_TOL`` of its limit ``-log a``.
    (:func:`ode_residual` raises where ``u'' s - s'' <= 0``.)"""
    pair = ode_pair(delta)
    r1s, r2s = ode_residual(pair, grid)
    u_vals, _, _, s_vals, sp_vals, _ = pair.jet(grid)
    u_end = float(u_vals[-1])
    u_target = -math.log(pair.a)
    quantities = {
        "max_r1": float(np.max(np.abs(r1s))),
        "max_r2": float(np.max(np.abs(r2s))),
        "u_end": u_end,
        "u_target": u_target,
        "min_s_minus_floor": float(np.min(s_vals)) - 1.0 / delta,
        "min_s_prime": float(np.min(sp_vals)),
    }
    return make_record(
        quantities=quantities,
        gates={
            "residual_r1": (-quantities["max_r1"], _ODE_RESIDUAL_TOL),
            "residual_r2": (-quantities["max_r2"], _ODE_RESIDUAL_TOL),
            "s_floor": (quantities["min_s_minus_floor"], 1e-12),
            "s_prime_positive": (quantities["min_s_prime"], 0.0),
            "u_end_close": (-abs(u_end - u_target), _ODE_END_TOL),
        },
        primary="max_r1",
        provenance={k: "ode_residual" if k.startswith("max_") else "ode_pair" for k in quantities},
    )


# ---------------------------------------------------------------------------
# Residual measure
# ---------------------------------------------------------------------------


# the edge solve's error target, in units of eps * max(1, |u|)
_EDGE_ULPS = 16.0


def _shell_edges(psi: Callable, theta: np.ndarray, level_lo: float, level_hi: float):
    """Per-angle solutions ``u = log(radius)`` of ``2u + psi(e^{u + i theta})
    = level`` for both shell levels, by the fixed-point iteration ``u <-
    (level - psi) / 2`` over the stacked (2, angles) array from ``u = level /
    2``, one ``psi`` call a step.  It contracts where ``psi`` moves at most
    half as fast as the pole term ``2 log|z|``; a step that fails to halve
    the one before, a NaN, or 64 steps raise :class:`AccuracyError`.  The
    ratio ``q <= 1/2`` of the last two steps bounds an edge's error by ``q /
    (1 - q)`` times the last step (the step itself at first), and the solve
    stops when that is ``_EDGE_ULPS`` units of ``eps * max(1, |u|)``.  The
    rounding of ``psi`` adds up to 44 units at ``tau = 0.1i`` (1.8e-13 over
    40 ulps at ``|u| ~ 9.4``); the steps need not reach it, as ``q`` is 6e-6.
    """
    level = np.array([[level_lo], [level_hi]])
    u = np.broadcast_to(0.5 * level, (2, theta.size))
    before = math.inf
    for n in range(1, 65):
        nxt = 0.5 * (level - np.asarray(psi(np.exp(u) * np.exp(1j * theta)), dtype=float))
        step, u = float(np.max(np.abs(nxt - u))), nxt
        if not step <= 0.5 * before:
            break
        bound = step if n == 1 else step * step / (before - step)
        if bound <= _EDGE_ULPS * np.finfo(float).eps * max(1.0, float(np.max(np.abs(u)))):
            return u[0], u[1]
        before = step
    raise AccuracyError(f"shell edges at levels {level_lo:g} and {level_hi:g}: step {n} moved "
                        f"{step:.3g} after {before:.3g}; psi must move at most half as fast as 2 log|z|")


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
    vals = np.asarray(f(zs), dtype=float) * np.exp(-np.asarray(psi(zs), dtype=float))
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
    """Precondition of :func:`residual_record` on the shell depth ``t``: the
    rounded levels ``-1 - t`` and ``-t`` lie one unit apart within
    ``_SHELL_TOL`` (from ``t = 2**53`` they round to one level)."""
    if not (0.0 < t < math.inf and abs((-t) - (-1.0 - t) - 1.0) <= _SHELL_TOL):
        raise ParameterError(f"shell depth t must be positive with -t - (-1 - t) within {_SHELL_TOL:g} of 1")


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


# the law's relative tolerance, in units of eps * max(1, |2 delta log a|).
# The least norm exp(log m) is formed from log-space moments whose terms are
# of size |2 delta log a|, so it carries about that many ulps of relative
# rounding; the products with a^{2 delta} and e^{-eps} and the law itself add
# a few more.  Over delta in {0.1, 0.5, 1, 2, 3, 4, 5, 10} and eps in {0, 0.1}
# at the default a-values the deviation is at most 1.2 units (3.4e-14
# relative at delta = 10), so 8 units leave 6.8x headroom.
_LAW_ULPS = 8.0


def optimal_constant_experiment(
    delta: float,
    eps: float,
    a_values=(0.5, 0.1, 0.01, 1e-3, 1e-4),
) -> ReportRecord:
    """Least-norm extensions against ``MaxPiece(delta, a)`` as ``a -> 0``:
    the ``optimal-constant`` record.

    For each ``a`` the minimum of ``int |F|^2 e^{-phi}`` over ``F(0) = 1``
    comes from the least-norm machinery (closed-form radial moments), and
    its ratio against the normalization ``a^{-2 delta} e^{eps}`` is
    tabulated.  The weight is radial, so the minimizer is the constant 1 and
    the ratio is exactly ``law(a) = target - pi e^{-eps} a^{2 delta} /
    delta`` with the sharp constant ``target = (1 + 1/delta) pi e^{-eps}``.
    Each ratio must match the law (gate ``law``) and stay at most ``target``
    (gate ``below_target``, the extension theorem's inequality), both
    within ``_LAW_ULPS`` rounding units relative.  The limit is the
    smallest-``a`` ratio plus the law's correction.
    """
    require_delta(delta)
    require_eps(eps)
    a_values = tuple(float(a) for a in a_values)
    for a in a_values:
        require_a(a)
    require_a_values(a_values)

    from .domains import Disc

    disc = Disc()
    ratios = []
    for a in a_values:
        mn, _ = least_norm_extension(disc, MaxPiece(delta, a), 0.0, 1.0, basis=(0, 8))
        ratios.append(mn * a ** (2.0 * delta) * math.exp(-eps))

    target = (1.0 + 1.0 / delta) * math.pi * math.exp(-eps)
    correction = math.pi * math.exp(-eps) * np.asarray(a_values) ** (2.0 * delta) / delta
    law = target - correction
    tol = _LAW_ULPS * np.finfo(float).eps * max(1.0, -2.0 * delta * math.log(min(a_values)))
    quantities = {f"ratio_{i}": r for i, r in enumerate(ratios)}
    quantities.update({"limit": ratios[-1] + correction[-1], "target": target})
    return make_record(
        quantities=quantities,
        gates={
            "law": (-np.max(np.abs(np.subtract(ratios, law)) / law), tol),
            "below_target": (min_margin(1.0 - np.divide(ratios, target)), tol),
        },
        primary="limit",
        provenance={k: "optimal_constant_experiment" for k in quantities},
    )
