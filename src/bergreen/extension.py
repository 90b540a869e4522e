"""Sharp-constant machinery: cutoffs, an ODE pair, pole classes, residual
shell measures, and the optimal-constant experiment.

The pieces fit together as follows.  A smoothed cutoff family ``v_{t0,eps}``
(unit-mass second derivative supported in ``(-t0-1, -t0)``) drives weight
deformations; a closed-form ODE pair ``(u, s)`` realizes the sharp constant
``C = 1`` in the defining identity; densities with a single logarithmic
pole are classified by sub-mean-value checks; the residual measure of a
pole is extracted by integrating ``f e^{-Psi}`` over the sublevel shell
``{-1-t < Psi < -t}``; and the optimal-constant experiment computes
least-norm extensions against the plateaued weight ``MaxPiece(delta, a)``
and extrapolates ``a -> 0``, recovering the limit ``(1 + 1/delta) pi
e^{-eps}`` that shows the constant cannot be improved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bergman import MaxPiece, WeightSpec, least_norm_extension, weight_phi
from .domains import PlanarDomain, gauss_legendre, refine
from .errors import (
    AccuracyError,
    DerivativeMismatchError,
    ParameterError,
    ShellEscapeError,
)
from .reports import ReportRecord, make_record

__all__ = [
    "CutoffFamily",
    "make_cutoff",
    "b_step",
    "cutoff_limit_check",
    "OdePair",
    "ode_pair",
    "ode_residual",
    "ode_record",
    "PolarSpec",
    "delta_class_check",
    "residual_measure",
    "RESIDUAL_PROFILES",
    "residual_record",
    "OptimalConstantResult",
    "optimal_constant_experiment",
    "optimal_constant_record",
]


# ---------------------------------------------------------------------------
# Cutoff family
# ---------------------------------------------------------------------------


def _bump_tables(nodes: int = 4097):
    """Spline tables for the normalized bump ``exp(-1/(1-x^2))`` on [-1, 1].

    Returns (P1, Q1, R1, q1, r1) where P1 is the bump's CDF, Q1 and R1 its
    first and second antiderivatives (all exact antiderivatives of the
    interpolating spline, so differentiation relations hold to spline
    accuracy ~1e-13), and q1 = Q1(1), r1 = R1(1).
    """
    from scipy.interpolate import CubicSpline

    xs = np.linspace(-1.0, 1.0, nodes)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(
            np.abs(xs) < 1.0, np.exp(-1.0 / np.maximum(1.0 - xs**2, 1e-300)), 0.0
        )
    vals[0] = vals[-1] = 0.0
    spline = CubicSpline(xs, vals)
    ip = spline.antiderivative()  # integral of bump
    mass = float(ip(1.0) - ip(-1.0))
    iq = ip.antiderivative()  # integral of integral
    ir = iq.antiderivative()

    ip_m1, iq_m1, ir_m1 = float(ip(-1.0)), float(iq(-1.0)), float(ir(-1.0))

    def P1(x):
        # CDF, clipped so the plateau values 0 and 1 are exact
        return np.clip((ip(x) - ip_m1) / mass, 0.0, 1.0)

    def Q1(x):
        # integral of P1 from -1: int (ip(u) - ip(-1)) du / mass
        return (iq(x) - iq_m1 - ip_m1 * (x + 1.0)) / mass

    def R1(x):
        # integral of Q1 from -1
        return (ir(x) - ir_m1 - iq_m1 * (x + 1.0) - 0.5 * ip_m1 * (x + 1.0) ** 2) / mass

    return P1, Q1, R1, float(Q1(np.asarray(1.0))), float(R1(np.asarray(1.0)))


_BUMP = _bump_tables()


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
        P1, Q1, R1, q1, r1 = _BUMP
        xi = np.asarray(x, dtype=float) / self.m
        inside = np.clip(xi, -1.0, 1.0)
        above = np.maximum(xi - 1.0, 0.0)
        p = P1(inside)
        q = self.m * (Q1(inside) + above)
        r = self.m**2 * (R1(inside) + q1 * above + 0.5 * above**2)
        return p, q, r

    def v(self, t):
        t = np.asarray(t, dtype=float)
        _, _, ra = self._pqr(t - self.A)
        _, _, rb = self._pqr(t - self.B)
        out = self.k * (ra - rb) + self.C
        return out if out.ndim else float(out)

    def v_prime(self, t):
        t = np.asarray(t, dtype=float)
        _, qa, _ = self._pqr(t - self.A)
        _, qb, _ = self._pqr(t - self.B)
        out = self.k * (qa - qb)
        return out if out.ndim else float(out)

    def v_second(self, t):
        t = np.asarray(t, dtype=float)
        pa, _, _ = self._pqr(t - self.A)
        pb, _, _ = self._pqr(t - self.B)
        out = self.k * (pa - pb)
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        """Support interval of ``v''`` (equals ``(-t0-1+eps, -t0-eps)``)."""
        return (self.A - self.m, self.B + self.m)


def make_cutoff(t0: float, eps: float) -> CutoffFamily:
    """Build the cutoff family member for shift ``t0`` and sharpness ``eps``."""
    if not (0.0 < eps < 0.25):
        raise ParameterError("eps must lie in (0, 1/4)")
    m = min(eps / 4.0, 0.25 - eps)
    A = -t0 - 1.0 + eps + m
    B = -t0 - eps - m
    if B <= A:
        raise ParameterError("cutoff transition interval is empty")
    k = 1.0 / (B - A)
    _, _, _, q1, _ = _BUMP
    # anchor so v(t) = t exactly for t >= B + m = -t0 - eps
    C = 0.5 * (A + B) + m - m * q1
    return CutoffFamily(t0=float(t0), eps=float(eps), m=m, A=A, B=B, k=k, C=C)


def b_step(t0: float, t):
    """Limit profile ``b_{t0}(t) = clip(t + t0 + 1, 0, 1)`` of ``v'`` as
    ``eps -> 0`` (integral of the unit indicator on ``(-t0-1, -t0)``)."""
    out = np.clip(np.asarray(t, dtype=float) + t0 + 1.0, 0.0, 1.0)
    return out if out.ndim else float(out)


def cutoff_limit_check(
    t0: float,
    eps_sequence,
    sample_points=None,
    limit_tol: float = 0.05,
    kink_exclusion: float = 1e-9,
) -> ReportRecord:
    """Check ``v' -> b_{t0}`` pointwise along a decreasing ``eps`` sequence.

    Records the sup over sample points (excluding the two kink points of
    ``b_{t0}``) of ``|v' - b_{t0}|`` per ``eps``; passes if the sequence
    decreases monotonically and ends below ``limit_tol``.
    """
    eps_sequence = [float(e) for e in eps_sequence]
    if any(b >= a for a, b in zip(eps_sequence[:-1], eps_sequence[1:])):
        raise ParameterError("eps sequence must be strictly decreasing")
    if sample_points is None:
        sample_points = np.linspace(-t0 - 2.0, -t0 + 1.0, 1201)
    ts = np.asarray(sample_points, dtype=float)
    keep = (np.abs(ts + t0) > kink_exclusion) & (np.abs(ts + t0 + 1.0) > kink_exclusion)
    ts = ts[keep]
    target = b_step(t0, ts)
    gaps = []
    for eps in eps_sequence:
        fam = make_cutoff(t0, eps)
        gaps.append(float(np.max(np.abs(fam.v_prime(ts) - target))))
    diffs = [a - b for a, b in zip(gaps[:-1], gaps[1:])]
    quantities = {f"sup_gap_eps_{e}": g for e, g in zip(eps_sequence, gaps)}
    quantities["final_sup_gap"] = gaps[-1]
    return make_record(
        command="cutoff-check",
        input_id=f"t0={t0},eps={eps_sequence}",
        inputs={
            "t0": t0,
            "eps_sequence": eps_sequence,
            "samples": int(ts.size),
            "limit_tol": limit_tol,
        },
        quantities=quantities,
        margins={
            "monotone_decrease": min(diffs) if diffs else 0.0,
            "final_below_tol": limit_tol - gaps[-1],
        },
        tolerances={"monotone_decrease": 1e-12, "final_below_tol": 1e-12},
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


def ode_pair(delta: float) -> OdePair:
    if not (delta > 0.0):
        raise ParameterError("delta must be positive")
    a = 1.0 + 1.0 / delta
    return OdePair(delta=float(delta), a=a, b=a * a - 2.0 * a)


def ode_residual(
    pair: OdePair,
    t: float,
    fd_step: float = 1e-6,
    fd_rel_tol: float = 1e-5,
) -> tuple[float, float]:
    """Residuals of the defining identities at ``t``:

    ``r1 = (s + s'^2/(u''s - s'')) e^{u-t} - 1`` and ``r2 = s' - s u' - 1``,

    both evaluated from analytic derivatives.  The analytic first
    derivatives are cross-checked against central finite differences of
    ``u, s`` and the analytic second derivatives against central
    differences of the analytic first derivatives; a relative mismatch
    above ``fd_rel_tol`` raises :class:`DerivativeMismatchError`.  (The
    relative error uses denominator floor 1e-3: differencing magnitudes
    ~1 at step 1e-6 carries ~1e-10 roundoff, which would swamp a pure
    relative comparison against derivatives decaying like ``e^{-t}``.)
    """
    if not (t > 0.0):
        raise ParameterError("ode_residual requires t > 0")
    h = fd_step
    u, up, upp = pair.u(t), pair.u_prime(t), pair.u_second(t)
    s, sp, spp = pair.s(t), pair.s_prime(t), pair.s_second(t)

    checks = [
        (up, (pair.u(t + h) - pair.u(t - h)) / (2 * h), "u'"),
        (sp, (pair.s(t + h) - pair.s(t - h)) / (2 * h), "s'"),
        (upp, (pair.u_prime(t + h) - pair.u_prime(t - h)) / (2 * h), "u''"),
        (spp, (pair.s_prime(t + h) - pair.s_prime(t - h)) / (2 * h), "s''"),
    ]
    for analytic, fd, name in checks:
        rel = abs(analytic - fd) / max(abs(analytic), 1e-3)
        if rel > fd_rel_tol:
            raise DerivativeMismatchError(
                f"{name} analytic={analytic} vs finite-difference={fd} "
                f"(relative {rel:.3e} > {fd_rel_tol:.1e}) at t={t}"
            )

    denom = upp * s - spp
    if denom <= 0.0:
        raise ParameterError(f"u''s - s'' = {denom} not positive at t={t}")
    r1 = (s + sp * sp / denom) * math.exp(u - t) - 1.0
    r2 = sp - s * up - 1.0
    return r1, r2


def ode_record(
    delta: float, grid, residual_tol: float = 1e-9, end_tol: float = 1e-6
) -> ReportRecord:
    """The ODE pair on the t ``grid``: both identity residuals below
    ``residual_tol``, ``s >= 1/delta``, ``s' > 0``, ``u'' s - s'' > 0``,
    and ``u`` at the grid end within ``end_tol`` of its limit ``-log a``."""
    pair = ode_pair(delta)
    r1s, r2s = zip(*(ode_residual(pair, float(t)) for t in grid))
    s_vals = pair.s(grid)
    sp_vals = pair.s_prime(grid)
    denom = pair.u_second(grid) * s_vals - pair.s_second(grid)
    u_end = pair.u(float(grid[-1]))
    u_target = -math.log(pair.a)
    quantities = {
        "max_r1": max(abs(r) for r in r1s),
        "max_r2": max(abs(r) for r in r2s),
        "u_end": u_end,
        "u_target": u_target,
        "min_s_minus_floor": float(np.min(s_vals)) - 1.0 / delta,
        "min_s_prime": float(np.min(sp_vals)),
        "min_denom": float(np.min(denom)),
    }
    return make_record(
        command="ode-check",
        input_id=f"delta={delta:g}",
        inputs={"delta": delta, "residual_tol": residual_tol, "end_tol": end_tol},
        quantities=quantities,
        margins={
            "residual_r1": residual_tol - quantities["max_r1"],
            "residual_r2": residual_tol - quantities["max_r2"],
            "s_floor": quantities["min_s_minus_floor"],
            "s_prime_positive": quantities["min_s_prime"],
            "denom_positive": quantities["min_denom"],
            "u_end_close": end_tol - abs(u_end - u_target),
        },
        tolerances={
            "residual_r1": 0.0,
            "residual_r2": 0.0,
            "s_floor": 1e-12,
            "s_prime_positive": 0.0,
            "denom_positive": 0.0,
            "u_end_close": 0.0,
        },
        primary="max_r1",
        provenance={k: "ode_residual" if k.startswith("max_") else "ode_pair" for k in quantities},
    )


# ---------------------------------------------------------------------------
# Polar pole specifications and the class check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarSpec:
    """Density exponent with one logarithmic pole:

    ``Psi(z) = log|z - pole|^2 + psi(z)`` with ``psi`` continuous and
    bounded on the validity domain (the single-pole normalization of the
    admissible class).
    """

    pole: complex
    psi: Callable
    domain: PlanarDomain | None = None
    name: str = ""

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore"):
            out = 2.0 * np.log(np.abs(z - self.pole)) + np.asarray(
                self.psi(z), dtype=float
            )
        return out if out.ndim else float(out)


def delta_class_check(
    phi_weight: WeightSpec,
    psi: PolarSpec,
    delta: float,
    domain: PlanarDomain,
    radii=(1e-2, 1e-3),
    smv_tol: float = 1e-6,
    centers=None,
    angular_nodes: int = 4096,
) -> ReportRecord:
    """Sub-mean-value test of the class membership conditions.

    Both ``phi + Psi`` and ``phi + (1 + delta) Psi`` must be subharmonic;
    on a grid of centers and circle radii the circle average must be at
    least the center value minus ``smv_tol``.  Circles that exit the
    domain (or centers at the pole) are skipped and counted.  The record's
    margin is the worst ``average - center`` over all tested circles.
    """
    if not (delta > 0.0):
        raise ParameterError("delta must be positive")
    if centers is None:
        from .domains import sample_interior

        centers = sample_interior(domain, 48, seed=0)
    centers = [complex(c) for c in centers]

    def combined(z, factor):
        return weight_phi(phi_weight, z) + factor * psi(z)

    worst = math.inf
    skipped = 0
    tested = 0
    theta = np.linspace(0.0, 2.0 * math.pi, angular_nodes, endpoint=False)
    ring = np.exp(1j * theta)
    for c in centers:
        if abs(c - psi.pole) < 1e-6:
            skipped += 1
            continue
        for r in radii:
            if domain.boundary_distance(c) <= r:
                skipped += 1
                continue
            zs = c + r * ring
            dmin = np.min(np.abs(zs - psi.pole))
            if dmin < 1e-12:  # pole hits a node: rotate the grid half a step
                zs = c + r * np.exp(1j * (theta + math.pi / angular_nodes))
            for factor in (1.0, 1.0 + delta):
                avg = float(np.mean(combined(zs, factor)))
                center_val = float(combined(np.asarray([c]), factor)[0])
                margin = avg - center_val
                worst = min(worst, margin)
                tested += 1

    return make_record(
        command="delta-class-check",
        input_id=f"{psi.name or 'psi'},delta={delta}",
        inputs={
            "weight": type(phi_weight).__name__,
            "psi": psi.name or "custom",
            "delta": delta,
            "radii": list(radii),
            "smv_tol": smv_tol,
            "centers": len(centers),
            "angular_nodes": angular_nodes,
        },
        quantities={
            "worst_margin": worst,
            "circles_tested": tested,
            "circles_skipped": skipped,
        },
        margins={"sub_mean_value": worst},
        tolerances={"sub_mean_value": smv_tol},
        primary="worst_margin",
        provenance={
            "worst_margin": "delta_class_check",
            "circles_tested": "delta_class_check",
            "circles_skipped": "delta_class_check",
        },
    )

# ---------------------------------------------------------------------------
# Residual measure
# ---------------------------------------------------------------------------


def _shell_edges(psi: PolarSpec, theta: np.ndarray, level_lo: float, level_hi: float):
    """Per-angle solutions of ``Psi(pole + e^{u + i theta}) = level`` in
    ``u = log(radius)`` for both shell levels, by bisection.

    Near the pole ``Psi = 2u + psi`` with ``psi`` continuous, so ``Psi`` is
    strictly increasing in ``u`` once ``2u`` dominates; the bracket is
    built from the local spread of ``psi``.
    """
    z0 = psi.pole

    def g(u, th):
        return psi(z0 + np.exp(u) * np.exp(1j * th))

    # estimate the local psi spread on a probe circle at the shell scale
    probe_r = math.exp(0.5 * (level_lo - 1.0))
    probe = np.asarray(psi.psi(z0 + probe_r * np.exp(1j * theta)), dtype=float)
    lo_guess = 0.5 * (level_lo - float(np.max(probe))) - 1.0
    hi_guess = 0.5 * (level_hi - float(np.min(probe))) + 1.0

    edges = np.empty((2, theta.size))
    for j, level in enumerate((level_lo, level_hi)):
        a = np.full(theta.size, lo_guess)
        b = np.full(theta.size, hi_guess)
        ga = g(a, theta) - level
        gb = g(b, theta) - level
        for _ in range(8):  # widen until bracketed (psi bounded: terminates)
            bad_a = ga >= 0.0
            if np.any(bad_a):
                a[bad_a] -= 2.0
                ga[bad_a] = g(a[bad_a], theta[bad_a]) - level
            bad_b = gb <= 0.0
            if np.any(bad_b):
                b[bad_b] += 2.0
                gb[bad_b] = g(b[bad_b], theta[bad_b]) - level
            if not (np.any(bad_a) or np.any(bad_b)):
                break
        else:
            raise AccuracyError("could not bracket the shell edge")
        for _ in range(64):
            mid = 0.5 * (a + b)
            gm = g(mid, theta) - level
            neg = gm < 0.0
            a = np.where(neg, mid, a)
            b = np.where(neg, b, mid)
        edges[j] = 0.5 * (a + b)
    return edges[0], edges[1]


def _shell_integral(
    psi: PolarSpec, f: Callable, t: float, n_rad: int, n_ang: int
) -> tuple[float, float]:
    """(value, max shell radius) of the smooth polar integral."""
    z0 = psi.pole
    theta = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    u_lo, u_hi = _shell_edges(psi, theta, -1.0 - t, -t)
    x, w = gauss_legendre(n_rad)
    # per-angle affine map of the Gauss nodes into [u_lo, u_hi]
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    u = mid[None, :] + half[None, :] * x[:, None]  # (rad, ang)
    zs = z0 + np.exp(u) * np.exp(1j * theta[None, :])
    # rho drho dtheta with rho = e^u: the pole factor e^{-2u} cancels exactly,
    # leaving the smooth integrand f e^{-psi}
    vals = np.asarray(f(zs), dtype=float) * np.exp(
        -np.asarray(psi.psi(zs), dtype=float)
    )
    radial = (w[:, None] * vals).sum(axis=0) * half
    value = float(radial.mean() * 2.0 * math.pi / math.pi)
    return value, float(np.exp(np.max(u_hi)))


def residual_measure(
    psi: PolarSpec,
    f: Callable,
    t: float,
    n_rad: int = 512,
    n_ang: int = 256,
    accuracy_tol: float = 1e-6,
) -> float:
    """Residual mass ``(1/pi) integral_{-1-t < Psi < -t} f e^{-Psi} dLambda``.

    In the radial log coordinate the pole factor cancels and the integrand
    is smooth, so Gauss-Legendre (radially, inside per-angle shell edges)
    x trapezoid (angularly) converges fast; the grid is doubled once by
    :func:`domains.refine`, which raises :class:`AccuracyError` if the two
    disagree by more than ``accuracy_tol * max(1, |value|)``, or by NaN.
    If the validity domain is known, a shell reaching the boundary on
    either grid raises :class:`ShellEscapeError`.
    """
    dist = math.inf if psi.domain is None else psi.domain.boundary_distance(psi.pole)

    def compute(k: int) -> float:
        value, r_max = _shell_integral(psi, f, t, n_rad << k, n_ang << k)
        if r_max >= dist:
            raise ShellEscapeError(
                f"shell radius {r_max:.3e} reaches the boundary "
                f"(pole clearance {dist:.3e}); increase t"
            )
        return value

    def change(fine: float, coarse: float) -> float:
        return abs(fine - coarse) / max(1.0, abs(fine))

    return refine(compute, change, accuracy_tol, doublings=1)[0]


# integrand profiles of the residual-measure check; both have f(0) = 1
RESIDUAL_PROFILES = {
    "one": lambda z: np.ones(np.shape(z)),
    "affine": lambda z: 1.0 + np.asarray(z, dtype=complex).real,
}


def residual_record(psi0: float, f: str, t: float = 20.0, value_tol: float = 1e-3) -> ReportRecord:
    """Residual mass of ``log|z|^2 + psi0`` against the profile ``f`` of
    :data:`RESIDUAL_PROFILES` at shell depth ``t``, within ``value_tol`` of
    the point mass ``e^{-psi0} f(0)``."""
    psi = PolarSpec(
        0.0,
        lambda z: np.full(np.shape(z), psi0, dtype=float),
        None,
        name=f"log-pole+{psi0:g}",
    )
    mass = residual_measure(psi, RESIDUAL_PROFILES[f], t)
    expected = math.exp(-psi0)
    err = abs(mass - expected)
    return make_record(
        command="residual-measure",
        input_id=f"psi0={psi0:g},f={f}",
        inputs={"psi0": psi0, "f": f, "t": t, "value_tol": value_tol},
        quantities={"mass": mass, "expected": expected, "abs_error": err},
        margins={"value_match": value_tol - err},
        tolerances={"value_match": 0.0},
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


@dataclass(frozen=True)
class OptimalConstantResult:
    """Ratio table and extrapolated small-``a`` limit for one (delta, eps)."""

    delta: float
    eps: float
    a_values: tuple
    min_norms_closed: tuple
    min_norms_quadrature: tuple
    ratios: tuple
    extrapolated_limit: float
    target: float

    @property
    def limit_error(self) -> float:
        return abs(self.extrapolated_limit - self.target)


def _min_norm_quadrature(delta: float, a: float) -> float:
    """Independent route: direct radial quadrature of ``2 pi int s rho ds``
    for the plateaued weight, split at the corner ``s = a``."""
    from scipy.integrate import quad

    # absolute tolerances scaled to the a^{-2 delta} magnitude of the pieces
    scale = a ** (-2.0 * delta)
    inner = quad(
        lambda s: 2.0 * math.pi * s * a ** (-2.0 * (1.0 + delta)),
        0.0,
        a,
        epsabs=1e-12 * scale,
        epsrel=1e-12,
    )[0]
    outer = quad(
        lambda s: 2.0 * math.pi * s ** (-1.0 - 2.0 * delta),
        a,
        1.0,
        epsabs=1e-12 * scale,
        epsrel=1e-12,
        limit=200,
    )[0]
    return inner + outer


def optimal_constant_experiment(
    delta: float,
    eps: float,
    a_values=(0.5, 0.1, 0.01, 1e-3, 1e-4),
    cross_check_tol: float = 1e-6,
) -> OptimalConstantResult:
    """Least-norm extensions against ``MaxPiece(delta, a)`` as ``a -> 0``.

    For each ``a`` the minimum of ``int |F|^2 e^{-phi}`` over ``F(0) = 1``
    is computed twice: through the Gram/least-norm machinery (closed-form
    radial moments) and through direct radial quadrature; the two must
    agree within ``cross_check_tol`` relative.  The ratio against the
    normalization ``a^{-2 delta} e^{eps}`` is tabulated and Richardson-
    extrapolated in the known power ``a^{2 delta}``, with the sharp
    target ``(1 + 1/delta) pi e^{-eps}``.
    """
    if not (delta > 0.0):
        raise ParameterError("delta must be positive")
    if eps < 0.0:
        raise ParameterError("eps must be nonnegative")
    a_values = tuple(float(a) for a in a_values)
    if any(not (0.0 < a < 1.0) for a in a_values):
        raise ParameterError("a values must lie in (0, 1)")
    if any(a2 >= a1 for a1, a2 in zip(a_values[:-1], a_values[1:])):
        raise ParameterError("a sequence must be strictly decreasing")

    from .domains import Disc

    disc = Disc()
    closed, quads, ratios = [], [], []
    for a in a_values:
        mn, _ = least_norm_extension(disc, MaxPiece(delta, a), 0.0, 1.0, basis=(0, 8))
        mq = _min_norm_quadrature(delta, a)
        if abs(mn - mq) / abs(mn) > cross_check_tol:
            raise AccuracyError(
                f"least-norm routes disagree at a={a}: {mn!r} vs {mq!r}"
            )
        closed.append(mn)
        quads.append(mq)
        ratios.append(mn * a ** (2.0 * delta) * math.exp(-eps))

    target = (1.0 + 1.0 / delta) * math.pi * math.exp(-eps)
    if len(a_values) >= 2:
        a1, a2 = a_values[-2], a_values[-1]
        q = (a2 / a1) ** (2.0 * delta)
        limit = (ratios[-1] - q * ratios[-2]) / (1.0 - q)
    else:
        limit = ratios[-1]
    return OptimalConstantResult(
        delta=delta,
        eps=eps,
        a_values=a_values,
        min_norms_closed=tuple(closed),
        min_norms_quadrature=tuple(quads),
        ratios=tuple(ratios),
        extrapolated_limit=limit,
        target=target,
    )


def optimal_constant_record(
    delta: float, eps: float, a_values, cross_tol: float, limit_rel_tol: float = 0.01
) -> ReportRecord:
    """:func:`optimal_constant_experiment` at ``(delta, eps)``: the
    extrapolated limit within ``limit_rel_tol`` relative of the sharp
    target, the two least-norm routes within ``cross_tol``, and the ratios
    increasing as ``a`` shrinks."""
    res = optimal_constant_experiment(
        delta, eps, a_values=tuple(a_values), cross_check_tol=cross_tol
    )
    cross_rel = max(
        abs(c - q) / abs(c) for c, q in zip(res.min_norms_closed, res.min_norms_quadrature)
    )
    rel_err = res.limit_error / res.target
    diffs = [b - a for a, b in zip(res.ratios[:-1], res.ratios[1:])]
    quantities = {f"ratio_{i}": r for i, r in enumerate(res.ratios)}
    quantities.update(
        {
            "limit": res.extrapolated_limit,
            "target": res.target,
            "limit_rel_error": rel_err,
            "cross_rel_max": cross_rel,
        }
    )
    return make_record(
        command="optimal-constant",
        input_id=f"delta={delta:g},eps={eps:g}",
        inputs={
            "delta": delta,
            "eps": eps,
            "a_values": list(a_values),
            "cross_tol": cross_tol,
            "limit_rel_tol": limit_rel_tol,
        },
        quantities=quantities,
        margins={
            "limit_within_rel": limit_rel_tol - rel_err,
            "routes_agree": cross_tol - cross_rel,
            "ratios_increasing": min(diffs) if diffs else 0.0,
        },
        tolerances={
            "limit_within_rel": 0.0,
            "routes_agree": 0.0,
            "ratios_increasing": 1e-15,
        },
        primary="limit",
        provenance={k: "optimal_constant_experiment" for k in quantities},
    )
