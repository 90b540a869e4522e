"""Tests for the smoothed cutoff family, the sharp-constant ODE pair, the
generalized residual measure, and the
optimal-constant experiment."""

import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
from bergreen import extension
from bergreen.cli import main
from bergreen.bergman import MaxPiece, least_norm_extension
from bergreen.domains import Disc
from bergreen.errors import AccuracyError, DerivativeMismatchError, ParameterError
from bergreen.extension import (
    CutoffFamily,
    OdePair,
    b_step,
    cutoff_limit_check,
    make_cutoff,
    ode_pair,
    ode_residual,
    optimal_constant_experiment,
    residual_measure,
)
from bergreen.torus import TorusSpec, arakelov_green, residual_mass

DELTA_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)
T_GRID = np.geomspace(0.01, 50.0, 200)


# ---------------------------------------------------------------------------
# Cutoff family
# ---------------------------------------------------------------------------


class TestCutoffFamily:
    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.25, 0.3, 1.0])
    def test_rejects_eps_outside_open_quarter(self, eps):
        with pytest.raises(ParameterError):
            make_cutoff(1.0, eps)

    def test_rejects_offset_beyond_bound(self):
        # at 1e16 the unit interval (-t0-1, -t0) is below the spacing of doubles
        with pytest.raises(ParameterError, match=r"\|t0\| <= 1e\+06"):
            make_cutoff(1e16, 0.1)

    @pytest.mark.parametrize("t0", [1e6, -1e6])
    def test_limit_check_passes_at_the_offset_bound(self, t0):
        assert cutoff_limit_check(t0, (0.2, 0.1, 0.05, 0.01)).passed

    @pytest.mark.parametrize("t0", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.23])
    def test_support_interval(self, t0, eps):
        fam = make_cutoff(t0, eps)
        lo, hi = fam.support
        assert lo == pytest.approx(-t0 - 1.0 + eps, abs=1e-12)
        assert hi == pytest.approx(-t0 - eps, abs=1e-12)

    def test_exact_linear_anchoring_on_the_right(self):
        fam = make_cutoff(2.0, 0.1)
        # v(t) = t exactly for t >= -t0 - eps = -2.1
        for t in [-2.1, -2.0, -1.5, 0.0, 1.0, 5.0]:
            assert fam.v(t) == pytest.approx(t, abs=1e-12)
            assert fam.v_prime(t) == pytest.approx(1.0, abs=1e-12)
            assert fam.v_second(t) == pytest.approx(0.0, abs=1e-13)

    def test_constant_left_tail(self):
        fam = make_cutoff(2.0, 0.1)
        lo, _ = fam.support
        ts = np.linspace(lo - 3.0, lo - 1e-9, 50)
        vals = fam.v(ts)
        assert np.max(np.abs(vals - vals[0])) < 1e-14
        assert np.max(np.abs(fam.v_prime(ts))) < 1e-14
        assert np.max(np.abs(fam.v_second(ts))) < 1e-14
        # the constant sits between the left support edge and the anchor line
        assert lo <= vals[0] <= -fam.t0 - fam.eps

    @pytest.mark.parametrize("t0", [1.0, 5.0])
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_derivative_bounds_at_dense_samples(self, t0, eps):
        fam = make_cutoff(t0, eps)
        ts = np.linspace(-t0 - 2.0, -t0 + 1.0, 10_000)
        vp = fam.v_prime(ts)
        vpp = fam.v_second(ts)
        v = fam.v(ts)
        assert np.all(vp >= -1e-12) and np.all(vp <= 1.0 + 1e-12)
        assert np.all(vpp >= -1e-12) and np.all(vpp <= 2.0 + 1e-12)
        assert np.all(np.diff(v) >= -1e-12)  # v nondecreasing
        # v(t) >= t everywhere, with equality to the right of the support
        assert np.all(v - ts >= -1e-12)

    @pytest.mark.parametrize("t0", [1.0, 5.0])
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_second_derivative_total_mass_one(self, t0, eps):
        fam = make_cutoff(t0, eps)
        lo, hi = fam.support
        mass, est = quad(
            fam.v_second, lo, hi,
            points=[fam.A - fam.m, fam.A + fam.m, fam.B - fam.m, fam.B + fam.m],
            limit=200, epsabs=1e-12, epsrel=1e-12,
        )
        assert est < 1e-9
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_bump_tables_match_the_spline(self):
        # the moment tables against the antiderivatives of a cubic spline
        # through 4097 bump samples
        from scipy.interpolate import CubicSpline

        nodes = np.linspace(-1.0, 1.0, 4097)
        bump = np.zeros_like(nodes)
        bump[1:-1] = np.exp(-1.0 / (1.0 - nodes[1:-1] ** 2))
        ip = CubicSpline(nodes, bump).antiderivative()
        iq, mass = ip.antiderivative(), ip(1.0) - ip(-1.0)
        ir = iq.antiderivative()
        x = np.linspace(-1.0, 1.0, 20_001)
        P = (ip(x) - ip(-1.0)) / mass
        Q = (iq(x) - iq(-1.0) - ip(-1.0) * (x + 1.0)) / mass
        R = (ir(x) - ir(-1.0) - iq(-1.0) * (x + 1.0) - 0.5 * ip(-1.0) * (x + 1.0) ** 2) / mass
        pqr, q1 = extension._bump_tables()
        for ours, ref in zip(pqr(x), (P, Q, R)):
            assert np.max(np.abs(ours - ref)) <= 1e-13
        assert q1 == 1.0
        # a scalar call leaves the tables as they were
        for _ in range(2):
            assert tuple(map(float, pqr(x[13_000]))) == tuple(float(v[13_000]) for v in pqr(x))

    def test_sup_second_derivative_at_most_two(self):
        for eps in np.linspace(0.01, 0.24, 24):
            fam = make_cutoff(3.0, float(eps))
            assert fam.k <= 2.0 + 1e-15
            ts = np.linspace(*fam.support, 2001)
            assert float(np.max(fam.v_second(ts))) <= fam.k + 1e-12

    @pytest.mark.parametrize("t0", [1.0, 5.0])
    def test_limit_check_record(self, t0):
        rec = cutoff_limit_check(t0, (0.2, 0.1, 0.05, 0.01))
        assert rec.primary == "final_sup_gap"
        assert rec.quantities["samples"] == 1199  # the two kink points excluded
        assert rec.passed
        gaps = [rec.quantities[f"sup_gap_eps_{e}"] for e in (0.2, 0.1, 0.05, 0.01)]
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] < 0.05
        # the sup gap shrinks proportionally with the sharpness parameter
        for eps, gap in zip((0.2, 0.1, 0.05, 0.01), gaps):
            assert gap <= 2.0 * eps
        assert rec.margins["monotone_decrease"] > 0.0
        assert rec.margins["final_below_tol"] > 0.0

    def test_limit_check_requires_decreasing_sequence(self):
        with pytest.raises(ParameterError):
            cutoff_limit_check(1.0, (0.1, 0.1, 0.05))
        with pytest.raises(ParameterError):
            cutoff_limit_check(1.0, (0.05, 0.1))

    def test_limit_profile_shape(self):
        assert b_step(1.0, -3.0) == 0.0
        assert b_step(1.0, -1.5) == 0.5
        assert b_step(1.0, 0.0) == 1.0
        arr = b_step(2.0, np.array([-4.0, -2.5, -1.0]))
        assert np.allclose(arr, [0.0, 0.5, 1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        t0=st.floats(0.5, 6.0),
        eps=st.floats(0.011, 0.24),
        t=st.floats(-10.0, 5.0),
    )
    def test_pointwise_properties(self, t0, eps, t):
        fam = make_cutoff(t0, eps)
        v, vp, vpp = fam.v(t), fam.v_prime(t), fam.v_second(t)
        assert -1e-12 <= vp <= 1.0 + 1e-12
        assert -1e-12 <= vpp <= 2.0 + 1e-12
        assert v >= t - 1e-10
        if t >= -t0 - eps:
            assert v == pytest.approx(t, abs=1e-10)
        else:
            assert v <= -t0 - eps + 1e-10


# ---------------------------------------------------------------------------
# ODE pair
# ---------------------------------------------------------------------------


def _broken_from(t_bad):
    """An ODE pair whose analytic u' is off by 0.1 % for ``t >= t_bad``."""

    class Broken(OdePair):
        def jet(self, t):
            u, up, *rest = super().jet(t)
            return (u, up * np.where(np.real(t) >= t_bad, 1.001, 1.0), *rest)

    return Broken(delta=1.0, a=2.0, b=0.0)


class TestOdePair:
    def test_construction(self):
        pair = ode_pair(1.0)
        assert pair.a == 2.0 and pair.b == 0.0 and pair.delta == 1.0
        pair = ode_pair(0.5)
        assert pair.a == 3.0 and pair.b == 3.0

    def test_rejects_nonpositive_delta(self):
        for delta in (0.0, -1.0):
            with pytest.raises(ParameterError):
                ode_pair(delta)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    def test_initial_values(self, delta):
        pair = ode_pair(delta)
        u, _, _, s, sp, _ = pair.jet(0.0)
        assert s == pytest.approx(1.0 / delta, rel=1e-12)
        assert u == pytest.approx(math.log(delta), abs=1e-12)
        assert sp == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    def test_long_time_value(self, delta):
        pair = ode_pair(delta)
        assert pair.jet(50.0)[0] == pytest.approx(-math.log(1.0 + 1.0 / delta), abs=1e-6)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    def test_residuals_below_threshold(self, delta):
        pair = ode_pair(delta)
        worst = 0.0
        for t in T_GRID:
            r1, r2 = ode_residual(pair, float(t))
            worst = max(worst, abs(r1), abs(r2))
        assert worst < 1e-9

    @pytest.mark.parametrize("delta", DELTA_GRID)
    def test_monotonicity_and_positivity(self, delta):
        pair = ode_pair(delta)
        _, _, upp, s, sp, spp = pair.jet(T_GRID)
        denom = upp * s - spp
        assert np.all(s >= 1.0 / delta - 1e-12)
        assert np.all(sp > 0.0)
        assert np.all(denom > 0.0)

    def test_requires_positive_time(self):
        pair = ode_pair(1.0)
        for t in (0.0, -1.0, np.array([1.0, 0.0]), math.inf, math.nan, np.array([1.0, math.inf])):
            with pytest.raises(ParameterError, match="requires t > 0 and finite"):
                ode_residual(pair, t)
        # the closed forms themselves blow up once e^{-t} reaches a
        with pytest.raises(ParameterError):
            pair.jet(-5.0)

    def test_detects_inconsistent_derivatives(self):
        with pytest.raises(DerivativeMismatchError):
            ode_residual(_broken_from(0.0), 1.0)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    def test_array_call_matches_scalar_calls(self, delta):
        pair = ode_pair(delta)
        r1, r2 = ode_residual(pair, T_GRID)
        scalar = [ode_residual(pair, float(t)) for t in T_GRID]
        assert all(isinstance(r, float) for r in scalar[0])
        np.testing.assert_array_max_ulp(r1, [r[0] for r in scalar], maxulp=4)
        np.testing.assert_array_max_ulp(r2, [r[1] for r in scalar], maxulp=4)

    def test_record_names_the_first_failing_point(self, monkeypatch):
        grid = np.geomspace(0.1, 50.0, 20)
        t_first = float(grid[grid >= 2.0][0])
        monkeypatch.setattr(extension, "ode_pair", lambda delta: _broken_from(2.0))
        with pytest.raises(DerivativeMismatchError, match=rf"^u' analytic=.* at t={t_first}$"):
            extension.ode_record(1.0, grid)
        # a derivative that fails before a nonpositive t is the error raised
        with pytest.raises(DerivativeMismatchError, match=r"at t=1\.0$"):
            ode_residual(_broken_from(0.5), np.array([1.0, 0.0]))

    def test_nonpositive_denominator_raises(self):
        # negating s keeps every derivative consistent with its complex step,
        # so only u''s - s'' > 0 can fail
        class Flipped(OdePair):
            def jet(self, t):
                u, up, upp, s, sp, spp = super().jet(t)
                return u, up, upp, -s, -sp, -spp

        with pytest.raises(ParameterError, match=r"^u''s - s'' = .* not positive at t=0\.5$"):
            ode_residual(Flipped(delta=1.0, a=2.0, b=0.0), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("delta", [1e-6, 1e-4, 1.0])
    def test_complex_step_reads_the_derivatives_to_rounding(self, delta):
        # central differences at step 1e-6 missed s'(0.01) by 5.5e-5 relative
        # at delta = 1e-4; Im f(t + ih) / h has no difference to cancel
        pair = ode_pair(delta)
        h = 1e-20
        for t in (0.01, 1.0, 30.0):
            _, up, upp, _, sp, spp = pair.jet(t)
            u_h, up_h, _, s_h, sp_h, _ = pair.jet(t + 1j * h)
            for stepped, analytic in [(u_h, up), (s_h, sp), (up_h, upp), (sp_h, spp)]:
                assert stepped.imag / h == pytest.approx(analytic, rel=1e-12, abs=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(0.05, 20.0), t=st.floats(0.01, 60.0))
    def test_identities_hold_generically(self, delta, t):
        pair = ode_pair(delta)
        r1, r2 = ode_residual(pair, t)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9
        _, _, _, s, sp, _ = pair.jet(t)
        assert s >= 1.0 / delta - 1e-10
        assert sp > 0.0


# ---------------------------------------------------------------------------
# Residual measure
# ---------------------------------------------------------------------------


def _zero_psi(z):
    return np.zeros(np.shape(z))


def _one(z):
    return np.ones(np.shape(z))


class TestResidualMeasure:
    @pytest.mark.parametrize("t", [0.5, 5.0, 20.0])
    def test_pure_log_gives_unit_mass_at_every_level(self, t):
        assert residual_measure(_zero_psi, _one, t) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("psi0", [-0.7, 0.0, 0.3])
    def test_constant_remainder_scales_exponentially(self, psi0):
        for t in (0.5, 3.0, 20.0):
            got = residual_measure(lambda z: np.full(np.shape(z), psi0), _one, t)
            assert got == pytest.approx(math.exp(-psi0), rel=1e-12)

    def test_affine_density_averages_out(self):
        got = residual_measure(_zero_psi, lambda z: 1.0 + np.real(z), 20.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_harmonic_remainder_tends_to_pole_value(self):
        got = residual_measure(lambda z: 0.2 * np.real(z), _one, 20.0)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_nan_integrand_fails(self, monkeypatch):
        monkeypatch.setattr(extension, "_SHELL_CAP", (16, 16))
        with pytest.raises(AccuracyError):
            residual_measure(_zero_psi, lambda z: np.full(np.shape(z), np.nan), 20.0)

    @pytest.mark.parametrize(
        "mass",
        [
            lambda: residual_measure(_zero_psi, _one, 20.0),
            lambda: residual_mass(arakelov_green(TorusSpec(1j))),
        ],
        ids=["pure-log", "torus-green"],
    )
    def test_smooth_shell_stops_two_levels_above_sixteen_angles(self, monkeypatch, mass):
        levels = _spy_shell_levels(monkeypatch)
        mass()
        assert levels == [(32, 16), (64, 32)]

    @pytest.mark.parametrize("k", [48, 64, 96])
    def test_angular_frequency_is_not_aliased(self, monkeypatch, k):
        # Re((z/e^{-10})^k) averages to zero on every circle, but on the
        # 16 and 32 angle grids k = 64 is a multiple of both node counts:
        # nested grids (no offset) alias it identically on both levels,
        # agree at 1.03125 and return that as the mass
        levels = _spy_shell_levels(monkeypatch)
        assert abs(residual_measure(_zero_psi, _oscillating(k), 20.0) - 1.0) < 1e-12
        assert levels[-1][1] > 32

    def test_aliased_frequency_at_a_small_cap_fails(self, monkeypatch):
        monkeypatch.setattr(extension, "_SHELL_CAP", (64, 32))
        with pytest.raises(AccuracyError):
            residual_measure(_zero_psi, _oscillating(64), 20.0)

    @pytest.mark.parametrize("n_ang", [16, 512])
    @pytest.mark.parametrize(
        "rest", [_zero_psi, lambda z: 0.2 * np.real(z) + 0.1 * np.imag(np.asarray(z) ** 2)]
    )
    def test_stacked_edges_match_per_level_bisection(self, n_ang, rest):
        theta = 2.0 * math.pi * (np.arange(n_ang) + 0.618) / n_ang
        for t in (0.5, 20.0):
            _assert_edges_certified(rest, theta, t)

    def test_edges_on_a_constant_psi_are_exact(self):
        # Psi = 2u + c on a constant psi = c, so the edges are (level - c)/2:
        # the first step lands on them, and the second moves by 0
        c = 0.7
        calls = []

        def psi(z):
            calls.append(z)
            return np.full(np.shape(z), c)

        theta = 2.0 * math.pi * (np.arange(64) + 0.618) / 64
        for t in (0.5, 20.0, 24.0):
            calls.clear()
            for edge, level in zip(extension._shell_edges(psi, theta, -1.0 - t, -t), (-1.0 - t, -t)):
                exact = 0.5 * (level - c)
                assert np.all(np.abs(edge - exact) <= 1e-14 * max(1.0, abs(exact)))
            assert len(calls) == 2

    @pytest.mark.parametrize("c,t", [(2.5, 3.0), (6.0, 3.0)])
    def test_edges_on_a_steep_psi_match_bisection(self, c, t):
        # Psi = 2u + c log(1 + e^{2u}): far below the unit circle psi moves
        # slower than half the pole term, and the iteration contracts
        theta = 2.0 * math.pi * (np.arange(16) + 0.618) / 16
        _assert_edges_certified(lambda z: c * np.log1p(np.abs(z) ** 2), theta, t)

    @pytest.mark.parametrize("c,t", [(2.5, -3.0), (2.5, -1.0), (2.5, 0.5), (6.0, -3.0), (6.0, -1.0), (6.0, 0.5)])
    def test_edges_on_a_psi_steeper_than_the_pole_term_fail(self, c, t):
        # near the unit circle psi = c log(1 + |z|^2) moves faster than half
        # of 2 log|z|: the second step does not halve the first, and the
        # solve stops there, before it can overflow
        calls = []

        def psi(z):
            calls.append(z)
            return c * np.log1p(np.abs(z) ** 2)

        theta = 2.0 * math.pi * (np.arange(16) + 0.618) / 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match=f"levels {-1.0 - t:g} and {-t:g}: step 2"):
                extension._shell_edges(psi, theta, -1.0 - t, -t)
        assert len(calls) == 2

    @pytest.mark.parametrize("fill", [np.nan, 0.0])
    def test_nan_psi_fails(self, fill):
        # psi NaN at every angle, or at all but those past 3 radians
        def psi(z):
            return np.where(np.angle(z) > 3.0, fill, np.nan)

        theta = 2.0 * math.pi * (np.arange(16) + 0.618) / 16
        with pytest.raises(AccuracyError, match="step 1 moved nan"):
            extension._shell_edges(psi, theta, -21.0, -20.0)

    def test_torus_shell_takes_few_psi_calls(self, monkeypatch):
        # the tori of all and of CI: psi = psi(0) + O(|z|^2) on the shell at
        # |z| ~ e^{-10}, so each step is a small fraction of the one before
        # (6e-6 at 0.1i); a 64-step bisection to the same width takes 66 calls
        counts = []
        edges = extension._shell_edges

        def spy(psi, *args):
            counts.append(0)

            def counted(z):
                counts[-1] += 1
                return psi(z)

            return edges(counted, *args)

        monkeypatch.setattr(extension, "_shell_edges", spy)
        for tau in (1j, 0.5 + 1j, 2j, 4j, 6j, 0.3 + 4j, 0.15j, 0.12j, 0.1j, 0.2j, 0.3j):
            counts.clear()
            residual_mass(arakelov_green(TorusSpec(tau)))
            assert len(counts) == 2 and max(counts) <= 3, tau

    @pytest.mark.parametrize("t", [0.9, 1.3])
    def test_shell_depth_accepts_rounded_levels(self, t):
        # (-1 - t) + t is -1 + 2^-53 at 0.9 and -1 + 2^-52 at 1.3: the width
        # is off by rounding, not by the shell
        extension.require_shell_depth(t)

    def test_deep_shell_passes(self, tmp_path):
        # |u| ~ 2.25e15, where an ulp of u is half the shell's width in u
        assert main(["residual-measure", "--t", "4.5e15", "--no-cache", "--outdir", str(tmp_path)]) == 0


def _spy_shell_levels(monkeypatch) -> list:
    """Record the (n_rad, n_ang) of every shell grid summed."""
    levels = []
    inner = extension._shell_integral

    def spy(psi, f, t, n_rad, n_ang):
        levels.append((n_rad, n_ang))
        return inner(psi, f, t, n_rad, n_ang)

    monkeypatch.setattr(extension, "_shell_integral", spy)
    return levels


def _oscillating(k: int):
    """Density ``1 + Re((z / e^{-10})^k)``: unit mean on every circle, and
    of modulus up to 2 on the shell ``e^{-10.5} < |z| < e^{-10}``."""
    return lambda z: 1.0 + np.real((np.asarray(z) / math.exp(-10.0)) ** k)


def _assert_edges_certified(psi, theta, t: float) -> None:
    """Both shell edges at depth ``t`` agree with :func:`_edge_reference`
    within ``1e-14 max(1, |u|)``, and ``Psi`` changes sign across each
    within that distance."""
    levels = (-1.0 - t, -t)
    for edge, level in zip(extension._shell_edges(psi, theta, *levels), levels):
        width = 1e-14 * np.maximum(1.0, np.abs(edge))
        ref = _edge_reference(psi, theta, level, *levels)
        assert np.all(np.abs(edge - ref) <= width)

        def excess(u):
            return _exact_psi(psi, u, theta) - level

        assert np.all(excess(edge - width) < 0.0) and np.all(excess(edge + width) >= 0.0)


def _exact_psi(psi, u, theta):
    """``Psi`` at ``e^{u + i theta}`` with ``2 log|z|`` taken as ``2u``."""
    return 2.0 * u + psi(np.exp(u) * np.exp(1j * theta))


def _edge_reference(psi, theta, level, level_lo, level_hi):
    """One shell edge by a bracket-and-bisect pass from the local spread of
    ``psi`` on a probe circle: the oracle for the fixed-point solve of
    :func:`extension._shell_edges`."""

    def g(u, th):
        return _exact_psi(psi, u, th)

    probe = psi(math.exp(0.5 * (level_lo - 1.0)) * np.exp(1j * theta))
    a = np.full(theta.size, 0.5 * (level_lo - float(np.max(probe))) - 1.0)
    b = np.full(theta.size, 0.5 * (level_hi - float(np.min(probe))) + 1.0)
    ga = g(a, theta) - level
    gb = g(b, theta) - level
    for _ in range(8):
        bad_a = ga >= 0.0
        a[bad_a] -= 2.0
        ga[bad_a] = g(a[bad_a], theta[bad_a]) - level
        bad_b = gb <= 0.0
        b[bad_b] += 2.0
        gb[bad_b] = g(b[bad_b], theta[bad_b]) - level
        if not (np.any(bad_a) or np.any(bad_b)):
            break
    for _ in range(64):
        mid = 0.5 * (a + b)
        neg = g(mid, theta) - level < 0.0
        a = np.where(neg, mid, a)
        b = np.where(neg, b, mid)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Optimal-constant experiment
# ---------------------------------------------------------------------------


def _ratios(rec) -> list:
    n = sum(k.startswith("ratio_") for k in rec.quantities)
    return [rec.quantities[f"ratio_{i}"] for i in range(n)]


def _law(delta: float, eps: float, a: float) -> float:
    """The exact ratio pi e^{-eps} [(1 + 1/delta) - a^{2 delta}/delta]: the
    least norm of F(0) = 1 is the integral of the radial weight, pi
    a^{-2 delta} (1 + 1/delta) - pi/delta, scaled by a^{2 delta} e^{-eps}."""
    return math.pi * math.exp(-eps) * ((1.0 + 1.0 / delta) - a ** (2.0 * delta) / delta)


def _mutant(old: str, new: str):
    """``optimal_constant_experiment`` compiled from its own source with the
    one occurrence of ``old`` written ``new``, in a copy of the module's
    namespace, so that the module itself is untouched."""
    source = textwrap.dedent(inspect.getsource(optimal_constant_experiment))
    assert source.count(old) == 1
    namespace = dict(vars(extension))
    exec(compile(source.replace(old, new), extension.__file__, "exec"), namespace)
    return namespace["optimal_constant_experiment"]


# the two hand-made mutants of the sharp constant: the target's (1 + 1/delta)
# and the ratio's normalization e^{-eps}, each off by 1e-3 or less
_CONSTANT_MUTANTS = {
    "target_factor": ("(1.0 + 1.0 / delta) * math.pi", "(1.0 + 1.002 / delta) * math.pi"),
    "ratio_normalization": (
        "a ** (2.0 * delta) * math.exp(-eps)", "a ** (2.0 * delta) * math.exp(-1.001 * eps)"
    ),
}

_A_VALUES = inspect.signature(optimal_constant_experiment).parameters["a_values"].default


class TestOptimalConstant:
    def test_closed_form_table(self):
        rec = optimal_constant_experiment(1.0, 0.0, a_values=(0.5, 0.1, 0.01))
        q = rec.quantities
        # minimum norm pi ((a^{-2} - 1)/1 + a^{-2}) = 7 pi at a = 1/2
        mn, _ = least_norm_extension(Disc(), MaxPiece(1.0, 0.5), 0.0, 1.0, basis=(0, 8))
        assert mn == pytest.approx(7.0 * math.pi, rel=1e-12)
        assert q["ratio_0"] == pytest.approx(7.0 * math.pi / 4.0, rel=1e-12)
        assert q["target"] == pytest.approx(2.0 * math.pi, rel=1e-15)
        for a in (0.5, 0.1, 0.01):
            mn, _ = least_norm_extension(Disc(), MaxPiece(1.0, a), 0.0, 1.0, basis=(0, 8))
            assert abs(mn - oracles.min_norm_quadrature(1.0, a)) / mn < 1e-9
        assert rec.passed

    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0, 4.0, 5.0, 10.0])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_ratios_follow_the_law(self, delta, eps):
        rec = optimal_constant_experiment(delta, eps)
        tol = rec.tolerances["law"]
        # eight rounding units of the largest log moment, at a = 1e-4
        units = max(1.0, 2.0 * delta * math.log(1e4))
        assert tol == pytest.approx(8.0 * np.finfo(float).eps * units, rel=1e-15)
        assert rec.tolerances["below_target"] == tol
        target = (1.0 + 1.0 / delta) * math.pi * math.exp(-eps)
        for i, a in enumerate(_A_VALUES):
            ratio = rec.quantities[f"ratio_{i}"]
            assert abs(ratio / _law(delta, eps, a) - 1.0) <= tol
            assert ratio <= target * (1.0 + tol)
        assert rec.passed and -rec.margins["law"] <= tol

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_extrapolation_hits_the_sharp_constant(self, delta, eps):
        rec = optimal_constant_experiment(delta, eps)
        q = rec.quantities
        assert q["target"] == pytest.approx(
            (1.0 + 1.0 / delta) * math.pi * math.exp(-eps), rel=1e-15
        )
        # the ratio is exactly the law, so adding the law's correction
        # pi e^{-eps} a^{2 delta}/delta at a = 1e-4 removes the whole
        # finite-a part, to the law's rounding
        assert abs(q["limit"] - q["target"]) <= rec.tolerances["law"] * q["target"]
        # raw ratio at a = 1e-4 is already within one percent
        assert abs(_ratios(rec)[-1] - q["target"]) / q["target"] < 0.01

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_min_norm_quadrature_matches_the_closed_form(self, delta):
        # pi a^{-2 delta} from the plateau plus pi (a^{-2 delta} - 1)/delta
        # from the annulus a < |z| < 1
        for a in (0.5, 0.1, 0.01, 1e-3, 1e-4):
            closed = math.pi * a ** (-2.0 * delta) * (1.0 + 1.0 / delta) - math.pi / delta
            rel = abs(oracles.min_norm_quadrature(delta, a) - closed) / closed
            assert rel <= 1e-14

    def test_ratios_increase_as_a_shrinks(self):
        # the law's increments (pi/delta)(a_i^{2 delta} - a_{i+1}^{2 delta})
        # exceed twice the law's tolerance here, so the law gate implies
        # the increase
        rec = optimal_constant_experiment(0.5, 0.0)
        ratios = _ratios(rec)
        target = rec.quantities["target"]
        increments = np.diff([_law(0.5, 0.0, a) for a in _A_VALUES])
        assert np.all(increments > 2.0 * rec.tolerances["law"] * target)
        assert np.all(np.diff(ratios) > 0.0)
        # and stay below the limiting value
        assert max(ratios) < target
        assert rec.margins["below_target"] > 0.0

    def test_disagreeing_routes_fail_the_record(self, monkeypatch):
        # the least-norm route one percent off at every a: the law margin,
        # not an exception, reports it
        route = extension.least_norm_extension

        def off(*args, **kwargs):
            mn, coeffs = route(*args, **kwargs)
            return 1.01 * mn, coeffs

        monkeypatch.setattr(extension, "least_norm_extension", off)
        rec = optimal_constant_experiment(1.0, 0.0)
        assert not rec.passed
        assert rec.margins["law"] == pytest.approx(-0.01, rel=1e-6)
        assert rec.margins["below_target"] < -rec.tolerances["below_target"]

    @pytest.mark.parametrize("mutant", sorted(_CONSTANT_MUTANTS))
    def test_a_wrong_constant_fails_the_record(self, mutant):
        old, new = _CONSTANT_MUTANTS[mutant]
        assert _mutant(old, old)(1.0, 0.1).passed
        rec = _mutant(old, new)(1.0, 0.1)
        assert not rec.passed
        assert rec.margins["law"] < -rec.tolerances["law"]

    def test_large_deltas_pass(self, tmp_path):
        # the increments at a = 1e-3 and 1e-4 are about 1e-24 here, far
        # below the ratio's rounding; no gate reads them as a decrease
        argv = ["optimal-constant", "--deltas", "4,5,10", "--no-cache", "--outdir", str(tmp_path)]
        assert main(argv) == 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            optimal_constant_experiment(0.0, 0.0)
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, -0.1)
        # both preconditions also ask for a finite value
        with pytest.raises(ParameterError):
            optimal_constant_experiment(math.inf, 0.0)
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, math.nan)
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, 0.0, a_values=(0.5, 1.5))
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, 0.0, a_values=(0.1, 0.5))
