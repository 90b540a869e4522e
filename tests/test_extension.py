"""Tests for the smoothed cutoff family, the sharp-constant ODE pair, the
class-membership check, the generalized residual measure, and the
optimal-constant experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bergreen.bergman import MaxPiece, Unweighted, weight_phi
from bergreen.domains import Disc
from bergreen.errors import (
    AccuracyError,
    DerivativeMismatchError,
    ParameterError,
    ShellEscapeError,
)
from bergreen.extension import (
    CutoffFamily,
    OdePair,
    PolarSpec,
    b_step,
    cutoff_limit_check,
    delta_class_check,
    make_cutoff,
    ode_pair,
    ode_residual,
    optimal_constant_experiment,
    residual_measure,
)

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

    def test_sup_second_derivative_at_most_two(self):
        for eps in np.linspace(0.01, 0.24, 24):
            fam = make_cutoff(3.0, float(eps))
            assert fam.k <= 2.0 + 1e-15
            ts = np.linspace(*fam.support, 2001)
            assert float(np.max(fam.v_second(ts))) <= fam.k + 1e-12

    @pytest.mark.parametrize("t0", [1.0, 5.0])
    def test_limit_check_record(self, t0):
        rec = cutoff_limit_check(t0, (0.2, 0.1, 0.05, 0.01))
        assert rec.command == "cutoff-check"
        assert rec.primary == "final_sup_gap"
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
        assert pair.s(0.0) == pytest.approx(1.0 / delta, rel=1e-12)
        assert pair.u(0.0) == pytest.approx(math.log(delta), abs=1e-12)
        assert pair.s_prime(0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    def test_long_time_value(self, delta):
        pair = ode_pair(delta)
        assert pair.u(50.0) == pytest.approx(-math.log(1.0 + 1.0 / delta), abs=1e-6)

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
        s = pair.s(T_GRID)
        sp = pair.s_prime(T_GRID)
        denom = pair.u_second(T_GRID) * s - pair.s_second(T_GRID)
        assert np.all(s >= 1.0 / delta - 1e-12)
        assert np.all(sp > 0.0)
        assert np.all(denom > 0.0)

    def test_requires_positive_time(self):
        pair = ode_pair(1.0)
        for t in (0.0, -1.0):
            with pytest.raises(ParameterError):
                ode_residual(pair, t)
        # the closed forms themselves blow up once e^{-t} reaches a
        with pytest.raises(ParameterError):
            pair.u(-5.0)

    def test_detects_inconsistent_derivatives(self):
        class Broken(OdePair):
            def u_prime(self, t):
                return super().u_prime(t) * 1.001

        bad = Broken(delta=1.0, a=2.0, b=0.0)
        with pytest.raises(DerivativeMismatchError):
            ode_residual(bad, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(0.05, 20.0), t=st.floats(0.01, 60.0))
    def test_identities_hold_generically(self, delta, t):
        pair = ode_pair(delta)
        r1, r2 = ode_residual(pair, t)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9
        assert pair.s(t) >= 1.0 / delta - 1e-10
        assert pair.s_prime(t) > 0.0


# ---------------------------------------------------------------------------
# Class-membership check
# ---------------------------------------------------------------------------


def _zero_psi(z):
    return np.zeros(np.shape(z))


class TestDeltaClassCheck:
    def test_plateaued_pair_passes(self):
        # phi from the plateaued radial weight, pole spec with the matching
        # plateaued remainder: both combinations stay subharmonic
        a, delta, eps = 0.5, 1.0, 0.1
        psi = PolarSpec(
            0.0,
            lambda z: -np.maximum(
                2.0 * np.log(np.maximum(np.abs(z), 1e-300)), 2.0 * math.log(a)
            )
            - eps,
            Disc(),
            name="plateaued-remainder",
        )
        rec = delta_class_check(MaxPiece(delta, a), psi, delta, Disc())
        assert rec.command == "delta-class-check"
        assert rec.passed
        assert rec.quantities["circles_skipped"] == 0
        assert rec.quantities["worst_margin"] > -1e-6

    @pytest.mark.parametrize("delta", [0.3, 1.0, 4.0])
    def test_pure_log_pole_passes(self, delta):
        psi = PolarSpec(0.0, _zero_psi, Disc(), name="pure-log")
        rec = delta_class_check(Unweighted(), psi, delta, Disc())
        assert rec.passed
        assert rec.quantities["worst_margin"] > -1e-6

    def test_superharmonic_remainder_fails(self):
        # log(2 - |z|^2) has strictly negative Laplacian on the disc, so the
        # circle averages fall below the center value
        psi = PolarSpec(
            0.0,
            lambda z: np.log(2.0 - np.abs(z) ** 2),
            Disc(),
            name="superharmonic-remainder",
        )
        rec = delta_class_check(Unweighted(), psi, 1.0, Disc())
        assert not rec.passed
        assert rec.quantities["worst_margin"] < -1e-6

    def test_skips_near_boundary_circles_and_pole_centers(self):
        psi = PolarSpec(0.0, _zero_psi, Disc(), name="pure-log")
        rec = delta_class_check(
            Unweighted(), psi, 1.0, Disc(), centers=[0.995, 0.0, 0.5]
        )
        # center 0.995: the radius-1e-2 circle exits the disc (skipped);
        # center 0.0 is the pole (skipped entirely)
        assert rec.quantities["circles_skipped"] == 2
        # remaining circles: (0.995, r=1e-3) and (0.5, both radii), each with
        # two subharmonicity factors
        assert rec.quantities["circles_tested"] == 6
        assert rec.passed

    def test_pole_on_quadrature_node_is_rotated(self):
        # the pole 0.51 lies exactly on the theta = 0 node of the circle of
        # radius 1e-2 around 0.5; the half-step rotation keeps values finite
        psi = PolarSpec(0.51, _zero_psi, Disc(), name="pole-on-node")
        rec = delta_class_check(Unweighted(), psi, 1.0, Disc(), centers=[0.5])
        assert math.isfinite(rec.quantities["worst_margin"])
        assert rec.passed

    def test_rejects_nonpositive_delta(self):
        psi = PolarSpec(0.0, _zero_psi, Disc())
        with pytest.raises(ParameterError):
            delta_class_check(Unweighted(), psi, 0.0, Disc(), centers=[0.5])

    def test_weight_phi_enters_the_combination(self):
        # phi alone superharmonic enough to break subharmonicity of the sum:
        # phi = -3 log(2 - |z|^2) is subharmonic... use the negated sign via
        # a pole remainder instead: psi = +3 log(2-|z|^2) fails, and adding
        # the plateaued weight phi (subharmonic) cannot rescue a remainder
        # whose negative Laplacian dominates near the rim.
        psi = PolarSpec(
            0.0,
            lambda z: 3.0 * np.log(2.0 - np.abs(z) ** 2),
            Disc(),
            name="strongly-superharmonic",
        )
        rec = delta_class_check(MaxPiece(0.5, 0.3), psi, 0.5, Disc())
        assert not rec.passed


# ---------------------------------------------------------------------------
# Residual measure
# ---------------------------------------------------------------------------


def _one(z):
    return np.ones(np.shape(z))


class TestResidualMeasure:
    @pytest.mark.parametrize("t", [0.5, 5.0, 20.0])
    def test_pure_log_gives_unit_mass_at_every_level(self, t):
        psi = PolarSpec(0.0, _zero_psi, Disc(), name="pure-log")
        assert residual_measure(psi, _one, t) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("psi0", [-0.7, 0.0, 0.3])
    def test_constant_remainder_scales_exponentially(self, psi0):
        psi = PolarSpec(
            0.0, lambda z: np.full(np.shape(z), psi0), None, name="constant"
        )
        for t in (0.5, 3.0, 20.0):
            got = residual_measure(psi, _one, t)
            assert got == pytest.approx(math.exp(-psi0), rel=1e-12)

    def test_affine_density_averages_out(self):
        psi = PolarSpec(0.0, _zero_psi, Disc(), name="pure-log")
        got = residual_measure(psi, lambda z: 1.0 + np.real(z), 20.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_harmonic_remainder_tends_to_pole_value(self):
        psi = PolarSpec(
            0.0, lambda z: 0.2 * np.real(z), Disc(), name="harmonic-remainder"
        )
        got = residual_measure(psi, _one, 20.0)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_shell_reaching_boundary_raises(self):
        psi = PolarSpec(0.9, _zero_psi, Disc(), name="off-center")
        with pytest.raises(ShellEscapeError):
            residual_measure(psi, _one, 0.5)
        # deep shells around the same pole stay inside
        assert residual_measure(psi, _one, 20.0) == pytest.approx(1.0, abs=1e-10)

    def test_no_domain_skips_the_escape_check(self):
        psi = PolarSpec(0.9, _zero_psi, None, name="unbounded")
        assert residual_measure(psi, _one, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_nan_integrand_fails(self):
        psi = PolarSpec(0.0, _zero_psi, Disc(), name="pure-log")
        with pytest.raises(AccuracyError):
            residual_measure(psi, lambda z: np.full(np.shape(z), np.nan), 20.0, 16, 16)


# ---------------------------------------------------------------------------
# Optimal-constant experiment
# ---------------------------------------------------------------------------


class TestOptimalConstant:
    def test_closed_form_table(self):
        res = optimal_constant_experiment(1.0, 0.0, a_values=(0.5, 0.1, 0.01))
        # minimum norm pi ((a^{-2} - 1)/1 + a^{-2}) = 7 pi at a = 1/2
        assert res.min_norms_closed[0] == pytest.approx(7.0 * math.pi, rel=1e-12)
        assert res.ratios[0] == pytest.approx(7.0 * math.pi / 4.0, rel=1e-12)
        assert res.target == pytest.approx(2.0 * math.pi, rel=1e-15)
        for mn, mq in zip(res.min_norms_closed, res.min_norms_quadrature):
            assert abs(mn - mq) / mn < 1e-9

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_extrapolation_hits_the_sharp_constant(self, delta, eps):
        res = optimal_constant_experiment(delta, eps)
        assert res.target == pytest.approx(
            (1.0 + 1.0 / delta) * math.pi * math.exp(-eps), rel=1e-15
        )
        # the ratio is exactly affine in a^{2 delta}, so one Richardson step
        # removes the whole finite-a correction
        assert res.limit_error < 1e-10 * res.target
        # raw ratio at a = 1e-4 is already within one percent
        assert abs(res.ratios[-1] - res.target) / res.target < 0.01

    def test_ratios_increase_as_a_shrinks(self):
        res = optimal_constant_experiment(0.5, 0.0)
        diffs = np.diff(res.ratios)
        assert np.all(diffs > 0.0)
        # and stay below the limiting value
        assert max(res.ratios) < res.target + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            optimal_constant_experiment(0.0, 0.0)
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, -0.1)
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, 0.0, a_values=(0.5, 1.5))
        with pytest.raises(ParameterError):
            optimal_constant_experiment(1.0, 0.0, a_values=(0.1, 0.5))
