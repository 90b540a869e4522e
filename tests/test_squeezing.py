"""Tests for Möbius circle images, squeezing lower bounds, and the
two-sided ratio sandwich."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergreen.domains import Annulus, Disc, Jordan
from bergreen.errors import ParameterError, PoleOnCircleError
from bergreen.squeezing import (
    Circle,
    MoebiusMap,
    boundary_trend_check,
    image_circle,
    normalizer,
    sandwich_check,
    squeeze_lower,
)

IDENTITY = MoebiusMap(1.0, 0.0, 0.0, 1.0)


def _rotation(theta: float) -> MoebiusMap:
    half = cmath.exp(0.5j * theta)
    return MoebiusMap(half, 0.0, 0.0, 1.0 / half)


def compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    """Map applying ``m2`` first (matrix product m1 @ m2)."""
    return MoebiusMap(
        m1.alpha * m2.alpha + m1.beta * m2.gamma,
        m1.alpha * m2.beta + m1.beta * m2.delta_coef,
        m1.gamma * m2.alpha + m1.delta_coef * m2.gamma,
        m1.gamma * m2.beta + m1.delta_coef * m2.delta_coef,
    )


def deriv(m: MoebiusMap, z):
    """Complex derivative ``1 / (gamma z + delta_coef)^2`` of ``m``."""
    z = np.asarray(z, dtype=complex)
    out = 1.0 / (m.gamma * z + m.delta_coef) ** 2
    return out if out.ndim else complex(out)


class TestMoebiusMap:
    def test_rejects_non_unit_determinant(self):
        with pytest.raises(ParameterError):
            MoebiusMap(1.0, 0.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            MoebiusMap(1.0, 0.5, 2.0, 1.0)

    def test_identity(self):
        zs = np.array([0.1, -0.5 + 0.2j, 0.9j])
        assert np.allclose(IDENTITY(zs), zs, atol=1e-15)
        assert np.allclose(deriv(IDENTITY, zs), 1.0, atol=1e-15)

    def test_inverse_and_compose(self):
        m = normalizer(0.3 - 0.4j)
        zs = 0.7 * np.exp(1j * np.linspace(0, 2 * math.pi, 17))
        assert np.max(np.abs(m.inverse()(m(zs)) - zs)) < 1e-14
        ident = compose(m, m.inverse())
        assert np.max(np.abs(ident(zs) - zs)) < 1e-14

    def test_compose_applies_right_factor_first(self):
        m1, m2 = normalizer(0.2), _rotation(1.3)
        zs = np.array([0.1, 0.5j, -0.3 + 0.3j])
        assert np.allclose(compose(m1, m2)(zs), m1(m2(zs)), atol=1e-14)

    def test_derivative_matches_finite_differences(self):
        m = normalizer(0.4 + 0.1j)
        h = 1e-7
        for z in (0.0, 0.2 + 0.3j, -0.6j):
            fd = (m(z + h) - m(z - h)) / (2 * h)
            assert abs(deriv(m, z) - fd) < 1e-6

    def test_trace(self):
        assert _rotation(0.0).trace == pytest.approx(2.0)


class TestNormalizer:
    def test_zero_point_is_identity(self):
        m = normalizer(0.0)
        zs = np.array([0.3, -0.2 + 0.7j])
        assert np.allclose(m(zs), zs, atol=1e-15)

    @pytest.mark.parametrize("p", [0.5, -0.3 + 0.4j, 0.9j, 0.99])
    def test_sends_base_point_to_zero(self, p):
        assert abs(normalizer(p)(p)) < 1e-14

    @pytest.mark.parametrize("p", [1.0, -1.0, 1.2j, 2.0])
    def test_rejects_points_outside_disc(self, p):
        with pytest.raises(ParameterError):
            normalizer(p)

    def test_preserves_unit_circle(self):
        ring = np.exp(1j * np.linspace(0, 2 * math.pi, 100, endpoint=False))
        for p in (0.5, 0.2 - 0.6j):
            assert np.max(np.abs(np.abs(normalizer(p)(ring)) - 1.0)) < 1e-12

    def test_unit_determinant(self):
        m = normalizer(0.3 + 0.4j)
        det = m.alpha * m.delta_coef - m.beta * m.gamma
        assert abs(det - 1.0) < 1e-15


class TestImageCircle:
    def test_circle_validation(self):
        with pytest.raises(ParameterError):
            Circle(0.0, 0.0)
        with pytest.raises(ParameterError):
            Circle(0.0, -1.0)

    def test_identity_keeps_circle(self):
        img = image_circle(IDENTITY, Circle(0.3 + 0.1j, 0.25))
        assert img.center == pytest.approx(0.3 + 0.1j, abs=1e-15)
        assert img.radius == pytest.approx(0.25, abs=1e-15)

    def test_affine_map(self):
        m = MoebiusMap(2.0, 1.0, 0.0, 0.5)  # w = 4z + 2
        img = image_circle(m, Circle(1.0, 0.3))
        assert img.center == pytest.approx(6.0, abs=1e-14)
        assert img.radius == pytest.approx(1.2, abs=1e-14)

    def test_matches_dense_sampling(self):
        m = normalizer(0.5)
        circ = Circle(0.0, 0.2)
        img = image_circle(m, circ)
        pts = m(circ.points(360))
        assert np.max(np.abs(np.abs(pts - img.center) - img.radius)) < 1e-10

    def test_automorphism_fixes_unit_circle(self):
        img = image_circle(normalizer(0.5), Circle(0.0, 1.0))
        assert abs(img.center) < 1e-12
        assert img.radius == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip_with_inverse(self):
        m = normalizer(0.4 - 0.2j)
        circ = Circle(0.1 + 0.2j, 0.35)
        back = image_circle(m.inverse(), image_circle(m, circ))
        assert abs(back.center - circ.center) < 1e-10
        assert abs(back.radius - circ.radius) < 1e-10

    def test_circle_through_pole_raises(self):
        # normalizer(0.5) has its pole at 1/conj(0.5) = 2
        with pytest.raises(PoleOnCircleError):
            image_circle(normalizer(0.5), Circle(1.5, 0.5))

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        theta=st.floats(0.0, 2 * math.pi),
        c=st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
        r=st.floats(0.05, 0.3),
    )
    def test_image_contains_mapped_points(self, p, theta, c, r):
        m = compose(_rotation(theta), normalizer(p))
        circ = Circle(c, r)
        try:
            img = image_circle(m, circ)
        except PoleOnCircleError:
            assume(False)
        pts = m(circ.points(72))
        assert np.max(np.abs(np.abs(pts - img.center) - img.radius)) < 1e-9


class TestSqueezeLower:
    def test_disc_value_is_one(self):
        for p in (0.0, 0.3, -0.5j, 0.9):
            assert squeeze_lower(Disc(), p) == 1.0
        with pytest.raises(ParameterError):
            squeeze_lower(Disc(), 1.5)

    @pytest.mark.parametrize("r", [0.04, 0.2])
    def test_real_point_closed_form(self, r):
        ann = Annulus(r)
        for p in (math.sqrt(r), 0.5, 0.9):
            expected = (p - r) / (1.0 - p * r)
            assert squeeze_lower(ann, p) == pytest.approx(expected, abs=1e-13)

    def test_bounded_by_one_and_positive(self):
        ann = Annulus(1e-6)
        val = squeeze_lower(ann, 0.5)
        assert 0.0 < val <= 1.0

    def test_rejects_points_outside_annulus(self):
        ann = Annulus(0.2)
        for p in (0.1, 0.2, 1.0, 1.5):
            with pytest.raises(ParameterError):
                squeeze_lower(ann, p)

    def test_rejects_non_circular_domains(self):
        with pytest.raises(ParameterError):
            squeeze_lower(Jordan.ellipse(1.0, 0.5), 0.1)

    def test_increases_toward_outer_boundary(self):
        ann = Annulus(0.2)
        vals = [squeeze_lower(ann, p) for p in (0.5, 0.7, 0.9, 0.99)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.01, 0.5),
        frac=st.floats(0.05, 0.95),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_rotation_invariance(self, r, frac, theta):
        rho = r + frac * (1.0 - r)
        assume(rho > r + 1e-6 and rho < 1.0 - 1e-6)
        ann = Annulus(r)
        base = squeeze_lower(ann, rho)
        rotated = squeeze_lower(ann, rho * cmath.exp(1j * theta))
        assert rotated == pytest.approx(base, abs=1e-12)
        assert 0.0 < base <= 1.0


class TestSandwichCheck:
    def test_disc_equality(self):
        rec = sandwich_check(Disc(), 0.3)
        assert rec.command == "squeeze-check"
        assert rec.passed
        assert rec.quantities["squeeze_lower_sq"] == 1.0
        assert rec.quantities["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_annulus_strict_inequalities(self):
        rec = sandwich_check(Annulus(0.2), math.sqrt(0.2))
        assert rec.passed
        c = rec.quantities["ratio"]
        s2 = rec.quantities["squeeze_lower_sq"]
        assert s2 < c < 1.0
        assert rec.margins["lower"] > 0.0
        assert rec.margins["upper"] > 0.0

    def test_small_hole_annulus(self):
        rec = sandwich_check(Annulus(0.04), 0.5)
        assert rec.passed
        assert rec.quantities["squeeze_lower_sq"] < rec.quantities["ratio"]

    def test_many_points(self):
        for ann in (Annulus(0.2), Annulus(0.04)):
            for p in (0.5, 0.5j, -0.7, 0.3 + 0.3j):
                rec = sandwich_check(ann, p)
                assert rec.passed, (ann, p, rec.margins)


class TestBoundaryTrend:
    def test_annulus_trend(self):
        rec = boundary_trend_check(Annulus(0.2))
        assert rec.passed
        ratios = [rec.quantities[f"ratio_k{k}"] for k in (1, 2, 3, 4)]
        assert all(b >= a - 1e-9 for a, b in zip(ratios[:-1], ratios[1:]))
        assert abs(1.0 - ratios[-1]) < 1e-6
        assert rec.primary == "final_deficit"

    def test_angle_parameter(self):
        rec = boundary_trend_check(Annulus(0.2), ks=(1, 2), angle=math.pi / 3)
        assert rec.passed

    def test_rejects_unsorted_ks(self):
        with pytest.raises(ParameterError):
            boundary_trend_check(Annulus(0.2), ks=(2, 1))
        with pytest.raises(ParameterError):
            boundary_trend_check(Annulus(0.2), ks=(1, 1, 2))

    def test_rejects_k_below_one_and_nonfinite_angle(self):
        # k = 0 puts the first point at the origin, in the annulus' hole
        with pytest.raises(ParameterError, match="at least 1"):
            boundary_trend_check(Annulus(0.2), ks=(0, 1))
        with pytest.raises(ParameterError, match="finite"):
            boundary_trend_check(Annulus(0.2), ks=(1, 2), angle=math.nan)
