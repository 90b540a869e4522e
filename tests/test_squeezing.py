"""Tests for the closed-form squeezing lower bound, its disc-automorphism
oracle, and the two-sided ratio sandwich."""

import cmath
import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergreen import bergman, squeezing
from bergreen.bergman import suita_ratio
from bergreen.cli import main
from bergreen.domains import Annulus, Disc, Jordan
from bergreen.errors import ParameterError
from bergreen.squeezing import boundary_trend_check, sandwich_check, squeeze_lower


def normalizer(p: complex):
    """Disc automorphism ``m_p(z) = (z - p) / (1 - conj(p) z)`` with
    ``m_p(p) = 0``: the oracle of the squeezing bound."""
    p = complex(p)
    return lambda z: (z - p) / (1.0 - p.conjugate() * z)


class TestNormalizer:
    """The oracle ``m_p`` of the sampled-hole property below."""

    def test_zero_point_is_identity(self):
        m = normalizer(0.0)
        zs = np.array([0.3, -0.2 + 0.7j])
        assert np.allclose(m(zs), zs, atol=1e-15)

    @pytest.mark.parametrize("p", [0.5, -0.3 + 0.4j, 0.9j, 0.99])
    def test_sends_base_point_to_zero(self, p):
        assert abs(normalizer(p)(p)) < 1e-14

    def test_preserves_unit_circle(self):
        ring = np.exp(1j * np.linspace(0, 2 * math.pi, 100, endpoint=False))
        for p in (0.5, 0.2 - 0.6j):
            assert np.max(np.abs(np.abs(normalizer(p)(ring)) - 1.0)) < 1e-12


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
            assert abs(squeeze_lower(ann, p) - _exact_lower(r, p)) <= 4e-16

    @pytest.mark.parametrize("r", [0.2, 0.04, 2.2e-86])
    @pytest.mark.parametrize("phase", [1.0, -1j, cmath.exp(0.7j)], ids=["real", "imag", "complex"])
    def test_closed_form_matches_mpmath_near_both_circles(self, r, phase):
        # |p| is exact on the axes; elsewhere abs(p) rounds once, and
        # |p| - r magnifies that error by |p| / (|p| - r)
        eps = np.finfo(float).eps
        rhos = [r * (1.0 + 1e-9), r * (1.0 + 1e-3), 0.5, 1.0 - 5e-5, 1.0 - 1e-5, 1.0 - 1e-7]
        if r == 0.2:
            rhos.append(0.2000000001)
        for rho in rhos:
            p = rho * phase
            gain = 1.0 if phase in (1.0, -1j) else abs(p) / (abs(p) - r)
            exact = _exact_lower(r, p)
            rel = abs(squeeze_lower(Annulus(r), p) - exact) / exact
            assert rel <= 2.0 * eps * gain, (rho, rel)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.01, 0.5),
        frac=st.floats(0.05, 0.95),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_closed_form_bounds_the_sampled_hole(self, r, frac, theta):
        # the distance from 0 to the image of |z| <= r is the minimum of
        # |m_p| on |z| = r; h = 2 pi / 4096 node spacing leaves the nearest
        # node within h / 2 of the minimizer z = r p / |p|, where
        # |m_p|^2 exceeds its minimum by at most rho r (h / 2)^2 / (1 - rho r)^2
        rho = r + frac * (1.0 - r)
        p = rho * cmath.exp(1j * theta)
        n = 4096
        ring = r * np.exp(2j * math.pi * np.arange(n) / n)
        sampled = float(np.min(np.abs(normalizer(p)(ring))))
        low = squeeze_lower(Annulus(r), p)
        assert low <= sampled * (1.0 + 1e-13)
        h = 2.0 * math.pi / n
        assert sampled**2 - low**2 <= rho * r * (0.5 * h) ** 2 / (1.0 - rho * r) ** 2 + 1e-15

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

    @pytest.mark.parametrize("domain", [Disc(), Annulus(0.2)])
    def test_upper_is_the_suita_record(self, domain):
        rec, suita = sandwich_check(domain, 0.3 + 0.2j), suita_ratio(domain, 0.3 + 0.2j)
        assert rec.margins["upper"] == suita.margins["upper"]
        assert rec.tolerances["upper"] == suita.tolerances["upper"]
        assert {k: rec.quantities[k] for k in suita.quantities} == suita.quantities
        assert rec.tolerances["lower"] > rec.tolerances["upper"]

    def test_kernel_short_by_1e_9_fails(self, tmp_path, monkeypatch):
        # a disc kernel 1e-9 (relative) below the truth puts the ratio 1e-9
        # above 1: inside a ratio tolerance of 1e-6, but far outside the
        # rounding of the log margin
        real = bergman.kernel_diag

        def short(*args, **kwargs):
            est = real(*args, **kwargs)
            return replace(est, log_value=est.log_value + math.log1p(-1e-9))

        monkeypatch.setattr(bergman, "kernel_diag", short)
        argv = ["squeeze-check", "--domain", "disc:0.5", "--no-cache", f"--outdir={tmp_path}"]
        assert main(argv) == 1
        records = json.loads((tmp_path / "squeeze_check_report.json").read_text())["records"]
        sandwich = [r for r in records if r["primary"] == "ratio"]
        assert len(sandwich) == 8
        for r in sandwich:
            assert r["passed"] is False
            assert r["margins"]["upper"] < -1e5 * r["tolerances"]["upper"]
            assert r["margins"]["lower"] > 0.0

    @pytest.mark.parametrize(
        "r,p", [(0.2, 0.99999), (0.2, -0.99999j), (0.2, 0.99995), (0.2, 0.9999999), (0.04, 0.99999)]
    )
    def test_points_near_the_outer_circle(self, r, p):
        # here the unit-determinant coefficients of m_p, formed in floating
        # point, miss det = 1 by more than 1e-12
        rec = sandwich_check(Annulus(r), p)
        assert rec.passed, rec.margins
        assert rec.quantities["squeeze_lower"] == pytest.approx(_exact_lower(r, p), rel=1e-15)


def _exact_lower(r: float, p: complex) -> float:
    """``(|p| - r) / (1 - r |p|)`` at 40 digits, with ``|p|`` taken from the
    exact float components of ``p``."""
    p = complex(p)
    with mpmath.workdps(40):
        rho = mpmath.sqrt(mpmath.mpf(p.real) ** 2 + mpmath.mpf(p.imag) ** 2)
        return float((rho - r) / (1 - mpmath.mpf(r) * rho))


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

    @pytest.mark.parametrize("domain", [Disc(0.5), Disc(), Disc(2.0), Annulus(0.2)])
    def test_points_approach_the_outer_circle(self, domain, monkeypatch):
        # at R (1 - 10^-k), R the radius of the outer circle (1 on an annulus)
        points = []
        real = squeezing.suita_ratio
        monkeypatch.setattr(
            squeezing, "suita_ratio", lambda dom, p: points.append(p) or real(dom, p)
        )
        assert boundary_trend_check(domain, ks=(1, 3)).passed
        R = getattr(domain, "radius", 1.0)
        assert points == [R * (1.0 - 10.0**-k) for k in (1, 3)]

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
