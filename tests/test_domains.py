"""Tests for bergreen.domains: Green functions and capacity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergreen.domains import (
    Annulus,
    Disc,
    GreenEvaluator,
    Jordan,
    capacity,
    gauss_legendre,
    green_annulus,
    green_disc,
    green_evaluator,
    green_nystrom,
    sample_interior,
)
from bergreen.errors import (
    AccuracyError,
    CoincidentPointsError,
    DomainError,
    ExtrapolationDivergenceError,
    NonConvergenceError,
)


def moebius(p: complex, z: complex) -> complex:
    return (z - p) / (1.0 - p.conjugate() * z)


# ---------------------------------------------------------------------------
# Closed form on the disc
# ---------------------------------------------------------------------------


class TestGreenDisc:
    def test_pole_at_origin(self):
        assert green_disc(0.5, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_symmetry(self):
        a, b = 0.3 + 0.4j, 0.1 + 0.0j
        assert green_disc(a, b) == pytest.approx(green_disc(b, a), abs=1e-14)

    def test_scaled_disc(self):
        # radius-2 disc: G(z, 0) = log(|z| / R)
        assert green_disc(0.5, 0.0, radius=2.0) == pytest.approx(
            math.log(0.25), abs=1e-15
        )

    def test_coincident_points_error(self):
        with pytest.raises(CoincidentPointsError):
            green_disc(0.3 + 0.1j, 0.3 + 0.1j)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            green_disc(1.2, 0.0)

    def test_negative(self):
        for z in (0.9, -0.5 + 0.3j, 0.01j):
            assert green_disc(z, 0.2 + 0.2j) < 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=0.85, allow_infinity=False, allow_nan=False),
        st.complex_numbers(max_magnitude=0.85, allow_infinity=False, allow_nan=False),
        st.complex_numbers(max_magnitude=0.85, allow_infinity=False, allow_nan=False),
    )
    def test_moebius_invariance(self, p, xi, z):
        # conformal covariance under disc automorphisms, exact closed form
        if abs(xi - z) < 1e-3 or abs(moebius(p, xi) - moebius(p, z)) < 1e-6:
            return
        lhs = green_disc(moebius(p, xi), moebius(p, z))
        rhs = green_disc(xi, z)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# Laurent modes on the annulus
# ---------------------------------------------------------------------------


class TestGreenAnnulus:
    ann = Annulus(0.2)

    def test_symmetry(self):
        z, w = 0.5 + 0.1j, -0.4 + 0.3j
        assert green_annulus(self.ann, z, w, modes=128) == pytest.approx(
            green_annulus(self.ann, w, z, modes=128), abs=1e-9
        )

    def test_boundary_vanishing_outer(self):
        z = (1.0 - 1e-8) * cmath.exp(0.7j)
        ev = green_evaluator(self.ann)
        assert abs(ev.green(z, 0.5 + 0.1j)) < 1e-6

    def test_boundary_vanishing_inner(self):
        z = (0.2 + 1e-8) * cmath.exp(2.1j)
        ev = green_evaluator(self.ann)
        assert abs(ev.green(z, 0.5 + 0.1j)) < 1e-6

    def test_cross_method_nystrom(self):
        z, w = 0.5 + 0.1j, -0.4 + 0.3j
        g_modes = green_annulus(self.ann, z, w, modes=256)
        g_nys = green_nystrom(self.ann, z, w, quad_points=256)
        assert g_modes == pytest.approx(g_nys, abs=1e-7)

    def test_disc_limit_with_log_correction(self):
        # As r -> 0 the annulus Green differs from the disc Green by the
        # explicit flux term d0 log|z| with d0 = log|w| / log(1/r); after
        # removing it the remaining difference is O(r^2).
        r = 1e-6
        ann = Annulus(r)
        z, w = 0.5 + 0.0j, 0.2 + 0.1j
        d0 = math.log(abs(w)) / math.log(1.0 / r)
        g = green_annulus(ann, z, w, modes=256)
        assert g - d0 * math.log(abs(z)) == pytest.approx(
            green_disc(z, w), abs=1e-10
        )

    def test_mode_refinement_stability(self):
        z, w = math.sqrt(0.2) * cmath.exp(0.9j), 0.55 - 0.2j
        g1 = green_annulus(self.ann, z, w, modes=128)
        g2 = green_annulus(self.ann, z, w, modes=256)
        assert abs(g1 - g2) < 1e-12

    def test_harmonicity_off_pole(self):
        # five-point Laplacian of G(., w) away from the pole vanishes
        ev = green_evaluator(self.ann)
        w, zc, h = -0.4 + 0.3j, 0.45 + 0.2j, 1e-4
        lap = (
            ev.green(zc + h, w)
            + ev.green(zc - h, w)
            + ev.green(zc + 1j * h, w)
            + ev.green(zc - 1j * h, w)
            - 4.0 * ev.green(zc, w)
        ) / h**2
        assert abs(lap) < 1e-5

    def test_coincident_points_error(self):
        with pytest.raises(CoincidentPointsError):
            green_annulus(self.ann, 0.5, 0.5)

    def test_non_convergence_error(self):
        tight = Annulus(0.9)
        z = 0.901 * cmath.exp(0.3j)
        w = 0.901 * cmath.exp(0.31j)
        with pytest.raises(NonConvergenceError):
            green_annulus(tight, z, w, modes=64)


# ---------------------------------------------------------------------------
# Nystrom on Jordan domains
# ---------------------------------------------------------------------------


def wobbly_domain() -> Jordan:
    return Jordan({1: 1.0, 4: 0.08 + 0.02j, -2: 0.06})


class TestGreenNystrom:
    def test_disc_oracle(self):
        g = green_nystrom(Jordan.circle(), 0.5, 0.0, quad_points=128)
        assert g == pytest.approx(math.log(0.5), abs=1e-8)

    def test_ellipse_symmetry(self):
        dom = Jordan.ellipse(1.3, 0.8)
        z, w = 0.4 + 0.2j, -0.6 - 0.1j
        assert green_nystrom(dom, z, w, quad_points=128) == pytest.approx(
            green_nystrom(dom, w, z, quad_points=128), abs=1e-7
        )

    def test_scaled_disc(self):
        dom = Jordan.circle(radius=2.0)
        g = green_nystrom(dom, 0.5, 0.0, quad_points=128)
        assert g == pytest.approx(green_disc(0.5, 0.0, radius=2.0), abs=1e-7)

    def test_quad_points_minimum(self):
        with pytest.raises(DomainError):
            green_nystrom(Jordan.circle(), 0.5, 0.0, quad_points=32)

    def test_interior_guard(self):
        with pytest.raises(DomainError):
            green_nystrom(Jordan.circle(), 0.9999, 0.0, quad_points=64)

    def test_refinement_check_mechanism(self):
        # an absurdly tight tolerance must trip the doubling check
        with pytest.raises(AccuracyError):
            green_nystrom(
                wobbly_domain(), 0.3, -0.2j, quad_points=64, refine_tol=1e-30
            )

    def test_convergence_at_least_quadratic(self):
        dom = wobbly_domain()
        z, w = 0.35 + 0.1j, -0.3 - 0.15j
        ref = green_nystrom(dom, z, w, quad_points=1024, check_refinement=False)
        errs = [
            abs(green_nystrom(dom, z, w, quad_points=n, check_refinement=False) - ref)
            for n in (64, 128)
        ]
        assert errs[1] <= max(errs[0] / 4.0, 1e-13)

    def test_negativity_samples(self):
        dom = wobbly_domain()
        pts = sample_interior(dom, 5, seed=3, margin=0.12)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                if abs(a - b) > 1e-6:
                    assert green_nystrom(dom, a, b, quad_points=128) < 0.0


# ---------------------------------------------------------------------------
# Capacity
# ---------------------------------------------------------------------------


class TestCapacity:
    def test_disc_origin(self):
        assert capacity(Disc(), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_disc_closed_form_grid(self):
        for z in (0.0, 0.3, 0.6, 0.9, 0.5 + 0.4j, -0.2 - 0.7j):
            if abs(z) <= 0.9:
                assert capacity(Disc(), z) == pytest.approx(
                    1.0 / (1.0 - abs(z) ** 2), abs=1e-9
                )

    def test_disc_richardson_limit_matches_closed_form(self):
        ev = green_evaluator(Disc())
        for z in (0.0, 0.3, 0.6j):
            assert capacity(ev, z, force_limit=True) == pytest.approx(
                1.0 / (1.0 - abs(z) ** 2), abs=1e-8
            )

    def test_nystrom_capacity_disc(self):
        ev = green_evaluator(Jordan.circle(), quad_points=256)
        assert capacity(ev, 0.6) == pytest.approx(1.5625, abs=1e-7)

    def test_annulus_capacity_stability(self):
        z = math.sqrt(0.2) * cmath.exp(0.9j)
        e1 = green_evaluator(Annulus(0.2), modes=128)
        e2 = green_evaluator(Annulus(0.2), modes=256)
        assert abs(math.exp(e1.robin(z)) - math.exp(e2.robin(z))) < 1e-7

    def test_annulus_capacity_nystrom_cross_method(self):
        z = math.sqrt(0.2) * cmath.exp(0.9j)
        direct = capacity(Annulus(0.2), z)
        ev = green_evaluator(Annulus(0.2), method="nystrom", quad_points=256)
        assert capacity(ev, z) == pytest.approx(direct, abs=1e-7)

    def test_richardson_divergence_guard(self):
        class Noisy(GreenEvaluator):
            def remainder(self, xi, z):
                return super().remainder(xi, z) + 1e-2 * abs(xi - z) ** 0.5

        ev = Noisy(Disc(), "closed_form")
        with pytest.raises(ExtrapolationDivergenceError):
            capacity(ev, 0.4, force_limit=True, cap_tol=1e-8)


# ---------------------------------------------------------------------------
# Jordan geometry and ingestion
# ---------------------------------------------------------------------------


class TestJordan:
    def test_self_intersection_rejected(self):
        # figure-eight curve
        with pytest.raises(DomainError):
            Jordan({1: 0.5, -1: 0.5, 2: 0.25, -2: -0.25})

    def test_vanishing_derivative_rejected(self):
        # cardioid-like cusp at t = pi
        with pytest.raises(DomainError):
            Jordan({1: 1.0, 2: 0.5})

    def test_wrong_orientation_rejected(self):
        with pytest.raises(DomainError):
            Jordan({-1: 1.0})

    def test_containment_and_distance(self):
        dom = Jordan.circle()
        assert dom.contains(0.5)
        assert not dom.contains(1.5)
        assert dom.boundary_distance(0.0) == pytest.approx(1.0, abs=1e-6)

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("# ellipse\n1 1.05 0.0\n-1 0.25 0.0\n")
        dom = Jordan.from_file(path)
        assert dom.coeffs == {1: (1.05 + 0j), -1: (0.25 + 0j)}
        assert dom.contains(0.0)

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0.5\n")
        with pytest.raises(DomainError):
            Jordan.from_file(path)

    def test_degenerate_annulus_rejected(self):
        with pytest.raises(DomainError):
            Annulus(0.0)
        with pytest.raises(DomainError):
            Annulus(1.0)
        with pytest.raises(DomainError):
            Disc(0.0)


# ---------------------------------------------------------------------------
# Evaluator-level invariants (symmetry / negativity across methods)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain,method",
    [
        (Disc(), "closed_form"),
        (Annulus(0.2), "laurent_modes"),
        (Jordan.ellipse(1.2, 0.9), "nystrom"),
    ],
)
def test_symmetry_and_negativity(domain, method):
    ev = green_evaluator(domain, method=method, quad_points=128)
    pts = sample_interior(domain, 4, seed=11, margin=0.15)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if abs(a - b) < 1e-3:
                continue
            gab, gba = ev.green(a, b), ev.green(b, a)
            assert abs(gab - gba) < 1e-7
            assert gab < 0.0


def test_sample_interior_deterministic():
    a = sample_interior(Annulus(0.2), 8, seed=5)
    b = sample_interior(Annulus(0.2), 8, seed=5)
    assert a == b
    assert all(Annulus(0.2).contains(z) for z in a)


def test_gauss_legendre_cached_and_read_only():
    x, w = gauss_legendre(24)
    ref_x, ref_w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    again = gauss_legendre(24)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


def test_gauss_legendre_misses_once_per_rule(monkeypatch):
    calls = []
    rule = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return rule(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for n in (8, 8, 24, 8):
        gauss_legendre(n)
    assert calls == [8, 24]
