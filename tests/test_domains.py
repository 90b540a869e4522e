"""Tests for bergreen.domains: Green functions and capacity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergreen import domains
from bergreen.domains import (
    Annulus,
    Disc,
    GreenEvaluator,
    Jordan,
    capacity,
    gauss_legendre,
    green_evaluator,
    sample_interior,
)
from bergreen.errors import (
    AccuracyError,
    CoincidentPointsError,
    DomainError,
    ExtrapolationDivergenceError,
    NonConvergenceError,
    SolverSingularError,
)


def moebius(p: complex, z: complex) -> complex:
    return (z - p) / (1.0 - p.conjugate() * z)


# ---------------------------------------------------------------------------
# Closed form on the disc
# ---------------------------------------------------------------------------


class TestGreenDisc:
    disc = green_evaluator(Disc())

    def test_pole_at_origin(self):
        assert self.disc.green(0.5, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_symmetry(self):
        a, b = 0.3 + 0.4j, 0.1 + 0.0j
        assert self.disc.green(a, b) == pytest.approx(self.disc.green(b, a), abs=1e-14)

    def test_scaled_disc(self):
        # radius-2 disc: G(z, 0) = log(|z| / R)
        assert green_evaluator(Disc(2.0)).green(0.5, 0.0) == pytest.approx(
            math.log(0.25), abs=1e-15
        )

    def test_coincident_points_error(self):
        with pytest.raises(CoincidentPointsError):
            self.disc.green(0.3 + 0.1j, 0.3 + 0.1j)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            self.disc.green(1.2, 0.0)

    def test_negative(self):
        for z in (0.9, -0.5 + 0.3j, 0.01j):
            assert self.disc.green(z, 0.2 + 0.2j) < 0.0

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
        lhs = self.disc.green(moebius(p, xi), moebius(p, z))
        rhs = self.disc.green(xi, z)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# Laurent modes on the annulus
# ---------------------------------------------------------------------------


class TestGreenAnnulus:
    ann = Annulus(0.2)

    def test_symmetry(self):
        z, w = 0.5 + 0.1j, -0.4 + 0.3j
        ev = green_evaluator(self.ann, modes=128)
        assert ev.green(z, w) == pytest.approx(ev.green(w, z), abs=1e-9)

    def test_boundary_vanishing_outer(self):
        z = (1.0 - 1e-8) * cmath.exp(0.7j)
        ev = green_evaluator(self.ann)
        assert abs(ev.green(z, 0.5 + 0.1j)) < 1e-6

    def test_boundary_vanishing_inner(self):
        z = (0.2 + 1e-8) * cmath.exp(2.1j)
        ev = green_evaluator(self.ann)
        assert abs(ev.green(z, 0.5 + 0.1j)) < 1e-6

    def test_cross_method_nystrom(self):
        # 512 nodes per circle, witnessed on 256: the pair the doubling
        # check at 256 used to solve
        z, w = 0.5 + 0.1j, -0.4 + 0.3j
        g_modes = green_evaluator(self.ann, modes=256).green(z, w)
        g_nys = green_evaluator(self.ann, method="nystrom", quad_points=512).green(z, w)
        assert g_modes == pytest.approx(g_nys, abs=1e-7)

    def test_disc_limit_with_log_correction(self):
        # As r -> 0 the annulus Green differs from the disc Green by the
        # explicit flux term d0 log|z| with d0 = log|w| / log(1/r); after
        # removing it the remaining difference is O(r^2).
        r = 1e-6
        ann = Annulus(r)
        z, w = 0.5 + 0.0j, 0.2 + 0.1j
        d0 = math.log(abs(w)) / math.log(1.0 / r)
        g = green_evaluator(ann, modes=256).green(z, w)
        assert g - d0 * math.log(abs(z)) == pytest.approx(
            green_evaluator(Disc()).green(z, w), abs=1e-10
        )

    def test_mode_refinement_stability(self):
        z, w = math.sqrt(0.2) * cmath.exp(0.9j), 0.55 - 0.2j
        g1 = green_evaluator(self.ann, modes=128).green(z, w)
        g2 = green_evaluator(self.ann, modes=256).green(z, w)
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
            green_evaluator(self.ann, modes=64).green(0.5, 0.5)

    def test_non_convergence_error(self):
        tight = Annulus(0.9)
        z = 0.901 * cmath.exp(0.3j)
        w = 0.901 * cmath.exp(0.31j)
        with pytest.raises(NonConvergenceError):
            green_evaluator(tight, modes=64).green(z, w)


# ---------------------------------------------------------------------------
# Nystrom on Jordan domains
# ---------------------------------------------------------------------------


def wobbly_domain() -> Jordan:
    return Jordan({1: 1.0, 4: 0.08 + 0.02j, -2: 0.06})


def nystrom_green(domain, z: complex, w: complex, n: int) -> float:
    """``G(z, w)`` from the bare Nystrom discretization on ``n`` nodes, with
    no guard and no refinement witness."""
    solver = domains._NystromSolver(*domains._nystrom_components(domain), n)
    sol = solver.solve(-np.log(np.abs(solver.pts - w)))
    return math.log(abs(z - w)) + float(solver.evaluate(sol, z)[0])


@pytest.mark.parametrize(
    "domain,n", [(Jordan.ellipse(1.2, 0.7), 256), (wobbly_domain(), 100), (Annulus(0.2), 256)]
)
def test_row_block_assembly_matches_whole_rows(domain, n):
    # the whole-array assembly the row blocks replaced, as the reference
    s = domains._NystromSolver(*domains._nystrom_components(domain), n)
    y, m = s.pts, s.pts.size
    diff = y[None, :] - y[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = -np.real(np.conj(s.normals)[None, :] * diff) / (2.0 * math.pi * np.abs(diff) ** 2)
    np.fill_diagonal(kern, -s.curv / (4.0 * math.pi))
    ref = kern * s.weights[None, :] - 0.5 * np.eye(m)
    assert s.matrix[:m, :m].tobytes() == ref.tobytes()


class TestGreenNystrom:
    # quad_points=256 reports 256 nodes and witnesses on 128: the pair the
    # doubling check at 128 used to solve, so each value is the one it gave

    def test_disc_oracle(self):
        g = green_evaluator(Jordan.circle(), quad_points=256).green(0.5, 0.0)
        assert g == pytest.approx(math.log(0.5), abs=1e-8)

    def test_ellipse_symmetry(self):
        ev = green_evaluator(Jordan.ellipse(1.3, 0.8), quad_points=256)
        z, w = 0.4 + 0.2j, -0.6 - 0.1j
        assert ev.green(z, w) == pytest.approx(ev.green(w, z), abs=1e-7)

    def test_scaled_disc(self):
        g = green_evaluator(Jordan.circle(radius=2.0), quad_points=256).green(0.5, 0.0)
        assert g == pytest.approx(green_evaluator(Disc(2.0)).green(0.5, 0.0), abs=1e-7)

    def test_quad_points_minimum(self):
        with pytest.raises(DomainError):
            green_evaluator(Jordan.circle(), quad_points=32)

    def test_boundary_distance_guard(self):
        ev = green_evaluator(Jordan.circle(), quad_points=64)
        with pytest.raises(DomainError):
            ev.green(0.9999, 0.0)

    def test_refinement_check_mechanism(self, monkeypatch):
        # an absurdly tight tolerance must trip the refinement witness
        monkeypatch.setattr(domains, "_REFINE_TOL", 1e-30)
        with pytest.raises(AccuracyError):
            green_evaluator(wobbly_domain(), quad_points=128).green(0.3, -0.2j)

    def test_convergence_at_least_quadratic(self):
        dom = wobbly_domain()
        z, w = 0.35 + 0.1j, -0.3 - 0.15j
        ref = nystrom_green(dom, z, w, 1024)
        errs = [abs(nystrom_green(dom, z, w, n) - ref) for n in (64, 128)]
        assert errs[1] <= max(errs[0] / 4.0, 1e-13)

    def test_negativity_samples(self):
        dom = wobbly_domain()
        ev = green_evaluator(dom, quad_points=256)
        pts = sample_interior(dom, 5, seed=3, margin=0.12)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                if abs(a - b) > 1e-6:
                    assert ev.green(a, b) < 0.0


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
# Evaluator guards and the Nystrom refinement witness
# ---------------------------------------------------------------------------


class TestEvaluatorGuards:
    @pytest.mark.parametrize(
        "domain,xi,z",
        [
            (Disc(), 1.5, 0.1),  # evaluation point outside the disc
            (Annulus(0.2), 0.1, 0.5),  # evaluation point in the hole
            (Jordan.ellipse(1.0, 0.6), 0.5, 1.5),  # pole outside the ellipse
        ],
        ids=["disc", "annulus-hole", "ellipse-pole"],
    )
    def test_outside_points_rejected(self, domain, xi, z):
        ev = green_evaluator(domain)
        with pytest.raises(DomainError, match="not inside"):
            ev.green(xi, z)
        with pytest.raises(DomainError, match="not inside"):
            ev.remainder(xi, z)

    def test_robin_outside_rejected(self):
        with pytest.raises(DomainError, match="not inside"):
            green_evaluator(Annulus(0.2)).robin(0.1)

    def test_nystrom_boundary_guard_on_the_pole(self):
        ev = green_evaluator(Jordan.ellipse(1.0, 0.6))
        with pytest.raises(DomainError, match="1e-3"):
            ev.green(0.5, 0.999)

    def test_unresolved_pole_raises_accuracy_error(self):
        # at z = 0.99 the n = 256 capacity reads 57.86 against 50.70
        # converged; the half-node witness disagrees and says so
        dom = Jordan.ellipse(1.0, 0.6)
        with pytest.raises(AccuracyError):
            capacity(dom, 0.99)
        with pytest.raises(AccuracyError):
            green_evaluator(dom).green(0.5, 0.99)

    @pytest.mark.parametrize("nan_on", ["witnesses", "reported"])
    def test_nan_fails(self, monkeypatch, nan_on):
        ev = green_evaluator(Jordan.ellipse(1.2, 0.9))
        evaluate = domains._NystromSolver.evaluate

        def nan_evaluate(solver, sol, x):
            out = evaluate(solver, sol, x)
            return out * np.nan if (solver is ev._solver) == (nan_on == "reported") else out

        monkeypatch.setattr(domains._NystromSolver, "evaluate", nan_evaluate)
        with pytest.raises(AccuracyError):
            ev.green(0.3, -0.2j)

    def test_witness_is_half_size_lazy_and_reports_the_full_value(self, monkeypatch):
        dom = Jordan.ellipse(1.2, 0.9)
        conds = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(a.shape) or cond(a))
        ev = green_evaluator(dom, quad_points=128)
        assert "_half" not in vars(ev)
        g = ev.green(0.3, -0.2j)
        assert ev._half.n == 64 and ev._solver.n == 128 and "_double" not in vars(ev)
        assert conds == [(128, 128)]  # the witness takes no condition number
        assert g == nystrom_green(dom, 0.3, -0.2j, 128)

    def test_doubled_witness_certifies_what_the_half_cannot(self):
        # xi is 0.085 from the outer circle: h_128 is 1.1e-5 off, h_256
        # 5e-11, so |h_256 - h_128| exceeds the tolerance though h_256 is
        # good; the 512-node system certifies it
        ann, xi, z = Annulus(0.2), 0.345551 + 0.847068j, 0.614357 + 0.398092j
        ev = green_evaluator(ann, method="nystrom")
        assert ev.green(xi, z) == nystrom_green(ann, xi, z, 256)
        assert ev._double.n == 512

    def test_condition_gate(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", lambda a: 1e13)
        with pytest.raises(SolverSingularError):
            green_evaluator(Jordan.ellipse(1.2, 0.9))

    @pytest.mark.parametrize(
        "domain,method",
        [
            (Disc(), "bogus"),
            (Disc(), "auto"),
            (Annulus(0.2), "closed_form"),
            (Jordan.circle(), "laurent_modes"),
        ],
    )
    def test_direct_construction_checks_the_method(self, domain, method):
        with pytest.raises(DomainError):
            GreenEvaluator(domain, method)

    def test_green_record_evaluates_once(self, monkeypatch):
        dom, xi, z = Jordan.ellipse(1.2, 0.7), 0.3, -0.2j
        g = green_evaluator(dom).green(xi, z)
        calls = []
        remainder = GreenEvaluator.remainder
        monkeypatch.setattr(
            GreenEvaluator,
            "remainder",
            lambda ev, a, b: calls.append((a, b)) or remainder(ev, a, b),
        )
        rec = domains.green_record(dom, xi, z, "auto")
        assert calls == [(xi, z)]
        assert rec.quantities["green"] == g  # bit-identical to ev.green
        with pytest.raises(CoincidentPointsError):
            domains.green_record(dom, z, z, "auto")
        assert len(calls) == 1  # the coincidence guard runs first


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

    def test_samples_computed_once(self):
        a, b = Jordan.ellipse(1.2, 0.7), wobbly_domain()
        assert domains._far_pairs() is domains._far_pairs()
        assert not domains._far_pairs().flags.writeable
        # the stored winding samples give the winding number of a fresh sum
        t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        for dom in (a, b):
            for z in (0.1 + 0.2j, 1.5, -0.9j):
                direct = np.sum(dom.tangent(t) / (dom.point(t) - z)) * (2.0 * math.pi / 2048)
                assert dom.winding(z) == int(round((direct / (2j * math.pi)).real))

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
