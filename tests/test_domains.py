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
    parse_domain,
    sample_interior,
)
from bergreen.errors import (
    AccuracyError,
    CoincidentPointsError,
    DomainError,
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


# annulus node counts whose 2n nodes, or the 2(n/2) of the witness, are not a
# multiple of the 128-row block: the last block used to reach into the
# side-condition row
PARTIAL_BLOCK_NODE_COUNTS = [64, 96, 100, 200, 320]


@pytest.mark.parametrize(
    "domain,n",
    [(Jordan.ellipse(1.2, 0.7), 256), (wobbly_domain(), 100), (Annulus(0.2), 256)]
    + [(Annulus(0.2), n) for n in PARTIAL_BLOCK_NODE_COUNTS],
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
    # the hole columns and side-condition rows, whole
    nh = len(s.hole_centers)
    border = np.zeros((m + nh, m + nh))
    for j, c in enumerate(s.hole_centers):
        border[:m, m + j] = np.log(np.abs(y - c))
        border[m + j, s.slices[1 + j]] = s.weights[s.slices[1 + j]]
    assert s.matrix[:, m:].tobytes() == border[:, m:].tobytes()
    assert s.matrix[m:, :].tobytes() == border[m:, :].tobytes()


@pytest.mark.parametrize("n", PARTIAL_BLOCK_NODE_COUNTS + [256])
def test_annulus_nystrom_at_any_node_count(n):
    # the Nystrom remainder against the Laurent-mode series, at node counts
    # whose assembly (or n/2 witness) ends in a partial row block
    ann = Annulus(0.2)
    ref = green_evaluator(ann, method="laurent_modes").remainder(0.5, -0.3j)
    got = green_evaluator(ann, method="nystrom", quad_points=n).remainder(0.5, -0.3j)
    assert abs(got - ref) <= domains._REFINE_TOL


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

    def test_nystrom_capacity_disc(self):
        ev = green_evaluator(Jordan.circle(), quad_points=256)
        for z in (0.0, 0.6, 0.3j, -0.4 + 0.5j):
            assert capacity(ev, z) == pytest.approx(1.0 / (1.0 - abs(z) ** 2), abs=1e-7)

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

    def test_truncated_mode_sum_raises(self):
        # two modes leave a certified tail of about 0.2 at z = 0.3, and the
        # sum is 4.4 % below the certified capacity
        assert capacity(Annulus(0.2), 0.3) == pytest.approx(4.573181024599501, rel=1e-12)
        with pytest.raises(NonConvergenceError, match="tail estimate"):
            capacity(green_evaluator(Annulus(0.2), modes=2), 0.3)


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
        monkeypatch.setattr(
            np.linalg, "cond", lambda a, *p: conds.append(a.shape) or cond(a, *p)
        )
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
        monkeypatch.setattr(np.linalg, "cond", lambda a, *p: 1e13)
        with pytest.raises(SolverSingularError):
            green_evaluator(Jordan.ellipse(1.2, 0.9))

    def test_nan_condition_fails(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", lambda a, *p: math.nan)
        with pytest.raises(SolverSingularError, match="nan"):
            green_evaluator(Jordan.ellipse(1.2, 0.9))

    def test_nan_in_the_system_fails(self, monkeypatch):
        assemble = domains._NystromSolver._assemble

        def nan_assemble(solver):
            assemble(solver)
            solver.matrix[3, 5] = math.nan

        monkeypatch.setattr(domains._NystromSolver, "_assemble", nan_assemble)
        with pytest.raises(SolverSingularError, match="non-finite"):
            green_evaluator(Jordan.ellipse(1.2, 0.9))

    def test_nan_tail_fails(self):
        with pytest.raises(NonConvergenceError):
            GreenEvaluator._tail_gated((1.0, math.nan))

    def test_nan_nystrom_diagonal_fails(self, monkeypatch):
        value = GreenEvaluator._nystrom_value

        def nan_at_pole(self, solver, xi, z):
            return math.nan if xi == z else value(self, solver, xi, z)

        monkeypatch.setattr(GreenEvaluator, "_nystrom_value", nan_at_pole)
        with pytest.raises(AccuracyError):
            capacity(green_evaluator(Jordan.ellipse(1.2, 0.7)), 0.3)

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
# The Nystrom condition gate: kappa_F certifies, the SVD decides past it
# ---------------------------------------------------------------------------


class TestConditionGate:
    @staticmethod
    def _prescribed(singular_values) -> np.ndarray:
        """``U diag(s) V^T`` with seeded orthogonal ``U`` and ``V``."""
        rng = np.random.default_rng(5)
        n = len(singular_values)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (u * np.asarray(singular_values)) @ v.T

    @staticmethod
    def _gate(monkeypatch, matrix) -> list:
        """Build a Nystrom evaluator whose reported system is ``matrix``;
        returns the norm argument of each ``numpy.linalg.cond`` call."""
        monkeypatch.setattr(domains._NystromSolver, "_assemble", lambda s: setattr(s, "matrix", matrix))
        norms = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a, p=None: norms.append(p) or cond(a, p))
        green_evaluator(Jordan.ellipse(1.2, 0.9), quad_points=64)
        return norms

    def test_well_conditioned_takes_one_lu_and_no_svd(self, monkeypatch):
        A = self._prescribed(np.linspace(1.0, 2.0, 64))
        assert np.linalg.cond(A, "fro") <= domains._COND_CERTIFIED
        assert self._gate(monkeypatch, A) == ["fro"]

    def test_svd_accepts_what_the_certificate_cannot(self, monkeypatch):
        A = self._prescribed(np.geomspace(1.0, 1e-11, 64))
        assert np.linalg.cond(A, "fro") > domains._COND_CERTIFIED
        assert np.linalg.cond(A) == pytest.approx(1e11, rel=1e-3)
        assert self._gate(monkeypatch, A) == ["fro", None]

    def test_svd_rejects_past_1e12(self, monkeypatch):
        A = self._prescribed(np.geomspace(1.0, 1e-13, 64))
        with pytest.raises(SolverSingularError, match="exceeds 1e12"):
            self._gate(monkeypatch, A)

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize(
        "domain",
        [Jordan.ellipse(1.2, 0.7), Annulus(0.2), wobbly_domain()],
        ids=["ellipse", "annulus", "jordan"],
    )
    def test_frobenius_bounds_the_2_norm_condition(self, domain, n):
        A = domains._NystromSolver(*domains._nystrom_components(domain), n).matrix
        kappa_2, kappa_f = np.linalg.cond(A), np.linalg.cond(A, "fro")
        assert kappa_2 <= kappa_f <= domains._COND_CERTIFIED

# ---------------------------------------------------------------------------
# Jordan geometry and ingestion
# ---------------------------------------------------------------------------


class TestDomainSpecs:
    def test_domain_specs(self):
        assert isinstance(parse_domain("disc"), Disc)
        assert parse_domain("disc:2.0").radius == 2.0
        ann = parse_domain("annulus:0.2")
        assert isinstance(ann, Annulus) and ann.r_inner == 0.2
        ell = parse_domain("ellipse:1.0:0.5")
        assert ell.coeffs  # Jordan with conformal coefficients

    @pytest.mark.parametrize(
        "spec", ["square", "annulus", "annulus:1.5", "disc:-1", "jordan:", "jordan:/nope.txt"]
    )
    def test_domain_rejects(self, spec):
        with pytest.raises(DomainError, match=spec):
            parse_domain(spec)


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

    def test_record_id_is_the_same_for_two_builds(self):
        # the id comes from the coefficients, not from an object address
        ids = [
            domains.green_record(Jordan.ellipse(1.2, 0.7), 0.5, 0.1, "nystrom").input_id
            for _ in range(2)
        ]
        assert ids[0] == ids[1] == "Jordan({-1: (0.25+0j), 1: (0.95+0j)}) xi=0.5 z=0.1"

    def test_containment_and_distance(self):
        dom = Jordan.circle()
        assert dom.contains(0.5)
        assert not dom.contains(1.5)
        assert dom.boundary_distance(0.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "coeffs,turns", [({1: 1.0, 2: 0.6}, "2.000"), ({1: 1.0, -3: 0.5}, "-3.000")],
        ids=["inner-loop", "four-loops"],
    )
    def test_looped_curve_rejected(self, coeffs, turns):
        # both keep their samples apart and wind +1 around their centroid;
        # only the turning of the tangent gives the loops away
        t = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
        assert all_pairs_validation(fourier_samples(coeffs, t))[0]
        with pytest.raises(DomainError, match=f"tangent turns {turns} times, not once"):
            Jordan(coeffs)

    @pytest.mark.parametrize("coeffs", [{1: float("nan")}, {1: 1.0, 2: float("inf")}])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(DomainError, match="coefficients must be finite"):
            Jordan(coeffs)

    def test_samples_computed_once(self):
        a, b = Jordan.ellipse(1.2, 0.7), wobbly_domain()
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


def fourier_samples(coeffs: dict, t: np.ndarray) -> np.ndarray:
    """``gamma(t)`` computed as :meth:`Jordan.point` does, also for curves
    that ``Jordan`` rejects."""
    k = np.array(sorted(coeffs), dtype=np.int64).astype(float)
    c = np.array([complex(coeffs[j]) for j in sorted(coeffs)])
    return np.exp(1j * np.multiply.outer(t, k)) @ c


def all_pairs_validation(pts: np.ndarray) -> tuple[bool, float]:
    """The full distance-matrix separation test and diameter that
    ``_far_samples_separated`` and ``_diameter`` replace, kept as their
    oracle: (far samples at least 1e-9 apart, max distance)."""
    n = pts.size
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    far = np.minimum(gap, n - gap) > n // 32
    d = np.abs(pts[:, None] - pts[None, :])
    return not np.min(d[far]) < 1e-9, float(np.max(d))


def _ellipse(a: float, b: float) -> dict:
    return {1: (a + b) / 2.0 + 0j, -1: (a - b) / 2.0 + 0j}


def _random_curve(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    coeffs = {k: 0.15 * complex(*rng.normal(size=2)) for k in (-3, -2, -1, 0, 2, 3)}
    return {**coeffs, 1: 1.0}


# curves Jordan accepts; the first twelve ellipses are those of the nystrom
# benchmark workload at seeds 0, 1, 3 and 7
_ACCEPTED_CURVES = [
    *(_ellipse(a, b) for a, b in [
        (1.1432, 0.8059), (1.1943, 0.8112), (1.3194, 0.5679),
        (1.2851, 0.6575), (1.3082, 0.5954), (1.3846, 0.778),
        (1.0475, 0.8144), (1.0543, 0.8904), (1.4491, 0.6898),
        (1.1072, 0.5043), (1.2017, 0.5749), (1.2383, 0.8519),
        (1.2, 0.7), (1.0, 1.0), (1.0, 1e-3), (3.0, 2.0),
    ]),
    {1: 1.0},
    {1: 2.0, 0: 0.5 - 0.25j},
    {1: 1.0, 4: 0.08 + 0.02j, -2: 0.06},  # wobbly_domain
]
# curves the separation test rejects: the figure-eight, whose crossing is a
# pair of samples, and an ellipse too thin for it (|gamma'| >= 2e-9 passes)
_REJECTED_CURVES = [{1: 0.5, -1: 0.5, 2: 0.25, -2: -0.25}, _ellipse(1.0, 2e-9)]


@pytest.mark.parametrize(
    "coeffs,accepted",
    [*((c, True) for c in _ACCEPTED_CURVES), *((c, False) for c in _REJECTED_CURVES),
     *((_random_curve(seed), None) for seed in range(40))],
)
def test_sweep_validation_matches_all_pairs(coeffs, accepted):
    t = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    pts = fourier_samples(coeffs, t)
    separated, diameter = all_pairs_validation(pts)
    assert accepted is not False or not separated
    assert domains._far_samples_separated(pts) == separated
    assert domains._diameter(pts) == diameter  # the same float, not close
    try:
        dom = Jordan(coeffs)
    except DomainError as exc:
        assert accepted is not True, exc
        # separation decides once the derivative test has passed
        if "derivative" not in str(exc):
            assert ("self-intersects" in str(exc)) == (not separated)
    else:
        assert accepted is not False and separated
        assert dom._cached_samples.tobytes() == pts.tobytes()
        assert dom.diameter == diameter


def _ring(n: int = 1024) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(n) / n)


@pytest.mark.parametrize(
    "j,dist,separated",
    [
        (500, 5e-10, False),  # a far pair too close
        (500, 2e-9, True),  # a far pair just apart
        (33, 5e-10, False),  # the nearest far pair
        (32, 5e-10, True),  # a gap of n // 32 is near
        (1, 5e-10, True),
        (1000, 5e-10, True),  # near across the seam of the ring
        (991, 5e-10, False),  # far across the seam
    ],
)
@pytest.mark.parametrize("angle", [0.0, 1.0, math.sqrt(2.0), math.sqrt(2.0) + math.pi / 2])
def test_separation_on_planted_pairs(j, dist, separated, angle):
    # sqrt(2) is along the sweep, sqrt(2) + pi/2 across it (equal projections)
    pts = _ring()
    pts[j] = pts[0] + dist * cmath.exp(1j * angle)
    assert domains._far_samples_separated(pts) == separated
    assert all_pairs_validation(pts)[0] == separated


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


@pytest.mark.parametrize("doublings", [0, -1])
def test_refine_without_a_doubling_is_rejected(doublings):
    levels = []
    with pytest.raises(ValueError, match=f"at least one doubling, got {doublings}"):
        domains.refine(levels.append, lambda fine, coarse: 0.0, 1e-9, doublings=doublings)
    assert levels == []  # rejected before any level is computed


def test_refine_stops_at_the_first_level_that_agrees():
    values = [1.0, 0.5, 0.26, 0.25, 0.25]
    computed = []

    def compute(k):
        computed.append(k)
        return values[k]

    change = lambda fine, coarse: abs(fine - coarse)  # noqa: E731
    value, moved = domains.refine(compute, change, 0.02, doublings=4)
    assert (value, computed) == (0.25, [0, 1, 2, 3]) and moved == pytest.approx(0.01)
    with pytest.raises(AccuracyError, match="after 2 doubling"):
        domains.refine(compute, change, 0.02, doublings=2)
