"""Tests for weighted Bergman kernels, least-norm extensions, and ratio checks.

Oracles used here (tests only, never in library code):
  - closed-form disc kernel 1/(pi (1-|z|^2)^2),
  - scipy.integrate.quad radial integrals for diagonal Gram entries,
  - scipy.special.iv Bessel identity for the HarmonicRe angular integrals:
        integral_0^{2pi} e^{i k t} e^{-2 c s cos t} dt = 2 pi (-1)^k I_k(2 c s).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import iv

from bergreen import bergman
from bergreen.bergman import (
    ExtendedSuitaResult,
    HarmonicLog,
    HarmonicRe,
    MaxPiece,
    SuitaRatio,
    Unweighted,
    auto_basis,
    default_basis,
    evaluate_span,
    extended_suita_check,
    gram_matrix,
    kernel_diag,
    least_norm_extension,
    log_radial_moment,
    log_radial_moments,
    suita_ratio,
    weight_phi,
)
from bergreen.domains import (
    Annulus,
    Disc,
    gauss_legendre,
    green_evaluator,
    sample_interior,
)
from bergreen.errors import (
    AccuracyError,
    DivergentIntegralError,
    DomainError,
    TruncationError,
    ZeroKernelError,
)

DISC = Disc()
ANN = Annulus(0.2)


def disc_kernel(z: complex) -> float:
    return 1.0 / (math.pi * (1.0 - abs(z) ** 2) ** 2)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


class TestWeights:
    def test_densities_positive(self):
        zs = sample_interior(ANN, 16, seed=3)
        for w in [Unweighted(), HarmonicLog(0.3), MaxPiece(1.0, 0.5), HarmonicRe(0.2)]:
            rho = w.density(np.asarray(zs))
            assert np.all(rho > 0.0) and np.all(np.isfinite(rho))

    def test_weight_phi_matches_density(self):
        zs = np.asarray(sample_interior(ANN, 8, seed=4))
        for w in [HarmonicLog(0.3), MaxPiece(0.7, 0.4), HarmonicRe(-0.5)]:
            np.testing.assert_allclose(
                np.exp(-weight_phi(w, zs)), w.density(zs), rtol=1e-14
            )

    def test_maxpiece_phi_is_plateaued_log(self):
        w = MaxPiece(1.0, 0.5)
        # below |z| = a the exponent plateaus at (1+delta) log a^2
        inner = weight_phi(w, np.asarray([0.1 + 0.0j, 0.3j]))
        np.testing.assert_allclose(inner, 2.0 * 2.0 * math.log(0.5), rtol=1e-14)
        outer = weight_phi(w, np.asarray([0.8 + 0.0j]))
        np.testing.assert_allclose(outer, 2.0 * 2.0 * math.log(0.8), rtol=1e-14)

    def test_maxpiece_validation(self):
        with pytest.raises(DomainError):
            MaxPiece(0.0, 0.5)
        with pytest.raises(DomainError):
            MaxPiece(-1.0, 0.5)
        with pytest.raises(DomainError):
            MaxPiece(1.0, 0.0)
        with pytest.raises(DomainError):
            MaxPiece(1.0, 1.0)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


class TestGram:
    def test_disc_unweighted_diagonal(self):
        g = gram_matrix(DISC, Unweighted(), (0, 8))
        ns = np.arange(9)
        np.testing.assert_allclose(np.diag(g), np.pi / (ns + 1), rtol=1e-14)
        assert g[0, 0] == pytest.approx(math.pi, abs=1e-14)

    def test_annulus_log_mode(self):
        for r in [0.2, 0.5, 0.04]:
            g = gram_matrix(Annulus(r), Unweighted(), (-1, -1))
            assert g[0, 0] == pytest.approx(2.0 * math.pi * math.log(1.0 / r), rel=1e-14)

    def test_maxpiece_seven_pi(self):
        g = gram_matrix(DISC, MaxPiece(1.0, 0.5), (0, 0))
        assert g[0, 0] == pytest.approx(7.0 * math.pi, rel=1e-14)
        assert g[0, 0] == pytest.approx(21.99115, abs=5e-6)

    def test_radial_moments_vs_quadrature_oracle(self):
        cases = [
            (DISC, Unweighted(), range(0, 6), 0.0),
            (ANN, Unweighted(), range(-4, 5), 0.2),
            (DISC, HarmonicLog(0.3), range(0, 6), 0.0),
            (ANN, HarmonicLog(0.3), range(-4, 5), 0.2),
            (DISC, MaxPiece(1.0, 0.5), range(0, 6), 0.0),
            (ANN, MaxPiece(0.7, 0.45), range(-4, 5), 0.2),
        ]
        for domain, w, ns, lo in cases:
            for n in ns:
                val = math.exp(log_radial_moment(domain, w, n))

                def f(s):
                    return 2.0 * math.pi * s ** (2 * n + 1) * float(
                        w.density(np.asarray([s + 0.0j]))[0]
                    )

                # split at the MaxPiece corner for clean oracle quadrature
                pieces = [lo, 1.0]
                if isinstance(w, MaxPiece) and lo < w.a < 1.0:
                    pieces = [lo, w.a, 1.0]
                oracle = sum(
                    quad(f, a, b, epsabs=1e-13, epsrel=1e-13)[0]
                    for a, b in zip(pieces[:-1], pieces[1:])
                )
                assert val == pytest.approx(oracle, rel=1e-10), (w, n)

    def test_harmonic_re_gram_vs_bessel_oracle(self):
        c = 0.2
        ns = np.arange(-6, 7)
        g = gram_matrix(ANN, HarmonicRe(c), (-6, 6))
        for i, nio in enumerate(ns):
            for j, njo in enumerate(ns):
                k = int(nio - njo)
                p = float(nio + njo + 1)

                def f(s):
                    return s**p * 2.0 * math.pi * (-1.0) ** k * iv(k, 2.0 * c * s)

                v = quad(f, 0.2, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
                scale = math.sqrt(abs(g[i, i]) * abs(g[j, j]))
                assert abs(g[i, j] - v) / scale < 1e-10

    def test_gram_hermitian_positive_definite(self):
        g = gram_matrix(ANN, HarmonicRe(0.7), (-8, 8))
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
        evals = np.linalg.eigvalsh(g)
        assert np.all(evals > 0.0)

    def test_divergent_mode_raises(self):
        with pytest.raises(DivergentIntegralError):
            log_radial_moment(DISC, HarmonicLog(1.0), 0)
        with pytest.raises(DivergentIntegralError):
            gram_matrix(DISC, HarmonicLog(1.2), (0, 2))

    def test_disc_negative_mode_rejected(self):
        with pytest.raises(DomainError):
            gram_matrix(DISC, Unweighted(), (-1, 2))

    def test_float_range_guard_points_to_log_path(self):
        # A(0.04,1) default range has entries beyond float64; the matrix
        # builder refuses while the log-space kernel path works fine.
        with pytest.raises(DomainError):
            gram_matrix(Annulus(0.04), Unweighted(), (-200, 64))
        est = kernel_diag(Annulus(0.04), Unweighted(), 0.5, basis=(-200, 64))
        assert est.value > 0.0 and math.isfinite(est.value)

    def test_ill_conditioning_warning(self):
        with pytest.warns(RuntimeWarning, match="condition"):
            gram_matrix(DISC, HarmonicRe(10.0), (0, 24))

    def test_unresolved_quadrature_fails(self):
        # five doublings from 18 x 24 nodes cannot move the entries by
        # less than 1e-30; the last level is not returned
        with pytest.raises(AccuracyError, match="5 doubling"):
            gram_matrix(DISC, HarmonicRe(0.2), (0, 2), gram_tol=1e-30, quad_start=8)

    def test_nan_density_fails(self):
        with pytest.raises(AccuracyError, match="nan"):
            gram_matrix(DISC, HarmonicRe(math.nan), (0, 2), quad_start=8)


def _elementwise_gram(domain, weight, ns, n_rad=64, n_ang=256):
    """Direct product quadrature ``sum w rho z^{n_i} conj(z)^{n_j}`` over
    Gauss-Legendre x trapezoid nodes, entry by entry (no FFT, no GEMM)."""
    lo, hi = (0.0, 1.0) if isinstance(domain, Disc) else (domain.r_inner, 1.0)
    x, wq = gauss_legendre(n_rad)
    s = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    th = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    zs = (s[:, None] * np.exp(1j * th[None, :])).ravel()
    w = (0.5 * (hi - lo) * wq * s)[:, None] * np.full(n_ang, 2.0 * math.pi / n_ang)
    w = w.ravel() * weight.density(zs)
    gram = np.empty((ns.size, ns.size), dtype=complex)
    for i, ni in enumerate(ns):
        for j, nj in enumerate(ns):
            gram[i, j] = np.sum(w * zs**ni * np.conj(zs) ** nj)
    return gram


def _scaled_max_error(a, b):
    d = np.sqrt(np.abs(np.diag(b)))
    return float(np.max(np.abs(a - b) / np.outer(d, d)))


class TestGramQuadrature:
    """The (sum, difference) GEMM of ``_gram_quadrature`` against direct
    elementwise quadrature and against the closed-form radial moments."""

    @pytest.mark.parametrize("domain,basis", [(DISC, (0, 16)), (ANN, (-16, 16))])
    def test_matches_elementwise_reference(self, domain, basis):
        ns = np.arange(basis[0], basis[1] + 1)
        weight = HarmonicRe(0.2)
        gram = bergman._gram_quadrature(domain, weight, ns, 1e-10, 64)
        assert _scaled_max_error(gram, _elementwise_gram(domain, weight, ns)) < 1e-12

    @pytest.mark.parametrize("domain,basis", [(DISC, (0, 8)), (ANN, (-8, 8))])
    def test_radial_density_through_quadrature(self, domain, basis):
        ns = np.arange(basis[0], basis[1] + 1)
        gram = bergman._gram_quadrature(domain, Unweighted(), ns, 1e-10, 64)
        moments = np.exp([log_radial_moment(domain, Unweighted(), int(n)) for n in ns])
        np.testing.assert_allclose(np.diag(gram).real, moments, rtol=1e-12)
        assert _scaled_max_error(gram, np.diag(moments)) < 1e-12


class TestLogRadialMoments:
    """The array function agrees with the scalar one mode by mode, on every
    domain x weight branch of the closed form."""

    @pytest.mark.parametrize(
        "domain,weight,basis",
        [
            (DISC, Unweighted(), (0, 40)),
            (ANN, Unweighted(), (-40, 40)),  # p == 0 at n = -1
            (DISC, HarmonicLog(0.3), (0, 40)),
            (ANN, HarmonicLog(1.0), (-40, 40)),  # p == 0 at n = 0
            (ANN, HarmonicLog(-0.7, scale=2.5), (-40, 40)),
            (DISC, MaxPiece(1.0, 0.5), (0, 40)),  # both pieces, inner from 0
            (ANN, MaxPiece(0.7, 0.45), (-40, 40)),  # both pieces
            (ANN, MaxPiece(0.7, 0.1), (-40, 40)),  # outer piece only
            (Annulus(0.04), Unweighted(), (-400, 400)),
        ],
    )
    def test_matches_scalar_per_mode(self, domain, weight, basis):
        ns = np.arange(basis[0], basis[1] + 1)
        logs = log_radial_moments(domain, weight, ns)
        scalar = [log_radial_moment(domain, weight, int(n)) for n in ns]
        np.testing.assert_allclose(logs, scalar, rtol=1e-14, atol=1e-14)

    def test_p_zero_branch(self):
        logs = log_radial_moments(ANN, HarmonicLog(1.0), np.array([-1, 0, 1]))
        assert logs[1] == pytest.approx(math.log(2.0 * math.pi * math.log(5.0)), rel=1e-14)

    def test_divergent_disc_mode_raises(self):
        with pytest.raises(DivergentIntegralError):
            log_radial_moments(DISC, HarmonicLog(1.0), np.arange(0, 4))
        with pytest.raises(DivergentIntegralError):
            log_radial_moments(DISC, Unweighted(), np.array([-1]))

    def test_unsupported_inputs(self):
        with pytest.raises(DomainError):
            log_radial_moments(Disc(0.5), Unweighted(), np.arange(3))
        with pytest.raises(DomainError):
            log_radial_moments(ANN, HarmonicRe(0.2), np.arange(3))


# ---------------------------------------------------------------------------
# Kernel diagonal
# ---------------------------------------------------------------------------


class TestKernelDiag:
    def test_disc_center(self):
        est = kernel_diag(DISC, Unweighted(), 0.0)
        assert est.value == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert est.gram_condition >= 1.0
        assert est.truncation_error_estimate <= 1e-12

    def test_disc_closed_form(self):
        for z in [0.6, 0.3 + 0.2j, 0.6j]:
            est = kernel_diag(DISC, Unweighted(), z, basis=auto_basis(DISC, z))
            assert est.value == pytest.approx(disc_kernel(z), rel=1e-12)
        # the formula's own value is 0.7771243; the commonly quoted
        # rounding 0.777239 only holds to ~1e-4
        assert kernel_diag(DISC, Unweighted(), 0.6).value == pytest.approx(
            0.777239, abs=2e-4
        )

    def test_annulus_basis_doubling_stability(self):
        z = math.sqrt(0.2)
        b = auto_basis(ANN, z)
        k1 = kernel_diag(ANN, Unweighted(), z, basis=b).value
        k2 = kernel_diag(ANN, Unweighted(), z, basis=(2 * b[0], 2 * b[1])).value
        assert abs(k1 - k2) / k1 < 1e-7

    def test_basis_monotonicity(self):
        z = 0.45 + 0.3j
        prev = 0.0
        for hi in [8, 16, 32, 64]:
            cur = kernel_diag(
                ANN, Unweighted(), z, basis=(-hi, hi), trunc_tol=1.0
            ).value
            assert cur >= prev - 1e-12
            prev = cur

    def test_domain_monotonicity(self):
        for z in [0.5, 0.3 + 0.4j, -0.7, 0.25j - 0.5]:
            ka = kernel_diag(ANN, Unweighted(), z, basis=auto_basis(ANN, z)).value
            kd = kernel_diag(DISC, Unweighted(), z, basis=auto_basis(DISC, z)).value
            assert ka >= kd - 1e-9

    @pytest.mark.parametrize(
        "w1,w3",
        [
            (Unweighted(), Unweighted(3.0)),
            (HarmonicLog(0.3), HarmonicLog(0.3, 3.0)),
            (MaxPiece(1.0, 0.5), MaxPiece(1.0, 0.5, 3.0)),
            (HarmonicRe(0.2), HarmonicRe(0.2, 3.0)),
        ],
    )
    def test_weight_scaling(self, w1, w3):
        z = 0.5
        basis = (-12, 12)
        k1 = kernel_diag(ANN, w1, z, basis=basis, trunc_tol=1.0).value
        k3 = kernel_diag(ANN, w3, z, basis=basis, trunc_tol=1.0).value
        assert k3 == pytest.approx(k1 / 3.0, rel=1e-12)
        p1 = float(w1.density(np.asarray([z + 0j]))[0]) * k1
        p3 = float(w3.density(np.asarray([z + 0j]))[0]) * k3
        assert p3 == pytest.approx(p1, rel=1e-12)

    def test_near_boundary_log_space(self):
        z = 1.0 - 1e-4
        est = kernel_diag(ANN, Unweighted(), z, basis=auto_basis(ANN, z))
        # the inner hole's effect is negligible this close to the outer rim
        assert est.value == pytest.approx(disc_kernel(z), rel=1e-6)
        assert est.truncation_error_estimate < 1e-6

    def test_small_inner_radius_log_space(self):
        est = kernel_diag(Annulus(0.04), Unweighted(), 0.5)
        kd = kernel_diag(DISC, Unweighted(), 0.5, basis=(0, 64)).value
        assert math.isfinite(est.value) and est.value >= kd - 1e-9

    def test_truncation_gate(self):
        with pytest.raises(TruncationError):
            kernel_diag(DISC, Unweighted(), 0.9, basis=(0, 8))

    def test_zero_kernel(self):
        with pytest.raises(ZeroKernelError):
            kernel_diag(DISC, Unweighted(), 0.0, basis=(1, 4))

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(0.25, 0.9),
        t=st.floats(0.0, 2.0 * math.pi),
        lo=st.integers(4, 20),
    )
    def test_nested_bases_property(self, s, t, lo):
        z = s * complex(math.cos(t), math.sin(t))
        small = kernel_diag(ANN, Unweighted(), z, basis=(-lo, lo), trunc_tol=1.0)
        big = kernel_diag(
            ANN, Unweighted(), z, basis=(-2 * lo, 2 * lo), trunc_tol=1.0
        )
        assert small.value <= big.value + 1e-12

    def test_dense_condition_taken_once(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counted(*args, **kwargs):
            calls.append(1)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted)
        est = kernel_diag(ANN, HarmonicRe(0.2), 0.5, basis=(-8, 8), trunc_tol=1.0)
        assert len(calls) == 1
        gram = gram_matrix(ANN, HarmonicRe(0.2), (-8, 8))
        assert est.gram_condition == bergman._normalized_condition(gram)
        calls.clear()
        given_gram = kernel_diag(
            ANN, HarmonicRe(0.2), 0.5, basis=(-8, 8), trunc_tol=1.0, gram=gram
        )
        assert len(calls) == 1 and given_gram.gram_condition == est.gram_condition


# ---------------------------------------------------------------------------
# Least-norm extension
# ---------------------------------------------------------------------------


class TestLeastNorm:
    @pytest.mark.parametrize("delta,a", [(1.0, 0.5), (0.5, 0.3), (2.0, 0.7)])
    def test_maxpiece_constant_minimizer(self, delta, a):
        mn, coeffs = least_norm_extension(DISC, MaxPiece(delta, a), 0.0, 1.0)
        pred = math.pi * ((a ** (-2 * delta) - 1.0) / delta + a ** (-2 * delta))
        assert mn == pytest.approx(pred, rel=1e-12)
        # the minimizer is the constant function 1
        assert coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_zero_value(self):
        mn, coeffs = least_norm_extension(DISC, Unweighted(), 0.0, 0.0)
        assert mn == 0.0
        assert np.all(coeffs == 0.0)

    def test_disc_point_evaluation(self):
        mn, _ = least_norm_extension(DISC, Unweighted(), 0.6, 1.0)
        assert mn == pytest.approx(math.pi * (1.0 - 0.36) ** 2, rel=1e-12)
        assert mn == pytest.approx(1.28659, abs=3e-4)

    @pytest.mark.parametrize(
        "domain,weight,z0,value",
        [
            (DISC, Unweighted(), 0.3 + 0.2j, 2.0 - 1.0j),
            (ANN, Unweighted(), -0.5, 1.5j),
            (ANN, HarmonicLog(0.3), 0.4 + 0.3j, 1.0),
            (ANN, HarmonicRe(0.2), -0.5, 0.7 - 0.2j),
        ],
    )
    def test_reproducing_identity(self, domain, weight, z0, value):
        basis = (0, 24) if isinstance(domain, Disc) else (-24, 24)
        mn, coeffs = least_norm_extension(domain, weight, z0, value, basis=basis)
        est = kernel_diag(domain, weight, z0, basis=basis, trunc_tol=1.0)
        # minimum x kernel = |value|^2
        assert mn * est.value == pytest.approx(abs(value) ** 2, rel=1e-9)
        # the minimizer interpolates the prescribed value
        assert evaluate_span(coeffs, basis, z0) == pytest.approx(value, rel=1e-9)
        # and its Gram norm equals the reported minimum
        g = gram_matrix(domain, weight, basis)
        norm_sq = float(np.real(np.conj(coeffs) @ g @ coeffs))
        assert norm_sq == pytest.approx(mn, rel=1e-9)


# ---------------------------------------------------------------------------
# Suita ratio and extended check
# ---------------------------------------------------------------------------


class TestSuitaRatio:
    def test_disc_equality(self):
        for z in [0.0, 0.6, 0.3 + 0.2j]:
            s = suita_ratio(DISC, z)
            assert s.value == pytest.approx(1.0, abs=1e-12)
            assert not s.violation
            assert float(s) == s.value

    def test_disc_equality_nystrom_pipeline(self):
        ev = green_evaluator(Disc(), method="nystrom", quad_points=256)
        for z in [0.0, 0.3, 0.6j]:
            s = suita_ratio(DISC, z, evaluator=ev)
            assert s.value == pytest.approx(1.0, abs=1e-6)

    def test_annulus_strict(self):
        s = suita_ratio(ANN, math.sqrt(0.2))
        assert 1e-3 < s.value < 1.0 - 1e-5
        assert not s.violation

    def test_ratio_bounded_on_samples(self):
        for domain in [DISC, ANN]:
            for z in sample_interior(domain, 12, seed=11):
                s = suita_ratio(domain, z)
                assert 0.0 < s.value <= 1.0 + 1e-6
                assert not s.violation

    def test_structure(self):
        s = suita_ratio(ANN, 0.5)
        assert isinstance(s, SuitaRatio)
        assert s.capacity > 0
        assert s.kernel.value > 0


class TestExtendedSuita:
    def test_trivial_weight_equality_at_center(self):
        res = extended_suita_check(DISC, Unweighted(), 0.0)
        assert isinstance(res, ExtendedSuitaResult)
        assert abs(res.margin) < 1e-12
        assert res.passed

    def test_harmonic_log_annulus(self):
        res = extended_suita_check(ANN, HarmonicLog(0.3), math.sqrt(0.2))
        assert res.passed and res.margin > 0.0

    def test_harmonic_re_annulus(self):
        res = extended_suita_check(ANN, HarmonicRe(0.2), -0.5)
        assert res.passed

    def test_maxpiece_rejected(self):
        with pytest.raises(DomainError):
            extended_suita_check(DISC, MaxPiece(1.0, 0.5), 0.3)

    def test_trivial_weight_reduction_matches_ratio(self):
        # h == 0 reduces the extended margin to the plain ratio's data
        for z in [0.5, -0.5, 0.3 + 0.4j]:
            res = extended_suita_check(ANN, Unweighted(), z)
            s = suita_ratio(ANN, z)
            recon = res.capacity_sq / (res.margin + res.capacity_sq)
            assert recon == pytest.approx(s.value, abs=1e-9)

    @pytest.mark.parametrize(
        "weight", [HarmonicLog(0.3), HarmonicRe(0.2), HarmonicLog(-0.4)]
    )
    def test_margins_nonnegative_on_samples(self, weight):
        for z in sample_interior(ANN, 4, seed=5):
            res = extended_suita_check(ANN, weight, z)
            assert res.margin >= -1e-9
            assert res.passed


# ---------------------------------------------------------------------------
# Basis helpers
# ---------------------------------------------------------------------------


class TestBasisHelpers:
    def test_defaults(self):
        assert default_basis(DISC) == (0, 64)
        assert default_basis(ANN) == (-64, 64)

    def test_auto_basis_grows_near_boundary(self):
        b_mid = auto_basis(ANN, 0.5)
        b_edge = auto_basis(ANN, 0.999)
        assert b_edge[1] > b_mid[1]
        assert auto_basis(DISC, 0.1)[0] == 0

    def test_auto_basis_keeps_truncation_small(self):
        for z in [0.25, 0.5, 0.9, 0.3 + 0.6j]:
            est = kernel_diag(ANN, Unweighted(), z, basis=auto_basis(ANN, z))
            assert est.truncation_error_estimate < 1e-6
