"""Tests for weighted Bergman kernels, least-norm extensions, and ratio checks.

Oracles used here (tests only, never in library code):
  - closed-form disc kernel 1/(pi (1-|z|^2)^2),
  - the modal sum of ``kernel_diag`` over an explicit basis, for its
    closed-form (Lambert) route,
  - scipy.integrate.quad radial integrals for diagonal Gram entries,
  - ``oracles.dense_kernel``, the HarmonicRe kernel solved against the
    dense Gram of the monomials, for the closed form ``e^{2 c Re z} K``,
  - scipy.special.iv and mpmath.besseli for the HarmonicRe angular integrals:
        integral_0^{2pi} e^{i k t} e^{-2 c s cos t} dt = 2 pi (-1)^k I_k(2 c s),
  - ``_gram_quadrature``, a Gauss-Legendre x trapezoid product quadrature
    of any density, for the HarmonicRe Bessel-moment Gram of that oracle,
  - ``oracles.bessel_gram`` and ``oracles.jacobi_scaled``, the HarmonicRe
    Gram summed term by term and its Jacobi scaling, for the scaled Gram
    that ``oracles.scaled_bessel_gram`` builds in log space.
"""

import cmath
import json
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import iv

import oracles
from oracles import auto_basis, bessel_gram, harmonic_re_gram, jacobi_scaled
from bergreen import bergman, domains
from bergreen.cli import _sweep_points, main
from bergreen.bergman import (
    HarmonicLog,
    HarmonicRe,
    MaxPiece,
    Unweighted,
    default_basis,
    extended_suita_check,
    gram_matrix,
    kernel_diag,
    least_norm_extension,
    log_radial_moments,
    parse_weight,
    suita_ratio,
)
from bergreen.domains import (
    Annulus,
    Disc,
    capacity,
    gauss_legendre,
    green_evaluator,
    refine,
    sample_interior,
)
from bergreen.errors import (
    AccuracyError,
    DivergentIntegralError,
    DomainError,
    NonConvergenceError,
    TruncationError,
    ZeroKernelError,
)

DISC = Disc()
ANN = Annulus(0.2)


def _count(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call's arguments;
    returns the log."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _open_truncation_gate(monkeypatch):
    """Let ``kernel_diag`` pass every halved-basis change (at most 1 on
    nested bases), for the small bases below whose truncation its gate
    ``bergman._TRUNC_TOL`` refuses."""
    monkeypatch.setattr(bergman, "_TRUNC_TOL", 1.0)


def _condition(gram):
    """``oracles.normalized_condition`` of the Jacobi scaling of ``gram``."""
    return oracles.normalized_condition(jacobi_scaled(gram)[0])


def _scaled_gram(domain, c, basis):
    """``(corr, log d)`` of ``HarmonicRe(c)`` on a basis range, from the
    builder that ``oracles.dense_kernel`` solves with."""
    ns = np.arange(basis[0], basis[1] + 1)
    return oracles.scaled_bessel_gram(domain, HarmonicRe(c), ns)


def _complex_kernel_value(corr, bd):
    """``bd^H corr^{-1} bd`` by one complex LU solve."""
    return float(np.vdot(bd, np.linalg.solve(corr.astype(complex), bd)).real)


def disc_kernel(z: complex) -> float:
    return 1.0 / (math.pi * (1.0 - abs(z) ** 2) ** 2)


def log_radial_moment(domain, weight, n: int) -> float:
    """``log`` of ``integral_Omega |z|^{2n} rho dLambda`` for one mode ``n``."""
    return float(log_radial_moments(domain, weight, np.array([n]))[0])


def evaluate_span(coeffs: np.ndarray, basis: tuple[int, int], z):
    """Evaluate ``sum_n c_n z^n`` for a coefficient vector on a basis range."""
    ns = np.arange(basis[0], basis[1] + 1)
    z = np.asarray(z, dtype=complex)
    return z[..., None] ** ns @ coeffs


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


class TestWeights:
    def test_densities_positive(self):
        zs = sample_interior(ANN, 16, seed=3)
        for w in [Unweighted(), HarmonicLog(0.3), MaxPiece(1.0, 0.5), HarmonicRe(0.2)]:
            rho = np.exp(w.log_density(np.asarray(zs)))
            assert np.all(rho > 0.0) and np.all(np.isfinite(rho))

    def test_weight_phi_matches_density(self):
        # phi = -log(rho) is 2h for a weight from the harmonic h
        zs = np.asarray(sample_interior(ANN, 8, seed=4))
        for w, phi in [
            (HarmonicLog(0.3), 2.0 * 0.3 * np.log(np.abs(zs))),
            (HarmonicRe(-0.5), 2.0 * -0.5 * zs.real),
        ]:
            np.testing.assert_allclose(-w.log_density(zs), phi, rtol=1e-14)

    def test_maxpiece_phi_is_plateaued_log(self):
        w = MaxPiece(1.0, 0.5)
        # below |z| = a the exponent -log(rho) plateaus at (1+delta) log a^2
        inner = -w.log_density(np.asarray([0.1 + 0.0j, 0.3j]))
        np.testing.assert_allclose(inner, 2.0 * 2.0 * math.log(0.5), rtol=1e-14)
        outer = -w.log_density(np.asarray([0.8 + 0.0j]))
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

    def test_weight_specs(self):
        assert parse_weight("none") == Unweighted()
        assert parse_weight("harmoniclog:0.3").alpha == 0.3
        assert parse_weight("harmonicre:0.2").c == 0.2
        mp = parse_weight("maxpiece:1.0:0.5")
        assert mp.delta == 1.0 and mp.a == 0.5

    @pytest.mark.parametrize("spec", ["gauss", "harmoniclog:", "maxpiece:1.0"])
    def test_weight_rejects(self, spec):
        with pytest.raises(DomainError, match=spec):
            parse_weight(spec)


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
                    return 2.0 * math.pi * s ** (2 * n + 1) * math.exp(
                        w.log_density(np.asarray([s + 0.0j]))[0]
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
        g = harmonic_re_gram(ANN, HarmonicRe(c), (-6, 6))
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
        g = harmonic_re_gram(ANN, HarmonicRe(0.7), (-8, 8))
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
            oracles.dense_kernel(DISC, HarmonicRe(10.0), 0.1, basis=(0, 24))

    def test_unresolved_quadrature_fails(self):
        # the oracle quadrature: five doublings from 18 x 24 nodes cannot
        # move the entries by less than 1e-30; the last level is not returned
        with pytest.raises(AccuracyError, match="5 doubling"):
            _gram_quadrature(DISC, HarmonicRe(0.2), np.arange(3), gram_tol=1e-30, quad_start=8)

    def test_nan_density_fails(self):
        # the weight refuses a non-finite c, so the oracle sees one only
        # when the check is bypassed
        for c in (math.nan, math.inf):
            with pytest.raises(DomainError, match=rf"HarmonicRe\(c={c!r}\) requires a finite"):
                HarmonicRe(c)
            weight = object.__new__(HarmonicRe)
            object.__setattr__(weight, "c", c)
            with pytest.raises(AccuracyError, match=repr(c)):
                harmonic_re_gram(DISC, weight, (0, 2))

    def test_only_weight_specs(self):
        with pytest.raises(DomainError, match="RotatedRe"):
            gram_matrix(DISC, ROTATED, (0, 2))

    def test_non_radial_weight_has_no_gram(self):
        # HarmonicRe's kernel is the closed form e^{2c Re z} K: no Gram, no
        # modal sum over a basis range, no least-norm extension
        with pytest.raises(DomainError, match="non-radial"):
            gram_matrix(ANN, HarmonicRe(0.2), (-2, 2))
        with pytest.raises(DomainError, match="non-radial"):
            kernel_diag(ANN, HarmonicRe(0.2), 0.5, basis=(-8, 8))
        with pytest.raises(DomainError, match="non-radial"):
            least_norm_extension(ANN, HarmonicRe(0.2), 0.5, 1.0, basis=(-8, 8))


def _elementwise_gram(domain, weight, ns, n_rad=64, n_ang=256):
    """Direct product quadrature ``sum w rho z^{n_i} conj(z)^{n_j}`` over
    Gauss-Legendre x trapezoid nodes, entry by entry (no FFT, no GEMM)."""
    lo, hi = (0.0, 1.0) if isinstance(domain, Disc) else (domain.r_inner, 1.0)
    x, wq = gauss_legendre(n_rad)
    s = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    th = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    zs = (s[:, None] * np.exp(1j * th[None, :])).ravel()
    w = (0.5 * (hi - lo) * wq * s)[:, None] * np.full(n_ang, 2.0 * math.pi / n_ang)
    w = w.ravel() * np.exp(weight.log_density(zs))
    gram = np.empty((ns.size, ns.size), dtype=complex)
    for i, ni in enumerate(ns):
        for j, nj in enumerate(ns):
            gram[i, j] = np.sum(w * zs**ni * np.conj(zs) ** nj)
    return gram


def _gram_quadrature(domain, weight, ns, gram_tol=1e-10, quad_start=64):
    """The Gram of any density by Gauss-Legendre x trapezoid product
    quadrature: entry (i, j) is a cell of the table ``(w s^(sum + 1))^T
    FFT(rho)`` over the sums ``n_i + n_j`` and the differences ``n_j - n_i``,
    refined by ``domains.refine`` (up to 5 doublings) until the Jacobi-scaled
    entrywise change is at most ``gram_tol``."""
    lo, hi = (0.0, domain.radius) if isinstance(domain, Disc) else (domain.r_inner, 1.0)
    size = ns.size
    idx = np.arange(size)

    def compute(n_rad, n_ang):
        x, wq = gauss_legendre(n_rad)
        s = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * wq
        th = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
        rho = np.exp(weight.log_density(s[:, None] * np.exp(1j * th[None, :])))
        fft = np.fft.fft(rho, axis=1) * (2.0 * math.pi / n_ang)
        sums = 2 * ns[0] + np.arange(2 * size - 1)
        diffs = np.arange(1 - size, size)
        spow = ws[:, None] * s[:, None] ** (sums + 1)
        b = spow.T @ fft[:, diffs % n_ang]
        return b[idx[:, None] + idx[None, :], idx[None, :] - idx[:, None] + size - 1]

    def change(cur, prev):
        d = np.sqrt(np.abs(np.diag(cur)).real)
        return float(np.max(np.abs(cur - prev) / np.outer(d, d)))

    max_deg = int(np.max(np.abs(ns)))
    n_rad = max(quad_start, max_deg + 16)
    n_ang = max(quad_start, 4 * (2 * max_deg + 2))
    gram, _ = refine(lambda k: compute(n_rad << k, n_ang << k), change, gram_tol, doublings=5)
    return 0.5 * (gram + gram.conj().T)


def _scaled_max_error(a, b):
    d = np.sqrt(np.abs(np.diag(b)))
    return float(np.max(np.abs(a - b) / np.outer(d, d)))


class TestGramQuadrature:
    """The Bessel-moment Gram against direct elementwise quadrature, and the
    oracle quadrature and the zero-``c`` series against the closed-form
    radial moments."""

    @pytest.mark.parametrize("domain,basis", [(DISC, (0, 16)), (ANN, (-16, 16))])
    def test_matches_elementwise_reference(self, domain, basis):
        ns = np.arange(basis[0], basis[1] + 1)
        weight = HarmonicRe(0.2)
        gram = harmonic_re_gram(domain, weight, basis)
        assert _scaled_max_error(gram, _elementwise_gram(domain, weight, ns)) < 1e-12

    @pytest.mark.parametrize("domain,basis", [(DISC, (0, 8)), (ANN, (-8, 8))])
    def test_radial_density_through_quadrature(self, domain, basis):
        ns = np.arange(basis[0], basis[1] + 1)
        gram = _gram_quadrature(domain, Unweighted(), ns)
        moments = np.exp([log_radial_moment(domain, Unweighted(), int(n)) for n in ns])
        np.testing.assert_allclose(np.diag(gram).real, moments, rtol=1e-12)
        assert _scaled_max_error(gram, np.diag(moments)) < 1e-12

    @pytest.mark.parametrize("domain,basis", [(DISC, (0, 8)), (ANN, (-8, 8))])
    def test_zero_c_is_the_radial_diagonal(self, domain, basis):
        ns = np.arange(basis[0], basis[1] + 1)
        gram = harmonic_re_gram(domain, HarmonicRe(0.0), basis)
        moments = np.exp([log_radial_moment(domain, Unweighted(), int(n)) for n in ns])
        np.testing.assert_allclose(np.diag(gram), moments, rtol=1e-14)
        assert np.array_equal(gram, np.diag(np.diag(gram)))


@dataclass(frozen=True)
class RotatedRe:
    """Harmonic weight ``h = Re(c z)`` for complex ``c``, density
    ``exp(-2 Re(c z))``.  Unlike ``HarmonicRe`` (real ``c``) it is not even
    under ``z -> conj(z)``, so its Gram is complex.  ``gram_matrix`` does not
    take it; :func:`_series_gram` rotates the oracle Gram of
    ``HarmonicRe(|c|)``."""

    c: complex
    radial: ClassVar[bool] = False

    def log_density(self, z):
        return -2.0 * (self.c * np.asarray(z, dtype=complex)).real


ROTATED = RotatedRe(0.5 * cmath.exp(0.7j))


def _series_gram(domain, weight, basis):
    """``oracles.harmonic_re_gram`` for a ``HarmonicRe``; for
    ``RotatedRe(|c| e^{i phi})``,
    whose density is that of ``HarmonicRe(|c|)`` at ``e^{i phi} z``, the
    rotated Gram ``D M D^H`` with ``D = diag(e^{-i n phi})``, made exactly
    Hermitian."""
    if not isinstance(weight, RotatedRe):
        return harmonic_re_gram(domain, weight, basis)
    ns = np.arange(basis[0], basis[1] + 1)
    d = np.exp(-1j * ns * cmath.phase(weight.c))
    gram = d[:, None] * harmonic_re_gram(domain, HarmonicRe(abs(weight.c)), basis) * d.conj()
    return 0.5 * (gram + gram.conj().T)


def _svd_condition(gram):
    d = np.sqrt(np.abs(np.diag(gram)))
    return float(np.linalg.cond(gram / np.outer(d, d)))


class TestGramAgainstFullFft:
    """The Bessel-moment Gram, and its rotation for a weight not even under
    ``z -> conj(z)``, against the full complex FFT product quadrature, on
    bases of both size parities."""

    BASES = [(DISC, (0, 63)), (DISC, (0, 64)), (ANN, (-7, 8)), (ANN, (-8, 8))]

    @pytest.mark.parametrize("weight", [HarmonicRe(0.2), ROTATED])
    @pytest.mark.parametrize("domain,basis", BASES)
    def test_matches_full_fft_formula(self, domain, basis, weight):
        ns = np.arange(basis[0], basis[1] + 1)
        gram = _series_gram(domain, weight, basis)
        assert _scaled_max_error(gram, _gram_quadrature(domain, weight, ns)) <= 1e-11

    @pytest.mark.parametrize("weight", [HarmonicRe(0.2), ROTATED])
    @pytest.mark.parametrize("domain,basis", BASES)
    def test_exactly_hermitian_and_condition_matches_svd(self, domain, basis, weight):
        gram = _series_gram(domain, weight, basis)
        assert np.array_equal(gram, gram.conj().T)
        kappa = _condition(gram)
        assert kappa == pytest.approx(_svd_condition(gram), rel=1e-12)


def _besseli_entry(domain, c, m, n):
    """Gram entry ``(m, n)`` of ``HarmonicRe(c)`` as the 30-digit integral
    ``integral s^(m+n+1) 2 pi (-1)^k I_k(2 c s) ds``, ``k = |m - n|``."""
    lo, hi = (0, domain.radius) if isinstance(domain, Disc) else (domain.r_inner, 1)
    k = abs(m - n)
    with mpmath.workdps(30):
        return float(mpmath.quad(
            lambda s: s ** (m + n + 1) * 2 * mpmath.pi * (-1) ** k * mpmath.besseli(k, 2 * c * s),
            [lo, hi],
        ))


class TestBesselGram:
    """The series of ``oracles.scaled_bessel_gram``: entries, certified
    tail, guards, and the real solves on its real Gram."""

    @pytest.mark.parametrize(
        "domain,basis,c",
        [(ANN, (-3, 3), 0.2), (ANN, (-3, 3), -0.7), (DISC, (0, 5), 1.0), (Disc(0.5), (0, 4), 0.7)],
    )
    def test_matches_mpmath_besseli(self, domain, basis, c):
        # Jacobi-scaled; 4.1e-16 at worst when written
        ns = [int(n) for n in range(basis[0], basis[1] + 1)]
        gram = harmonic_re_gram(domain, HarmonicRe(c), basis)
        oracle = np.empty_like(gram)
        for i, m in enumerate(ns):
            for j, n in enumerate(ns[i:], start=i):
                oracle[i, j] = oracle[j, i] = _besseli_entry(domain, c, m, n)
        assert _scaled_max_error(gram, oracle) <= 1e-13

    @pytest.mark.parametrize("c", [0.2, 1.0, 3.0])
    def test_tail_bound_holds(self, c):
        exact = harmonic_re_gram(ANN, HarmonicRe(c), (-8, 8))
        for tol in (1e-2, 1e-5, 1e-9):
            cut = harmonic_re_gram(ANN, HarmonicRe(c), (-8, 8), gram_tol=tol)
            assert np.all(np.abs(cut - exact) <= tol * np.abs(exact))
        assert not np.array_equal(harmonic_re_gram(ANN, HarmonicRe(c), (-8, 8), gram_tol=1e-2), exact)

    def test_series_term_cap(self):
        with pytest.raises(AccuracyError, match="terms"):
            harmonic_re_gram(DISC, HarmonicRe(2.0), (0, 4), gram_tol=-1.0)

    def test_subnormal_entries_flushed(self):
        # the far off-diagonal entries fall like c^k/k! below the smallest
        # normal float; they are 0, not subnormal
        gram = harmonic_re_gram(ANN, HarmonicRe(0.2), (-128, 128))
        tiny = np.finfo(float).tiny
        assert np.all((gram == 0.0) | (np.abs(gram) >= tiny))
        assert np.any(gram == 0.0) and np.all(np.diag(gram) > 0.0)

    def test_float_range_guard(self):
        # 0.04^-254 exceeds the float range: refused, with no overflow warning
        with pytest.raises(DomainError, match="floating-point range"):
            harmonic_re_gram(Annulus(0.04), HarmonicRe(0.2), (-128, 128))

    @pytest.mark.parametrize(
        "domain,basis,c", [(ANN, (-128, 128), 0.2), (ANN, (-128, 128), 1.0), (DISC, (0, 128), 1.0)]
    )
    def test_matches_the_jacobi_scaled_oracle(self, domain, basis, c):
        # measured: corr within 7.8e-16 absolute and 8.4e-15 relative, log d
        # within one ulp of its largest modulus (202.5 on the annulus)
        ns = np.arange(basis[0], basis[1] + 1)
        lo = domain.r_inner if isinstance(domain, Annulus) else 0.0
        oracle, d = jacobi_scaled(bessel_gram(lo, c, ns))
        corr, log_d = _scaled_gram(domain, c, basis)
        kept = oracle != 0.0
        assert np.array_equal(corr != 0.0, kept)
        assert np.max(np.abs(corr - oracle)) <= 2e-15
        assert np.max(np.abs(corr[kept] / oracle[kept] - 1.0)) <= 2e-14
        assert np.max(np.abs(log_d - np.log(d))) <= 4 * np.spacing(np.max(np.abs(log_d)))

    def test_beyond_the_float_range(self):
        # the scaled Gram of (-128, 128) on annulus:0.04, whose unscaled
        # diagonal reaches e^817, and of (0, 534) on disc:2 (R^1070)
        eps = np.finfo(float).eps
        for domain, basis in [(Annulus(0.04), (-128, 128)), (Disc(2.0), (0, 534))]:
            corr, log_d = _scaled_gram(domain, 0.5, basis)
            assert np.all(np.isfinite(log_d)) and 2.0 * np.max(log_d) > 700.0
            assert np.max(np.abs(corr)) <= 1.0 + eps and np.allclose(np.diag(corr), 1.0, rtol=0, atol=eps)

    @pytest.mark.parametrize("z", [0.3 + 0.1j, -0.45, 0.5j])
    def test_real_solve_matches_complex_solve(self, z):
        corr, log_d = _scaled_gram(ANN, 0.2, (-16, 16))
        assert corr.dtype == np.float64
        bd = oracles.scaled_powers(z, np.arange(-16, 17), log_d)
        real = oracles.dense_kernel_value(corr, bd)
        assert real == pytest.approx(_complex_kernel_value(corr, bd), rel=1e-13)


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
            (ANN, HarmonicLog(-0.7), (-40, 40)),
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

    # (0.2, 0.5) is the inner piece of MaxPiece(., 0.5) on annulus:0.2, hi = a < 1
    @pytest.mark.parametrize("lo,hi", [(0.2, 1.0), (0.04, 1.0), (0.5, 1.0), (0.2, 0.5)])
    def test_power_integrals_match_mpmath(self, lo, hi):
        # log((hi^p - lo^p)/p) against 40 digits: across p = 0, past the
        # exponents where (lo/hi)^|p| underflows (|p| log(hi/lo) = 750), and
        # within 1e-12 of p = 0, where 1 - (lo/hi)^|p| cancels; the bound is
        # a few ulps of the terms summed
        cut = 750.0 / math.log(hi / lo)
        small = np.array([1e-12, 1e-9, 1e-6, 0.37])
        p = np.concatenate([
            np.linspace(-2.0 * cut, 2.0 * cut, 401),  # holds p = 0
            cut * (1.0 + np.linspace(-1e-9, 1e-9, 5)),
            -cut * (1.0 + np.linspace(-1e-9, 1e-9, 5)),
            small, -small,
        ])
        got = bergman._log_power_integrals(p, lo, hi)
        with mpmath.workdps(40):
            mlo, mhi = mpmath.mpf(lo), mpmath.mpf(hi)
            for pk, value in zip(p, got):
                if pk == 0.0:
                    exact = mpmath.log(mpmath.log(mhi / mlo))
                else:
                    mp = mpmath.mpf(pk)
                    exact = mpmath.log((mhi**mp - mlo**mp) / mp)
                leading = abs(pk * math.log(hi if pk > 0.0 else lo))
                bound = 8.0 * np.finfo(float).eps * (1.0 + leading + 2.0 * abs(math.log(abs(pk) or 1.0)))
                assert abs(value - float(exact)) <= bound, (pk, value, float(exact))

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
            log_radial_moments(ANN, HarmonicRe(0.2), np.arange(3))

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("weight", [Unweighted(), HarmonicLog(0.4)])
    def test_disc_of_any_radius_scales_the_unit_moments(self, radius, weight):
        # z = R w: the moment of |z|^(2n) |z|^(-2 alpha) gains R^(2n + 2 - 2 alpha)
        ns = np.arange(0, 41)
        alpha = getattr(weight, "alpha", 0.0)
        unit = log_radial_moments(DISC, weight, ns)
        got = log_radial_moments(Disc(radius), weight, ns)
        scaled = unit + (2 * ns + 2 - 2 * alpha) * math.log(radius)
        np.testing.assert_allclose(got, scaled, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Kernel diagonal
# ---------------------------------------------------------------------------


class TestKernelDiag:
    def test_disc_center(self):
        est = kernel_diag(DISC, Unweighted(), 0.0)
        assert est.value == pytest.approx(1.0 / math.pi, rel=1e-14)
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

    def test_basis_monotonicity(self, monkeypatch):
        _open_truncation_gate(monkeypatch)
        z = 0.45 + 0.3j
        prev = 0.0
        for hi in [8, 16, 32, 64]:
            cur = kernel_diag(ANN, Unweighted(), z, basis=(-hi, hi)).value
            assert cur >= prev - 1e-12
            prev = cur

    def test_domain_monotonicity(self):
        for z in [0.5, 0.3 + 0.4j, -0.7, 0.25j - 0.5]:
            ka = kernel_diag(ANN, Unweighted(), z, basis=auto_basis(ANN, z)).value
            kd = kernel_diag(DISC, Unweighted(), z, basis=auto_basis(DISC, z)).value
            assert ka >= kd - 1e-9

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
        with pytest.MonkeyPatch.context() as mp:
            _open_truncation_gate(mp)
            small = kernel_diag(ANN, Unweighted(), z, basis=(-lo, lo))
            big = kernel_diag(ANN, Unweighted(), z, basis=(-2 * lo, 2 * lo))
        assert small.value <= big.value + 1e-12


class TestClosedFormKernel:
    """``kernel_diag`` without a basis: the Lambert form on annuli and the
    rational form on the disc, against the modal sum on ``auto_basis``."""

    CASES = [
        (domain, weight)
        for domain in (ANN, Annulus(0.04), DISC)
        for weight in (
            Unweighted(),
            HarmonicLog(0.3),
            HarmonicLog(-0.4),
            HarmonicLog(0.77),
            HarmonicLog(-0.7),
            HarmonicLog(1.0),
        )
        if isinstance(domain, Annulus) or weight.__class__ is Unweighted or weight.alpha < 1.0
    ]

    @pytest.mark.parametrize("domain,weight", CASES)
    def test_matches_modal_sum(self, domain, weight):
        # 4.5e-14 at worst when written, at |z| = 1.01 r on annulus:0.04
        lo = getattr(domain, "r_inner", 0.0)
        for s in [1.01 * lo, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-4]:
            z = s * cmath.exp(0.4j)
            est = kernel_diag(domain, weight, z)
            modal = kernel_diag(domain, weight, z, basis=auto_basis(domain, z)).value
            assert est.value == pytest.approx(modal, rel=1e-12), (s, est.value, modal)

    @pytest.mark.parametrize("weight", [Unweighted(), HarmonicLog(0.3)], ids=["none", "harmoniclog"])
    def test_thin_annulus_matches_modal_sum(self, weight):
        # r = 2.2e-86, where q^(1 + p) underflows to 0: the term count comes
        # from log q, and the value still meets the explicit-basis modal sum
        # (6e-14 at worst when written)
        thin = Annulus(2.2e-86)
        for z in [1.5e-43, 0.5, 1e-85, 3e-86j]:
            est = kernel_diag(thin, weight, z)
            modal = kernel_diag(thin, weight, z, basis=(-64, 64)).value
            assert est.value == pytest.approx(modal, rel=1e-12), (z, est.value, modal)

    @pytest.mark.parametrize("alpha", ["1e-9", "0.999999999", "-2.000000001"])
    def test_near_integer_alpha(self, alpha):
        # a mode p = n + 1 - alpha near 0 is summed alone, so the series
        # still start at exponents >= 1; a 40-digit modal sum is the oracle
        for s in [0.3, 0.95]:
            with mpmath.workdps(40):
                a, r, x = mpmath.mpf(alpha), mpmath.mpf(0.2), mpmath.mpf(s) ** 2
                total = 0
                for n in range(-400, 401):
                    p = n + 1 - a
                    total += x**n * p / (mpmath.pi * (1 - r ** (2 * p)))
            est = kernel_diag(ANN, HarmonicLog(float(alpha)), s)
            assert est.value == pytest.approx(float(total), rel=1e-14)
            assert est.basis_size <= 40

    @pytest.mark.parametrize("alpha", [1.0 - 1e-9, 1e-9, -2.0 + 1e-9])
    def test_modal_sum_near_integer_alpha(self, alpha):
        # the modal sum's moment of the mode near p = 0 takes 1 - r^(2p)
        # through expm1, so it keeps the digits that the difference cancels
        weight = HarmonicLog(alpha)
        modal = kernel_diag(ANN, weight, 0.3, basis=auto_basis(ANN, 0.3)).value
        closed = kernel_diag(ANN, weight, 0.3).value
        assert abs(modal - closed) <= 1e-13 * closed

    @pytest.mark.parametrize("domain", [ANN, Annulus(0.04), Annulus(0.8)])
    def test_certified_tail(self, domain):
        # a few dozen terms at most, whatever |z| is, with a tail below
        # a unit roundoff
        for s in [1.0001 * domain.r_inner, 0.9, 1.0 - 1e-6]:
            est = kernel_diag(domain, HarmonicLog(0.3), s)
            assert est.truncation_error_estimate <= 2.0**-53
            assert est.basis_size <= 200

    def test_disc_rational_form(self):
        for z in [0.0, 0.6, 0.3 + 0.2j, 1.0 - 1e-4]:
            est = kernel_diag(DISC, Unweighted(), z)
            om = (1.0 - abs(z)) * (1.0 + abs(z))
            assert est.log_value == pytest.approx(math.log(1.0 / (math.pi * om * om)), rel=4e-16)
            assert est.basis_size == 1 and est.truncation_error_estimate == 0.0
        assert kernel_diag(DISC, HarmonicLog(0.3), 0.0).value == pytest.approx(
            0.7 / math.pi, rel=1e-15
        )

    def test_term_count_cap(self, monkeypatch):
        # next to r = 1 a series takes about log(2^60 / (1 - q^2)) / (2 (1 - q))
        # terms: 1.4e8 on annulus:0.9999999, some 1.1 GB an array, which is
        # refused before any array is formed
        arange = np.arange

        def capped_arange(n, *args, **kwargs):
            assert n <= domains._MAX_TERMS, f"an array of {n} terms was formed"
            return arange(n, *args, **kwargs)

        monkeypatch.setattr(np, "arange", capped_arange)
        with pytest.raises(NonConvergenceError, match=r"needs 140801574 .* cap of 4000000$"):
            kernel_diag(Annulus(0.9999999), Unweighted(), 0.99999995)
        est = kernel_diag(Annulus(0.99999), Unweighted(), 0.999995)
        assert est.basis_size == 2_585_765
        assert est.truncation_error_estimate <= 2.0**-60

    def test_points_outside_rejected(self):
        for domain, z in [(DISC, 1.0), (DISC, 1.5j), (ANN, 0.2), (ANN, 0.1), (ANN, 0.0)]:
            with pytest.raises(DomainError, match="not inside"):
                kernel_diag(domain, Unweighted(), z)

    def test_divergent_disc_weight(self):
        with pytest.raises(DivergentIntegralError):
            kernel_diag(DISC, HarmonicLog(1.0), 0.3)
        with pytest.raises(DivergentIntegralError):
            kernel_diag(Disc(2.0), HarmonicLog(1.0), 0.3)

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("weight", [Unweighted(), HarmonicLog(0.4), HarmonicLog(-0.7)])
    def test_disc_of_any_radius(self, radius, weight):
        # K_R(z) = R^(2 alpha - 2) K_1(z / R), and the modal sum agrees; 1.9e-15
        # and 1.5e-15 at worst when written
        alpha = getattr(weight, "alpha", 0.0)
        for s in [0.0, 0.3, 0.6, 0.9]:
            z = radius * s * cmath.exp(0.4j)
            est = kernel_diag(Disc(radius), weight, z)
            law = kernel_diag(DISC, weight, z / radius).value * radius ** (2.0 * alpha - 2.0)
            modal = kernel_diag(Disc(radius), weight, z, basis=(0, 400)).value
            assert est.value == pytest.approx(law, rel=4e-15)
            assert est.value == pytest.approx(modal, rel=4e-15)
        with pytest.raises(DomainError, match="not inside"):
            kernel_diag(Disc(radius), weight, 1.0001 * radius)


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
    def test_reproducing_identity(self, domain, weight, z0, value, monkeypatch):
        _open_truncation_gate(monkeypatch)
        basis = (0, 24) if isinstance(domain, Disc) else (-24, 24)
        if weight.radial:
            mn, coeffs = least_norm_extension(domain, weight, z0, value, basis=basis)
            kernel = kernel_diag(domain, weight, z0, basis=basis).value
            g = gram_matrix(domain, weight, basis)
        else:
            # the library takes HarmonicRe in closed form only; the oracle's
            # dense route solves on the basis, and meets that closed form
            mn, coeffs = oracles.dense_least_norm(domain, weight, z0, value, basis)
            kernel = oracles.dense_kernel(domain, weight, z0, basis)[0].value
            g = harmonic_re_gram(domain, weight, basis)
            assert kernel == pytest.approx(kernel_diag(domain, weight, z0).value, rel=1e-12)
        # minimum x kernel = |value|^2
        assert mn * kernel == pytest.approx(abs(value) ** 2, rel=1e-9)
        # the minimizer interpolates the prescribed value
        assert evaluate_span(coeffs, basis, z0) == pytest.approx(value, rel=1e-9)
        # and its Gram norm equals the reported minimum
        norm_sq = float(np.real(np.conj(coeffs) @ g @ coeffs))
        assert norm_sq == pytest.approx(mn, rel=1e-9)


# ---------------------------------------------------------------------------
# Suita ratio and extended check
# ---------------------------------------------------------------------------


class TestSuitaRatio:
    def test_disc_equality(self):
        for z in [0.0, 0.6, 0.3 + 0.2j]:
            s = suita_ratio(DISC, z)
            assert s.quantities["ratio"] == pytest.approx(1.0, abs=1e-12)
            assert s.passed

    def test_disc_equality_to_rounding(self):
        # Suita's equality case: the closed-form kernel and the disc
        # capacity, both on (1 - |z|)(1 + |z|), agree to 8 eps
        eps = np.finfo(float).eps
        for z in [0.0, 0.3, 0.5j, -0.4 + 0.3j, 0.7, 1.0 - 1e-4]:
            ratio = suita_ratio(DISC, z).quantities["ratio"]
            assert abs(ratio - 1.0) <= 8.0 * eps, (z, ratio)
        assert suita_ratio(DISC, 0.3).quantities["ratio"] == 1.0

    def test_disc_equality_nystrom_pipeline(self, monkeypatch):
        # the record's capacity taken by the Nystrom method instead
        ev = green_evaluator(Disc(), method="nystrom")
        monkeypatch.setattr(bergman, "green_evaluator", lambda domain: ev)
        for z in [0.0, 0.3, 0.6j]:
            s = suita_ratio(DISC, z)
            assert s.quantities["ratio"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_disc_equality_on_any_radius(self, radius):
        for s in [0.0, 0.25, 0.6, 0.95]:
            z = radius * s * cmath.exp(1.3j)
            rec = suita_ratio(Disc(radius), z)
            assert abs(rec.quantities["ratio"] - 1.0) <= 8.0 * np.finfo(float).eps, z
            assert rec.passed

    def test_annulus_strict(self):
        s = suita_ratio(ANN, math.sqrt(0.2))
        assert 1e-3 < s.quantities["ratio"] < 1.0 - 1e-5
        assert s.passed

    def test_ratio_bounded_on_samples(self):
        for domain in [DISC, ANN]:
            for z in sample_interior(domain, 12, seed=11):
                s = suita_ratio(domain, z)
                assert 0.0 < s.quantities["ratio"] <= 1.0 + 1e-6
                assert s.passed

    @pytest.mark.parametrize("r", [0.9995, 0.9999])
    def test_thin_rings_pass_on_rounding(self, r):
        # next to r = 1 the factors 1 - q^k y of both series lose digits to
        # cancellation: margins fall to -6e-13 at 0.9999, within the
        # tolerance's eps/(1 - r^2) term (1.8e-12 and 8.9e-12)
        for f in (1e-7, 1e-4, 0.5, 0.9999):
            s = r + f * (1.0 - r)
            for z in (s, -s * 1j):
                assert suita_ratio(Annulus(r), z).passed, (r, z)

    @pytest.mark.parametrize("z", [0.5, 0.25 + 0.3j, 0.7j, 0.45 + 0.2j, -0.6 + 0.1j])
    def test_curvature_identity_ties_the_closed_forms(self, z):
        # Suita: Delta log c_beta = 4 pi K on the annulus, the Laplacian of
        # the prime-function capacity by the Richardson 5-point stencil
        # (4 L(h) - L(2h)) / 3 against the Lambert-series kernel
        robin = green_evaluator(ANN).robin

        def lap(h):
            ring = sum(robin(z + h * u) for u in (1, -1, 1j, -1j))
            return (ring - 4.0 * robin(z)) / (h * h)

        h = 2e-3
        kernel = bergman._closed_form_kernel(ANN, Unweighted(), z).value
        assert abs((4.0 * lap(h) - lap(2.0 * h)) / 3.0 / (4.0 * math.pi * kernel) - 1.0) <= 1e-7

    def test_structure(self):
        s = suita_ratio(ANN, 0.5)
        q = s.quantities
        assert s.primary == "ratio" and q["log_rho"] == 0.0
        assert q["margin"] == math.log(math.pi) + q["log_kernel"] - 2.0 * q["log_capacity"]
        assert q["ratio"] == math.exp(-q["margin"])
        assert s.margins == {"upper": q["margin"]}


class TestExtendedSuita:
    def test_trivial_weight_equality_at_center(self):
        res = extended_suita_check(DISC, Unweighted(), 0.0)
        assert res.primary == "margin"
        assert abs(res.quantities["margin"]) < 1e-12
        assert res.passed

    def test_harmonic_log_annulus(self):
        res = extended_suita_check(ANN, HarmonicLog(0.3), math.sqrt(0.2))
        assert res.passed and res.quantities["margin"] > 0.0

    def test_harmonic_re_annulus(self):
        res = extended_suita_check(ANN, HarmonicRe(0.2), -0.5)
        assert res.passed

    def test_maxpiece_rejected(self):
        with pytest.raises(DomainError):
            extended_suita_check(DISC, MaxPiece(1.0, 0.5), 0.3)

    @pytest.mark.parametrize("alpha", [-0.4, 0.3])
    def test_harmonic_log_rejected_on_the_disc(self, alpha):
        # alpha log|z| has a pole at 0, so the theorem says nothing on a disc
        with pytest.raises(DomainError, match="pole at 0"):
            extended_suita_check(DISC, HarmonicLog(alpha), 0.3)
        # the kernel alone stays available
        assert kernel_diag(DISC, HarmonicLog(alpha), 0.3).value > 0.0

    def test_trivial_weight_reduction_matches_ratio(self):
        # h == 0 reduces the extended record to the plain one
        for z in [0.5, -0.5, 0.3 + 0.4j]:
            q = extended_suita_check(ANN, Unweighted(), z).quantities
            assert q == suita_ratio(ANN, z).quantities

    @pytest.mark.parametrize(
        "weight", [HarmonicLog(0.3), HarmonicRe(0.2), HarmonicLog(-0.4)]
    )
    def test_margins_nonnegative_on_samples(self, weight):
        for z in sample_interior(ANN, 4, seed=5):
            res = extended_suita_check(ANN, weight, z)
            assert res.quantities["margin"] >= -1e-9
            assert res.passed


class TestDiscEqualityOracle:
    """The disc is simply connected, so ``c_beta(z)^2 = pi rho(z) K_rho(z, z)``
    for every harmonic weight: an exact oracle for the closed-form
    ``HarmonicRe`` record and for the oracle's dense Bessel-moment solve,
    and, through the rotated Gram of :func:`_series_gram` and a complex
    solve, for that Gram's rotation."""

    @staticmethod
    def _ratios(weight, z):
        basis = auto_basis(DISC, z)
        corr, d = jacobi_scaled(_series_gram(DISC, weight, basis))
        kernel = _complex_kernel_value(corr, z ** np.arange(basis[0], basis[1] + 1) / d)
        rho = math.exp(weight.log_density(z))
        ratios = [capacity(DISC, z) ** 2 / (math.pi * rho * kernel)]
        if not isinstance(weight, RotatedRe):
            ratios.append(extended_suita_check(DISC, weight, z).quantities["ratio"])
        return ratios

    @pytest.mark.parametrize(
        "weight", [HarmonicRe(0.2), HarmonicRe(0.5), HarmonicRe(1.0), ROTATED]
    )
    def test_harmonic_weight_is_an_equality(self, weight):
        for z in [0.0, 0.3, 0.5j, -0.4 + 0.3j, 0.7]:
            for ratio in self._ratios(weight, complex(z)):
                assert abs(ratio - 1.0) <= 1e-12, (weight, z, ratio)


# (domain, c, z) of the closed form against the dense oracle
_ORACLE_POINTS = [0.3, 0.25 + 0.3j, -0.5 + 0.2j, 0.9j, 0.45 - 0.6j, 0.21]
_ORACLE_CASES = [
    *[(ANN, c, z) for c in (0.2, 0.7, 1.0, -1.5) for z in _ORACLE_POINTS],
    *[(DISC, c, z) for c in (0.5, 1.0, 3.0) for z in _ORACLE_POINTS],
    (Disc(2.0), 0.5, 1.9),
    (Annulus(0.04), 0.2, 0.05),
    (Annulus(0.04), 0.2, 0.5),
]


def _oracle_tolerance(domain, c):
    """The bound on ``|K / K_dense - 1|``: 4e-15 (3.1e-15 at worst when
    written, at -0.5+0.2i on annulus:0.2 at c = -1.5), and 4e-13 on the unit
    disc at c = 3, where the dense Gram's condition is 1.5e5 and its solve
    keeps fewer digits (2.1e-13 at worst when written)."""
    return 4e-13 if domain == DISC and c == 3.0 else 4e-15


def _oracle_misses():
    """The cases where ``kernel_diag``'s closed form leaves the dense
    oracle's value by more than :func:`_oracle_tolerance`."""
    misses = []
    for domain, c, z in _ORACLE_CASES:
        dense, _ = oracles.dense_kernel(domain, HarmonicRe(c), z)
        assert dense.truncation_error_estimate < 1e-9
        value = kernel_diag(domain, HarmonicRe(c), z).value
        if not abs(value / dense.value - 1.0) <= _oracle_tolerance(domain, c):
            misses.append((domain, c, z, value, dense.value))
    return misses


# wrong weight exponents in place of 2c Re z: each must fail the oracle
# comparison and one of `all`'s harmonicre:0.2 records
_WITNESS_FACTORS = {
    "sign_flipped": lambda c, x: -2.0 * c * x,
    "factor_two_dropped": lambda c, x: c * x,
}


class TestHarmonicReClosedForm:
    """``K_rho(z, z) = e^{2 c Re z} K(z, z)`` for ``rho = e^{-2 c Re z}``
    against the dense Gram of the monomials, solved at test time by
    ``oracles.dense_kernel``; and two wrong factors that the comparison and
    ``all``'s records both refuse."""

    def test_matches_the_dense_oracle(self):
        assert _oracle_misses() == []

    def test_reports_the_unweighted_terms_and_tail(self):
        for domain, z in [(ANN, 0.3), (DISC, 0.5j), (Annulus(0.04), 0.05)]:
            est = kernel_diag(domain, HarmonicRe(0.7), z)
            plain = kernel_diag(domain, Unweighted(), z)
            assert est.log_value == plain.log_value + 1.4 * z.real
            assert (est.basis_size, est.truncation_error_estimate) == (
                plain.basis_size, plain.truncation_error_estimate
            )

    def test_suita_margin_is_the_unweighted_one(self):
        # rho K_rho = K, so the margin is Suita's to the rounding of the
        # sums log rho + 2c Re z + log pi K, a few ulps of log pi K
        for z in _sweep_points(ANN, 4):
            weighted = extended_suita_check(ANN, HarmonicRe(0.2), z).quantities["margin"]
            plain = extended_suita_check(ANN, Unweighted(), z).quantities
            log_pi_kernel = math.log(math.pi) + plain["log_kernel"]
            bound = 4.0 * np.finfo(float).eps * max(1.0, abs(log_pi_kernel))
            assert abs(weighted - plain["margin"]) <= bound

    @pytest.mark.parametrize("witness", sorted(_WITNESS_FACTORS))
    def test_a_wrong_factor_fails_the_oracle_and_the_records(self, witness, monkeypatch):
        factor = _WITNESS_FACTORS[witness]

        def wrong(domain, weight, z):
            est = bergman._closed_form_kernel(domain, Unweighted(), z)
            return replace(est, log_value=est.log_value + factor(weight.c, complex(z).real))

        monkeypatch.setattr(bergman, "_harmonic_re_kernel", wrong)
        assert _oracle_misses()
        records = [extended_suita_check(ANN, HarmonicRe(0.2), z) for z in _sweep_points(ANN, 4)]
        assert not all(rec.passed for rec in records)


class TestFloatRange:
    """``HarmonicRe`` where a dense Gram left the float range (the four
    default points of ``annulus:0.04``, whose unscaled Gram reached
    ``e^817``, and ``disc:2`` at 1.9, whose basis reached (0, 534)), and
    where ``rho(z)`` or ``K_rho(z, z)`` itself leaves it, as a
    ``HarmonicLog`` kernel can too."""

    def test_thin_annulus(self):
        domain = Annulus(0.04)
        for z in _sweep_points(domain, 4):
            q = extended_suita_check(domain, HarmonicRe(0.2), z).quantities
            assert q["margin"] > 0.0 and q["truncation_error"] <= 2.0**-53
            assert q["basis_size"] == 11

    def test_disc_of_radius_two(self):
        rec = extended_suita_check(Disc(2.0), HarmonicRe(0.5), 1.9)
        q = rec.quantities
        assert rec.passed and q["basis_size"] == 1 and q["truncation_error"] == 0.0
        # the disc is simply connected: an equality
        assert abs(q["ratio"] - 1.0) <= 4.0 * np.finfo(float).eps

    def test_weight_beyond_the_float_range_gets_a_margin(self):
        # 2c Re z = -720 and 720: rho = e^720 and K_rho = e^720 K leave the
        # float range, but their logs do not, and rho K_rho = K: the margin is
        # the unweighted one to a few ulps of |log rho| = 720
        for z in (-0.9, 0.9, 0.5j):
            rec = extended_suita_check(ANN, HarmonicRe(400.0), z)
            plain = suita_ratio(ANN, z).quantities["margin"]
            assert rec.passed
            assert abs(rec.quantities["margin"] - plain) <= 4.0 * np.finfo(float).eps * 720.0

    def test_kernel_beyond_the_float_range_is_refused(self):
        # |2c Re z| = 708 keeps K_rho = e^(+-708) K normal for K = 1.27
        # (annulus:0.2 at |z| = 0.5) and for K = 0.091 (disc:2 at 0.5); it
        # overflows for K = 8.98 (annulus:0.2 at 0.9) and is subnormal for
        # K = 0.091 at -0.5, where only the value, not its log, is refused
        tiny = np.finfo(float).tiny
        for domain, c, z in [(ANN, 708.0, 0.5), (ANN, 708.0, -0.5), (Disc(2.0), 708.0, 0.5)]:
            assert tiny <= kernel_diag(domain, HarmonicRe(c), z).value < math.inf
        for domain, c, z in [(ANN, 708.0 / 1.8, 0.9), (Disc(2.0), 708.0, -0.5)]:
            est = kernel_diag(domain, HarmonicRe(c), z)
            assert abs(est.log_value) > 708.0
            with pytest.raises(DomainError, match="floating-point range"):
                est.value

    def test_harmoniclog_kernel_beyond_the_float_range_is_refused(self):
        # K_rho = 4.5e-540 at 0.21 for alpha = 400 (40-digit mpmath), which
        # rounds to 0.0: its log is kept, its value refused; 2.6e-308 at 0.5
        # for alpha = 511.05 is still normal
        est = kernel_diag(ANN, HarmonicLog(400.0), 0.21)
        assert est.log_value == pytest.approx(math.log(4.5) - 540.0 * math.log(10.0), abs=0.02)
        with pytest.raises(DomainError, match="floating-point range"):
            est.value
        value = kernel_diag(ANN, HarmonicLog(511.05), 0.5).value
        assert np.finfo(float).tiny <= value == pytest.approx(2.64e-308, rel=1e-3)


    @pytest.mark.parametrize("alpha", [1e-20, -1e-20, 2.5e-22])
    def test_alpha_below_an_ulp_of_one(self, alpha):
        # alpha + 1 - ceil(alpha) rounds to 0 for 0 < alpha < eps/2, and the
        # mode -p- then divided 0 by 0; the kernel is continuous at alpha = 0
        for z in (0.21, 0.5, -0.9j):
            est = kernel_diag(ANN, HarmonicLog(alpha), z)
            plain = kernel_diag(ANN, Unweighted(), z)
            assert est.log_value == pytest.approx(plain.log_value, rel=1e-15)
            assert extended_suita_check(ANN, HarmonicLog(alpha), z).passed


def _mp_suita_logs(r, s):
    """``(log K, margin)`` of the unweighted annulus ``r < |z| < 1`` at
    ``|z| = s``, at 40 digits: the modal sum ``pi K = sum_{n != -1} (n + 1)
    x^n / (1 - q^(n+1)) + 1 / (2 x log(1/r))`` and the prime-function
    ``log c_beta``, both summed until their terms fall below 1e-45."""
    with mpmath.workdps(40):
        r, s = mpmath.mpf(r), mpmath.mpf(s)
        q, x = r * r, s * s
        pi_k = 1 / (2 * x * mpmath.log(1 / r))
        for base in (x, q / x):  # modes n >= 0, and n <= -2 as (q/x)^p / x
            p = 1
            while True:
                term = p * base ** (p - 1) / (1 - q**p) * (1 if base == x else base / x)
                pi_k += term
                if term < pi_k * mpmath.mpf(10) ** -45:
                    break
                p += 1
        log_c = -mpmath.log((1 - s) * (1 + s)) - mpmath.log(s) ** 2 / mpmath.log(r)
        k = 1
        while True:
            term = mpmath.log1p(q**k * (1 / s - s) ** 2 / ((1 - q**k * x) * (1 - q**k / x)))
            log_c += term
            if term < mpmath.mpf(10) ** -45:
                break
            k += 1
        return float(mpmath.log(pi_k / mpmath.pi)), float(mpmath.log(pi_k) - 2 * log_c)


class TestLogSpaceOracle:
    """The log kernel and the log margin where ``x = |z|^2``, ``c_beta`` or
    ``K`` leave the float range, against 40-digit mpmath sums."""

    @pytest.mark.parametrize(
        "r,s", [(1e-300, 1e-299), (1e-300, 1e-200), (1e-300, 1e-150), (3e-308, 3.03e-308), (0.2, 0.5)]
    )
    def test_matches_mpmath(self, r, s):
        log_k, margin = _mp_suita_logs(r, s)
        est = kernel_diag(Annulus(r), Unweighted(), s)
        assert abs(est.log_value - log_k) <= 4.0 * np.finfo(float).eps * max(1.0, abs(log_k))
        rec = suita_ratio(Annulus(r), s * 1j)
        assert rec.passed
        assert abs(rec.quantities["margin"] - margin) <= rec.tolerances["upper"]


class TestLogMarginWitnesses:
    """Wrong kernels that the log margin of the Suita records refuses at its
    tolerance of a few ulps, each through ``main``."""

    def test_a_kernel_low_by_1e_9_fails_the_disc(self, monkeypatch, tmp_path):
        # c_beta^2 / (pi K) = 1 + 1e-9 on the disc: a margin of -1e-9
        real = bergman._closed_form_kernel

        def low(domain, weight, z):
            est = real(domain, weight, z)
            return replace(est, log_value=est.log_value + math.log1p(-1e-9))

        monkeypatch.setattr(bergman, "_closed_form_kernel", low)
        argv = ["suita-check", "--domain", "disc", "--no-cache", "--outdir", str(tmp_path)]
        assert main(argv) == 1
        records = json.loads((tmp_path / "suita_check_report.json").read_text())["records"]
        assert not any(rec["passed"] for rec in records)

    def test_a_dropped_factor_two_fails_the_disc(self, monkeypatch, tmp_path):
        # K_rho = e^{c Re z} K: the margin is -c Re z, negative at 0.3
        def dropped(domain, weight, z):
            est = bergman._closed_form_kernel(domain, Unweighted(), z)
            return replace(est, log_value=weight.c * complex(z).real + est.log_value)

        monkeypatch.setattr(bergman, "_harmonic_re_kernel", dropped)
        argv = ["extended-suita-check", "--domain", "disc", "--weight", "harmonicre:1.0",
                "--zs", "0.3", "--no-cache", "--outdir", str(tmp_path)]
        assert main(argv) == 1


class TestJacobiScaledOperands:
    """The oracle's dense route with ``harmonicre:0.2`` on ``annulus:0.2`` at
    the four points of ``bergreen all``: dropping the underflowed tail of
    its Jacobi-scaled Gram moves no kernel value, and a least-norm solve
    builds the scaled Gram once."""

    WEIGHT = HarmonicRe(0.2)
    ZS = _sweep_points(ANN, 4)  # all in basis (-128, 128)

    def _kernels(self):
        return [oracles.dense_kernel(ANN, self.WEIGHT, z) for z in self.ZS]

    def test_values_match_the_undropped_solve(self, monkeypatch):
        dropped = self._kernels()
        monkeypatch.setattr(oracles, "DROP", 0.0)
        kept = self._kernels()
        for (a, cond_a), (b, cond_b) in zip(dropped, kept):
            assert a.value == b.value
            assert cond_a == pytest.approx(cond_b, rel=1e-13)

    def test_one_scaling_per_least_norm_extension(self, monkeypatch):
        scalings = _count(monkeypatch, oracles, "scaled_bessel_gram")
        oracles.dense_least_norm(ANN, self.WEIGHT, 0.5, 1.0, basis=(-16, 16))
        assert len(scalings) == 1


class TestJacobiSolveAccuracy:
    """The dense kernel value ``bd^H corr^{-1} bd`` against a 50-digit
    ``mpmath`` solve of the same float64 scaled Gram and right-hand side
    ``bd = b / d``.  Partial-pivoting LU is backward stable, so the relative
    error is of order ``n * kappa * eps`` with ``n`` the basis size and
    ``kappa`` the measured 2-norm condition of the Jacobi-scaled system;
    that product is the tolerance.  For the
    (-8, 8) basis below ``kappa`` is about 2, the tolerance about 7.5e-15,
    and the measured worst error about 1.7e-16."""

    BASIS = (-8, 8)

    @pytest.mark.parametrize("z", [0.3, 0.5j, -0.7 + 0.1j, 0.25 - 0.2j])
    def test_matches_fifty_digit_solve(self, z):
        corr, log_d = _scaled_gram(ANN, 0.2, self.BASIS)
        ns = np.arange(self.BASIS[0], self.BASIS[1] + 1)
        bd = oracles.scaled_powers(z, ns, log_d)
        value = oracles.dense_kernel_value(corr, bd)
        with mpmath.workdps(50):
            g = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in corr])
            bb = mpmath.matrix([mpmath.mpc(complex(x)) for x in bd])
            y = mpmath.lu_solve(g, bb)
            exact = float(sum(mpmath.conj(bb[i]) * y[i] for i in range(ns.size)).real)
        kappa = oracles.normalized_condition(corr)
        tol = ns.size * kappa * np.finfo(float).eps
        assert abs(value - exact) <= tol * exact


class TestNormalizedCondition:
    """``oracles.normalized_condition`` takes the spectrum of a symmetric
    permutation of the scaled Gram: an exact similarity, so it matches the
    unpermuted spectrum to rounding."""

    @pytest.mark.parametrize(
        "domain,c,basis",
        [
            (ANN, 0.2, (-128, 128)),
            (ANN, 1.0, (-128, 128)),
            (Annulus(0.5), 0.3, (-128, 128)),
            (Annulus(0.1), 0.5, (-128, 128)),
            (DISC, 0.2, (0, 128)),
            (DISC, 1.0, (0, 128)),
        ],
    )
    def test_matches_the_unpermuted_spectrum(self, domain, c, basis):
        corr, _ = _scaled_gram(domain, c, basis)
        lam = np.abs(np.linalg.eigvalsh(corr))
        reference = lam.max() / lam.min()
        assert oracles.normalized_condition(corr) == pytest.approx(reference, rel=1e-13)

    def test_diagonal_gram_is_exactly_one(self):
        corr, _ = jacobi_scaled(gram_matrix(ANN, Unweighted(), (-16, 16)))
        assert oracles.normalized_condition(corr) == 1.0

    def test_warns_above_1e10(self):
        corr = np.diag([1.0, 1.0, 1e-11]) + np.diag([1e-12, 1e-12], 1) + np.diag([1e-12, 1e-12], -1)
        with pytest.warns(RuntimeWarning, match="exceeds 1e10"):
            assert oracles.normalized_condition(corr) > 1e10


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
