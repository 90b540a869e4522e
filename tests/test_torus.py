"""Tests for the flat-torus module: theta series against independent
oracles, Green-function normalizations, capacity, theta bases, the
weighted kernel, and the degree-dependent inequality record.

Oracle policy: ``mpmath.jtheta``, ``mpmath.eta`` and the Dedekind-eta
product are used here (tests only) as independent references for the theta
series and the derived constants; the closed-form constants are also checked
against their definitions, the mean of g by quadrature and the capacity as a
Richardson-extrapolated limit; the closed-form section norm and kernel are
checked against the trapezoid quadrature of the Gram (``tests/oracles.py``).
"""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import theta_gram, theta_rows

from bergreen import cli, torus
from bergreen.domains import gauss_legendre
from bergreen.errors import AccuracyError, ParameterError, TruncationError
from bergreen.torus import (
    ArakelovGreen,
    ThetaBasis,
    TorusSpec,
    arak1_check,
    arakelov_green,
    curvature_coefficients,
    laplacian_deviation,
    lattice_reduce,
    residual_mass,
    theta1,
    theta1_prime0,
    theta1_term_count,
    torus_bergman,
    torus_capacity,
    torus_gram,
)

TAU_I = 1j
TAU_SKEW = 0.5 + 1j
# the moduli on which the closed-form constants are pinned against mpmath
ETA_TAUS = [TAU_I, TAU_SKEW, 0.3 + 1.1j, cmath.exp(1j * math.pi / 3), 2j, 0.1 + 0.6j]


def mp_theta1(z: complex, tau: complex) -> complex:
    """Independent reference: mpmath's odd Jacobi theta, matching the
    series convention via ``theta1(z, tau) = jtheta(1, pi z, e^{i pi tau})``."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    return complex(mpmath.jtheta(1, mpmath.pi * complex(z), q))


def mp_theta1_prime0(tau: complex) -> complex:
    """``theta1'(0) = pi * d/du jtheta(1, u, q)|_{u=0}``."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    return complex(mpmath.pi * mpmath.jtheta(1, 0, q, 1))


def mp_theta1_derivatives(z: complex, tau: complex) -> tuple[complex, complex, complex]:
    """(theta1, theta1', theta1'') at ``z``: mpmath's ``jtheta(1, pi z, q)``
    and its first two derivatives in ``pi z``, times ``pi`` and ``pi^2``."""
    with mpmath.workdps(40):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        u = mpmath.pi * mpmath.mpc(z)
        return tuple(complex(mpmath.pi**k * mpmath.jtheta(1, u, q, k)) for k in range(3))


def dense_theta1(z, tau: complex, terms: int = 64):
    """Reference for the truncation: the series summed over all ``terms``
    terms, with no stopping rule."""
    ns = np.arange(terms)
    q_pow = np.exp(1j * np.pi * complex(tau) * (ns + 0.5) ** 2) * (-1.0) ** ns
    return 2.0 * np.sin(np.pi * np.multiply.outer(np.asarray(z, dtype=complex), 2 * ns + 1)) @ q_pow


def truncation_grid(tau: complex) -> np.ndarray:
    """Points near the pole (|z| ~ 1e-5), on the edge of the reduced cell,
    and one and a half lattice rows out (large |Im z|, where the dense sum
    still stays finite)."""
    near_pole = 1e-5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False))
    edge = np.array([0.5, 0.5 * tau, 0.5 + 0.5 * tau, -0.5 + 0.5 * tau, 0.31 - 0.5 * tau])
    far = np.array([0.2 + 1.5 * tau, -0.4 - 1.5 * tau])
    return np.concatenate([near_pole, edge, far])


def dedekind_eta(tau: complex) -> complex:
    """Eta product ``e^{i pi tau / 12} prod_{n>=1} (1 - e^{2 pi i n tau})``;
    the factor magnitudes decay geometrically, so 80 terms are far past
    machine precision for Im tau >= 1."""
    q = cmath_exp = np.exp(2j * np.pi * complex(tau))
    out = np.exp(1j * np.pi * complex(tau) / 12.0)
    for n in range(1, 80):
        out *= 1.0 - q**n
    return complex(out)


def mp_abs_eta(tau: complex):
    """``|eta(tau)|`` from mpmath's Dedekind eta at 40 digits."""
    with mpmath.workdps(40):
        return abs(mpmath.eta(mpmath.mpc(tau.real, tau.imag)))


def quadrature_mean(green: ArakelovGreen) -> float:
    """Mean of ``g`` against the volume form, by quadrature of its
    definition: ``log|theta1(z)/z|`` by tensor Gauss-Legendre over the
    centered cell, ``log|s + t tau|`` with the inner integral in closed
    form and the outer one adaptive, and the exact quadratic moment
    ``-pi tau2 / 12``."""
    from scipy.integrate import quad

    spec = green.spec
    tau = spec.tau
    x, w = gauss_legendre(48)
    s = 0.5 * x
    ws = 0.5 * w
    S, T = np.meshgrid(s, s, indexing="ij")
    Z = S + T * tau
    vals = torus._log_abs_theta_over_z(spec, Z.ravel()).reshape(Z.shape)
    smooth = float(np.einsum("i,j,ij->", ws, ws, vals))

    def inner(t):
        a = t * tau.real
        b = t * tau.imag

        def F(u):
            if b == 0.0:
                return u * math.log(abs(u)) - u if u != 0.0 else 0.0
            return 0.5 * u * math.log(u * u + b * b) - u + b * math.atan(u / b)

        return F(0.5 + a) - F(-0.5 + a)

    log_part = quad(inner, -0.5, 0.5, points=[0.0], limit=200)[0]
    return smooth + log_part - math.pi * spec.tau2 / 12.0 + green.gamma


def richardson_capacity(green: ArakelovGreen, p: complex = 0.0, angle: float = 0.3) -> float:
    """Capacity from its definition as a limit: the profile
    ``g(z - p) - log(|z - p| / sqrt(Im tau))`` on the ray from ``p`` at
    ``angle`` is even in the radius with an ``r^2`` leading correction, so
    one Richardson step at radii ``(1e-3, 5e-4)`` leaves ``O(r^4)``."""
    phase = cmath.exp(1j * angle)

    def profile(r: float) -> float:
        z = p + r * phase
        return float(green(z - p)) - math.log(r / math.sqrt(green.spec.tau2))

    r = 1e-3
    return math.exp((4.0 * profile(0.5 * r) - profile(r)) / 3.0)


def nelder_mead_maxzero(spec: TorusSpec) -> float:
    """``-max`` of the raw Green profile by Nelder-Mead from the 96^2 grid
    maximum: an independent route to the max-zero constant."""
    from scipy.optimize import minimize

    s = np.linspace(0.0, 1.0, 96, endpoint=False)
    S, T = np.meshgrid(s, s, indexing="ij")
    Z = (S + T * spec.tau).ravel()
    z0 = Z[int(np.argmax(torus._green_raw(spec, Z)))]
    res = minimize(
        lambda xy: -torus._green_raw(spec, complex(xy[0], xy[1])),
        [z0.real, z0.imag],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400},
    )
    return float(res.fun)


# moduli of the benchmark's torus box (seeds 319, 526, 862 and 961) where the
# maximum of g lies off the highest half-period, a saddle there
BOX_MAXZERO_TAUS = [
    -0.336304 + 0.95665j, 0.393196 + 1.156011j, 0.409036 + 1.20273j, 0.387011 + 1.118533j,
]
# tall moduli where g is nearly flat along one direction
TALL_MAXZERO_TAUS = [7j, 10j, 0.5 + 2j, 0.5 + 3j, 0.5 + 4j, 0.3 + 8j]
# the moduli on which the max-zero polish is pinned against Nelder-Mead: thin
# tori (0.15i, 0.2i, 0.3i), where g is almost flat along Im z, the rhombic
# and hexagonal ones, where g has five critical points, and the two above
MAXZERO_TAUS = [
    TAU_I, TAU_SKEW, 0.3 + 1.1j, 2j, 0.1 + 0.6j, 0.5 + 0.6j, 0.2j, 0.15j, 0.3j,
    cmath.exp(1j * math.pi / 3), -0.4 + 0.95j, 0.13 + 1.27j,
    *BOX_MAXZERO_TAUS, *TALL_MAXZERO_TAUS,
]


def _count(monkeypatch, owner, name):
    """Log the positional arguments of each ``owner.name`` call; returns
    the log."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _scalar_laplacian(f, z: complex, h: float) -> float:
    """Reference five-point stencil: ``f`` called on one node at a time,
    summed in the order of ``torus._five_point_laplacian``."""
    return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)) / (h * h)


def _stencil_nodes(z, h: float) -> np.ndarray:
    """The five nodes of each centre ``z``, in the stencil's order."""
    return np.add.outer(z, np.array([h, -h, 1j * h, -1j * h, 0.0]))


def _stencil_rounding(f_nodes, h: float) -> float:
    """Bound on the change of a five-point Laplacian when each node value
    ``f`` is evaluated another way, stated before measuring: 1024 eps max|f|
    / h^2, from the stencil weights 1 + 1 + 1 + 1 + 4 = 8, both ways
    rounding, and each value summing at most ``theta1``'s 64 terms."""
    return 1024.0 * np.finfo(float).eps * float(np.max(np.abs(f_nodes))) / (h * h)


# the moduli on which the batched stencils are held against the scalar one
STENCIL_TAUS = [TAU_I, TAU_SKEW, 0.15j, 0.1j]


@pytest.fixture(scope="module")
def spec_i():
    return TorusSpec(TAU_I)


@pytest.fixture(scope="module")
def spec_skew():
    return TorusSpec(TAU_SKEW)


@pytest.fixture(scope="module")
def green_mean_i(spec_i):
    return arakelov_green(spec_i, normalization="meanzero")


@pytest.fixture(scope="module")
def green_max_i(spec_i):
    return arakelov_green(spec_i, normalization="maxzero")


class TestTorusSpec:
    def test_requires_upper_half_plane(self):
        with pytest.raises(ParameterError):
            TorusSpec(1.0)
        with pytest.raises(ParameterError):
            TorusSpec(0.3 - 0.5j)

    def test_requires_enough_terms(self):
        # the theta functions carry the truncation cap; the spec has none
        with pytest.raises(TypeError):
            TorusSpec(1j, terms=64)
        spec = TorusSpec(1j)
        with pytest.raises(ParameterError):
            theta1(0.3, spec.tau, terms=4)


class TestTheta1:
    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 0.25 + 2.0j])
    @pytest.mark.parametrize(
        "z", [0.3, 0.17 + 0.4j, -0.45 + 0.9j, 0.5 + 0.5j, 1.2 - 0.3j]
    )
    def test_matches_reference_series(self, tau, z):
        ours = theta1(z, tau)
        ref = mp_theta1(z, tau)
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_zero_at_origin_and_odd(self):
        assert theta1(0.0, TAU_I) == 0.0
        for z in (0.3, 0.2 + 0.6j, -0.7 + 0.1j):
            assert abs(theta1(-z, TAU_I) + theta1(z, TAU_I)) < 1e-14

    def test_antiperiodic_in_one(self):
        for z in (0.12, 0.4 + 0.3j):
            a = theta1(z + 1.0, TAU_SKEW)
            b = -theta1(z, TAU_SKEW)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_quasi_periodic_in_tau(self):
        tau = TAU_SKEW
        for z in (0.15, 0.3 - 0.2j):
            factor = -np.exp(-1j * np.pi * tau - 2j * np.pi * z)
            a = theta1(z + tau, tau)
            b = factor * theta1(z, tau)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_vectorized_shape(self):
        z = np.array([[0.1, 0.2 + 0.3j], [0.4j, -0.2]])
        out = theta1(z, TAU_I)
        assert out.shape == z.shape
        assert abs(out[0, 1] - theta1(0.2 + 0.3j, TAU_I)) < 1e-15

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 0.23 + 1.07j, 0.2j])
    def test_certified_count_matches_dense_sum(self, tau):
        z = truncation_grid(tau)
        ref = dense_theta1(z, tau)
        scale = np.maximum(np.abs(ref), np.abs(z) * abs(theta1_prime0(tau)))
        tol = 4.0 * np.finfo(float).eps
        assert np.all(np.abs(theta1(z, tau) - ref) <= tol * scale)
        # one point at a time, against the dense sum of that point (a scalar
        # and an array are summed by different kernels)
        for zk, sk in zip(z, scale):
            assert abs(theta1(zk, tau) - dense_theta1(zk, tau)) <= tol * sk

    def test_term_count_floor_growth_and_cap(self):
        assert theta1_term_count(1e-5, TAU_I) == 8
        thin = 0.2j
        assert theta1_term_count(0.2 + 0.3j, thin) > theta1_term_count(1e-5, thin) > 8
        assert theta1_term_count(0.2 + 0.3j, thin, terms=9) == 9

    def test_far_rows_stay_finite(self):
        # all 64 sines overflow at Im z = 3 (127 pi * 3 > 709); the
        # certified count stops well before that
        z = 0.2 + 3.0j
        ref = mp_theta1(z, TAU_I)
        assert abs(theta1(z, TAU_I) - ref) <= 1e-12 * abs(ref)

    def test_thin_torus_sums_past_the_floor(self):
        tau = 0.2j
        for z in truncation_grid(tau):
            assert theta1_term_count(z, tau) > 8
            ref = mp_theta1(z, tau)
            assert abs(theta1(z, tau) - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("z,tau", [(0.2 + 7.5j, TAU_I), (0.2 + 5.0j, 0.2j)])
    def test_overflowing_sine_raises(self, z, tau):
        # pi (2N - 1) |Im z| exceeds log(float max): the largest kept sine
        # is inf, its q power 0, and the sum would be NaN
        with pytest.raises(TruncationError, match="fundamental cell"):
            theta1(z, tau)

    def test_last_row_before_overflow_matches_reference(self):
        z = 0.2 + 7.2j  # pi (2N - 1) |Im z| = 701, just inside the float range
        ref = mp_theta1(z, TAU_I)
        assert abs(theta1(z, TAU_I) - ref) <= 3e-14 * abs(ref)

    def test_truncation_guard_raises_before_overflow(self):
        # with few terms the certified tail bound fails well before the
        # sine factors could overflow
        with pytest.raises(TruncationError):
            theta1(12j, TAU_I, terms=8)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            theta1(0.3, 1.0)
        with pytest.raises(ParameterError):
            theta1(0.3, TAU_I, terms=4)
        with pytest.raises(ParameterError):
            theta1_prime0(-2.0)

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW])
    def test_prime0_matches_reference(self, tau):
        ours = theta1_prime0(tau)
        ref = mp_theta1_prime0(tau)
        assert abs(ours - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW])
    def test_prime0_is_eta_cubed(self, tau):
        # classical identity theta1'(0) = 2 pi eta(tau)^3
        ref = 2.0 * np.pi * dedekind_eta(tau) ** 3
        assert abs(theta1_prime0(tau) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("tau", [*ETA_TAUS, 0.2j, 0.02 + 0.3j])
    @pytest.mark.parametrize("terms", [8, 64])
    def test_prime0_is_the_plain_sum(self, tau, terms, monkeypatch):
        # the terms past the certified count lie below rounding: the value
        # is the sum over all terms
        monkeypatch.setattr(torus, "_PRIME0_TERMS", terms)
        ns = np.arange(terms)
        q_pow = np.exp(1j * np.pi * tau * (ns + 0.5) ** 2) * (-1.0) ** ns
        assert theta1_prime0(tau) == complex(2.0 * np.pi * np.sum((2 * ns + 1) * q_pow))

    @pytest.mark.parametrize("tau", [0.09j, 0.07j, 0.05j, 0.02j])
    def test_prime0_cancellation_raises(self, tau):
        # the alternating terms cancel: at 0.02i the 64-term sum is 14 % off
        # mpmath's value, and at 0.09i the rounding bound of the 15 summed
        # terms already exceeds _THETA_TOL (2.0e-12)
        with pytest.raises(TruncationError, match="cancels"):
            theta1_prime0(tau)
        with pytest.raises(TruncationError):
            arakelov_green(TorusSpec(tau))

    @pytest.mark.parametrize("tau", [0.12j, 0.1j])
    def test_prime0_charges_rounding_on_the_summed_terms(self, tau):
        # 13 and 15 terms certify the sum; charging rounding on all 64 terms
        # of the cap would raise (1.13e-12 at 0.12i)
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(0.0, tau.imag))
            ref = complex(mpmath.pi * mpmath.jtheta(1, 0, q, 1))
        assert abs(theta1_prime0(tau) - ref) <= 1e-12 * abs(ref)

    def test_prime0_tail_bound_gates_few_terms(self, monkeypatch):
        # at 0.13i eight terms leave a tail above _THETA_TOL, nine do not
        tau = 0.13j
        monkeypatch.setattr(torus, "_PRIME0_TERMS", 8)
        with pytest.raises(TruncationError):
            theta1_prime0(tau)
        ref = mp_theta1_prime0(tau)
        for terms in (9, 64):
            monkeypatch.setattr(torus, "_PRIME0_TERMS", terms)
            assert abs(theta1_prime0(tau) - ref) <= 1e-12 * abs(ref)


class TestLatticeReduce:
    def test_fixed_points(self):
        for z in (0.0, 0.2 + 0.3j, -0.4 - 0.2j):
            assert abs(lattice_reduce(z, TAU_I) - z) < 1e-15

    def test_strips_lattice_shifts(self):
        z = 0.21 + 0.33j
        for m, n in [(1, 0), (0, 1), (-3, 2), (5, -4)]:
            shifted = z + m + n * TAU_SKEW
            assert abs(lattice_reduce(shifted, TAU_SKEW) - z) < 1e-12

    def test_vectorized(self):
        z = np.array([0.1 + 7.0 * TAU_I, -4.0 + 0.2j])
        out = lattice_reduce(z, TAU_I)
        assert out.shape == z.shape
        assert abs(out[0] - 0.1) < 1e-12
        assert abs(out[1] - 0.2j) < 1e-12

    @given(
        x=st.floats(-20.0, 20.0),
        y=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduction_contract(self, x, y):
        # contract: |Re| and Im-coefficient centered, and the difference
        # from the input is a lattice point
        tau = TAU_SKEW
        z = complex(x, y)
        out = complex(lattice_reduce(z, tau))
        assert abs(out.imag) <= 0.5 * tau.imag + 1e-9
        assert abs(out.real) <= 0.5 + 1e-9
        diff = z - out
        n2 = diff.imag / tau.imag
        n1 = diff.real - n2 * tau.real
        assert abs(n2 - round(n2)) < 1e-9
        assert abs(n1 - round(n1)) < 1e-9


class TestArakelovGreen:
    def test_even_and_doubly_periodic(self, green_mean_i):
        for z in (0.31 + 0.17j, 0.05 + 0.45j, -0.2 + 0.4j):
            g = green_mean_i(z)
            assert abs(green_mean_i(-z) - g) < 1e-12
            assert abs(green_mean_i(z + 1.0) - g) < 1e-11
            assert abs(green_mean_i(z + TAU_I) - g) < 1e-11

    def test_vectorized(self, green_mean_i):
        z = np.array([0.3 + 0.1j, 0.2 + 0.4j])
        out = green_mean_i(z)
        assert out.shape == z.shape
        assert abs(out[0] - green_mean_i(0.3 + 0.1j)) < 1e-15

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW])
    def test_meanzero_constant_is_minus_log_eta(self, tau):
        # the mean-zero additive constant equals -log|eta(tau)| (classical
        # lattice-sum evaluation); the eta product is the oracle
        green = arakelov_green(TorusSpec(tau), normalization="meanzero")
        ref = -math.log(abs(dedekind_eta(tau)))
        assert abs(green.gamma - ref) < 1e-12

    @pytest.mark.parametrize("tau", ETA_TAUS)
    def test_meanzero_constant_matches_mpmath_eta(self, tau):
        green = arakelov_green(TorusSpec(tau), normalization="meanzero")
        assert abs(green.gamma + float(mpmath.log(mp_abs_eta(tau)))) <= 1e-15

    @pytest.mark.parametrize("tau", ETA_TAUS)
    def test_quadrature_mean_is_zero(self, tau):
        # the closed-form constant against the mean of g by quadrature
        green = arakelov_green(TorusSpec(tau), normalization="meanzero")
        assert abs(quadrature_mean(green)) < 1e-14

    def test_meanzero_grid_mean_small(self, green_mean_i):
        # offset grid avoids the pole; the log singularity limits uniform-
        # grid accuracy to ~1/n^2 here, not machine precision
        n = 128
        s = (np.arange(n) + 0.5) / n
        S, T = np.meshgrid(s, s, indexing="ij")
        vals = green_mean_i((S + T * TAU_I).ravel())
        assert abs(float(np.mean(vals))) < 2e-3

    def test_maxzero_nonpositive_with_tight_sup(self, green_max_i):
        n = 96
        s = (np.arange(n) + 0.5) / n
        S, T = np.meshgrid(s, s, indexing="ij")
        vals = green_max_i((S + T * TAU_I).ravel())
        assert float(np.max(vals)) <= 1e-12
        # the polished supremum is 0, so a fine grid must come close
        assert float(np.max(vals)) > -5e-3

    @pytest.mark.parametrize("tau", MAXZERO_TAUS)
    def test_maxzero_matches_nelder_mead(self, tau):
        spec = TorusSpec(tau)
        assert abs(torus._gamma_maxzero(spec) - nelder_mead_maxzero(spec)) <= 1e-14

    @pytest.mark.parametrize("tau", MAXZERO_TAUS + [0.12j, 0.1j])
    def test_separable_grid_matches_green_raw(self, tau):
        spec = TorusSpec(tau)
        n = 96
        s = np.linspace(0.0, 1.0, n, endpoint=False)
        S, T = np.meshgrid(s, s, indexing="ij")
        ref = torus._green_raw(spec, (S + T * tau).ravel())
        grid = torus._green_grid(spec, n).ravel()
        assert np.isneginf(grid[0]) and np.isneginf(ref[0])
        # at 0.1i the theta series cancels to 1e-4 of its terms, and
        # _green_raw's own error reaches 1.1e-13 (see the mpmath test below)
        assert np.max(np.abs(grid[1:] - ref[1:])) <= (2e-13 if tau == 0.1j else 1e-13)
        # the grid's highest node is _green_raw's, as the maxzero_sup gate
        # reads it; on the rhombic tori 0.5 + i and -0.4 + 0.95i two nodes
        # tie up to rounding
        assert ref[np.argmax(grid)] >= np.max(ref) - 1e-15

    def test_separable_grid_on_the_thinnest_torus_matches_mpmath(self):
        # the nodes where the grid and _green_raw differ most at 0.1i
        tau, n = 0.1j, 96
        grid = torus._green_grid(TorusSpec(tau), n)
        for a, b in [(1, 31), (95, 71), (1, 46), (2, 65)]:
            z = lattice_reduce(a / n + b / n * tau, tau)
            with mpmath.workdps(40):
                q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                theta = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), q)
                gauss = mpmath.pi * mpmath.mpf(z.imag) ** 2 / tau.imag
                exact = float(mpmath.log(abs(theta)) - gauss)
            assert abs(grid[a, b] - exact) <= 5e-14

    def test_maxzero_at_the_hexagonal_center(self):
        # on the hexagonal torus the maximum of g sits at (1 + tau)/3, above
        # the three half-periods (Lin and Wang, Ann. of Math. 2010)
        tau = cmath.exp(1j * math.pi / 3)
        spec = TorusSpec(tau)
        center = torus._green_raw(spec, (1.0 + tau) / 3.0)
        assert abs(-torus._gamma_maxzero(spec) - center) <= 1e-15

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 0.1j, 4j])
    def test_jet_matches_mpmath(self, tau):
        # theta1' = h theta1 and theta1'' = (h' + h^2) theta1, with h and h'
        # read off the jet's gradient and Hessian, against mpmath; the worst
        # relative error, 1.1e-14, is at 0.1 + 0.045i on 0.1i, where the
        # series cancels to |theta1| = 2.2e-2
        spec = TorusSpec(tau)
        c = 2.0 * math.pi / tau.imag
        for w in [0.3 + 0.2j, 0.1 + 0.45j, -0.25 + 0.3j, 0.5 + 0.5j, 0.42 + 0.18j]:
            z = w.real + w.imag * tau
            value, grad, hess = torus._green_jet(spec, z)
            assert value == torus._green_raw(spec, z)
            assert hess[0, 1] == hess[1, 0]
            h = complex(grad[0], -grad[1] - c * z.imag)
            h_prime = complex(hess[0, 0], -hess[0, 1])
            assert hess[1, 1] == -hess[0, 0] - c
            theta, d1, d2 = mp_theta1_derivatives(z, tau)
            assert abs(h * theta - d1) <= 1e-13 * abs(d1)
            assert abs((h_prime + h * h) * theta - d2) <= 1e-13 * abs(d2)

    def test_maxzero_leaves_a_saddle_start(self, monkeypatch):
        # at 0.5 + 2i the highest half-period (1 + tau)/2 is a saddle, and the
        # maxima are the pair +-(0.5 + 0.99252i) (Lin and Wang's extra pair)
        tau = 0.5 + 2j
        spec = TorusSpec(tau)
        jet = torus._green_jet
        calls = _count(monkeypatch, torus, "_green_jet")
        gamma = torus._gamma_maxzero(spec)
        start = calls[0][1]
        assert start == 0.5 * (1.0 + tau)
        assert np.linalg.eigvalsh(jet(spec, start)[2])[1] > 0.0
        end = [z for _, z in calls if jet(spec, z)[0] == -gamma][-1]
        p = 0.5 + 0.99252j
        assert min(abs(lattice_reduce(end - p, tau)), abs(lattice_reduce(end + p, tau))) < 1e-5
        # the maximum is 8.07e-5 above the saddle
        assert -gamma > torus._green_raw(spec, start) + 8e-5

    def test_maxzero_polish_guards(self, monkeypatch):
        spec = TorusSpec(TAU_SKEW)
        jet, raw = torus._green_jet, torus._green_raw
        # on the convex profile |z|^2 every step rises, the Hessian stays
        # positive definite, and the step cap ends the ascent
        def convex(sp, z):
            return abs(z) ** 2, 2.0 * np.array([z.real, z.imag]), 2.0 * np.eye(2)

        monkeypatch.setattr(torus, "_green_jet", convex)
        with pytest.raises(AccuracyError, match="Hessian must be negative definite"):
            torus._gamma_maxzero(spec)
        monkeypatch.setattr(torus, "_green_jet", jet)
        # the guard reads the half-periods from the start call, and the ascent
        # climbs from the highest of them, so only a NaN there ends it below
        def nan_half_period(sp, z):
            out = raw(sp, z)
            if np.shape(z) == (3,):
                out[1] = math.nan
            return out

        monkeypatch.setattr(torus, "_green_raw", nan_half_period)
        with pytest.raises(AccuracyError, match=r"g = nan: .* \(half-periods\)"):
            torus._gamma_maxzero(spec)

    def test_maxzero_guard_reads_the_start_call(self, spec_skew, monkeypatch):
        # one _green_raw call holds the three half-periods; the ascent runs on
        # the jet alone
        calls = _count(monkeypatch, torus, "_green_raw")
        torus._gamma_maxzero(spec_skew)
        assert [np.shape(z) for _, z in calls] == [(3,)]

    def test_normalizations_differ_by_constant(self, green_mean_i, green_max_i):
        zs = np.array([0.3 + 0.2j, 0.1 + 0.45j, 0.42 + 0.18j])
        diff = green_mean_i(zs) - green_max_i(zs)
        assert float(np.ptp(diff)) < 1e-12
        # max-zero lies below mean-zero (subtracting the positive sup)
        assert float(diff[0]) > 0.0

    def test_unknown_normalization_rejected(self, spec_i):
        with pytest.raises(ParameterError):
            arakelov_green(spec_i, normalization="median")


class TestLaplacianDeviation:
    def test_default_samples_within_gate(self, green_mean_i, green_max_i):
        assert laplacian_deviation(green_mean_i) < 1e-5
        assert laplacian_deviation(green_max_i) < 1e-5

    def test_skew_torus(self, spec_skew):
        green = arakelov_green(spec_skew, normalization="meanzero")
        assert laplacian_deviation(green) < 1e-5

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 0.1j, 0.5 + 0.3j, 4.0j])
    def test_samples_stay_clear_of_the_pole(self, tau):
        # each sample reduces to itself, at least 0.1 from the pole: far
        # outside the stencil's 5e-4 * min(1, Im tau)
        for w in torus._LAP_SAMPLES:
            z = complex(w.real, w.imag * tau.imag)
            assert lattice_reduce(z, tau) == z and abs(z) >= 0.1

    def test_one_theta1_call(self, green_mean_i, monkeypatch):
        # the four samples' twenty stencil nodes take one theta1 call
        calls = _count(monkeypatch, torus, "theta1")
        laplacian_deviation(green_mean_i)
        assert [np.shape(z) for z, *_ in calls] == [(len(torus._LAP_SAMPLES), 5)]

    @pytest.mark.parametrize("tau", STENCIL_TAUS)
    def test_matches_one_node_per_call(self, tau):
        spec = TorusSpec(tau)
        green = arakelov_green(spec, normalization="meanzero")
        h = torus._LAP_STEP * min(1.0, spec.tau2)
        zs = np.array([complex(w.real, w.imag * spec.tau2) for w in torus._LAP_SAMPLES])
        factor = spec.tau2 / (2.0 * math.pi)
        reference = max(
            abs(factor * _scalar_laplacian(lambda w: float(green(w)), z, h) + 1.0) for z in zs
        )
        bound = factor * _stencil_rounding(green(_stencil_nodes(zs, h)), h)
        assert abs(laplacian_deviation(green) - reference) <= bound

    def test_impossible_tolerance_fails_the_record(self, spec_i, monkeypatch):
        # arak1_check's laplacian margin is the one gate on the deviation
        monkeypatch.setattr(torus, "_LAP_TOL", 1e-14)
        rec = arak1_check(spec_i, 4)
        assert not rec.passed
        assert rec.margins["laplacian"] < -rec.tolerances["laplacian"]
        assert rec.quantities["laplacian_deviation"] > 1e-14


class TestTorusCapacity:
    def test_matches_theta_derivative_form(self, green_mean_i, green_max_i):
        # near the pole g(z) ~ log(|z|/sqrt(Im tau)) + log(|theta1'(0)|
        # sqrt(Im tau)) + gamma, so the capacity has a closed form in the
        # reference theta derivative
        for green in (green_mean_i, green_max_i):
            oracle = (
                abs(mp_theta1_prime0(TAU_I)) * math.sqrt(1.0) * math.exp(green.gamma)
            )
            assert abs(torus_capacity(green) - oracle) < 1e-10 * oracle

    def test_meanzero_square_torus_closed_form(self, green_mean_i):
        # eta(i) = Gamma(1/4) / (2 pi^{3/4}) collapses the capacity to
        # 2 pi eta(i)^2
        eta_i = float(mpmath.gamma(0.25) / (2.0 * mpmath.pi ** 0.75))
        oracle = 2.0 * math.pi * eta_i**2
        assert abs(torus_capacity(green_mean_i) - oracle) < 1e-10

    def test_translation_invariance(self, green_mean_i):
        # the limit that defines the capacity, taken away from the pole
        c = torus_capacity(green_mean_i)
        assert abs(richardson_capacity(green_mean_i, p=0.3 + 0.1j) - c) < 1e-9

    def test_angle_independence(self, green_mean_i):
        c = torus_capacity(green_mean_i)
        for angle in (0.3, 2.1):
            assert abs(richardson_capacity(green_mean_i, angle=angle) - c) < 1e-10

    @pytest.mark.parametrize("tau", ETA_TAUS)
    def test_meanzero_capacity_is_eta_squared(self, tau):
        # c = 2 pi sqrt(Im tau) |eta(tau)|^2 under the mean-zero constant
        c = torus_capacity(arakelov_green(TorusSpec(tau), normalization="meanzero"))
        with mpmath.workdps(40):
            ref = 2 * mpmath.pi * mpmath.sqrt(tau.imag) * mp_abs_eta(tau) ** 2
            assert abs(float(mpmath.mpf(c) / ref - 1)) <= 1e-15

    def test_skew_torus_oracle(self, spec_skew):
        green = arakelov_green(spec_skew, normalization="meanzero")
        oracle = (
            abs(mp_theta1_prime0(TAU_SKEW))
            * math.sqrt(spec_skew.tau2)
            * math.exp(green.gamma)
        )
        assert abs(torus_capacity(green) - oracle) < 1e-10 * oracle


class TestThetaBasis:
    def test_degree_validation(self, spec_i):
        with pytest.raises(ParameterError):
            ThetaBasis(spec_i, 5)
        with pytest.raises(ParameterError):
            ThetaBasis(spec_i, 2)
        basis = ThetaBasis(spec_i, 4)
        with pytest.raises(ParameterError):
            basis.theta(4, 0.3)
        with pytest.raises(ParameterError):
            basis.theta(-1, 0.3)

    @pytest.mark.parametrize("tau,d", [(TAU_I, 4), (TAU_SKEW, 6)])
    def test_quasi_periodicity(self, tau, d):
        # theta_j(z + 1) = theta_j(z) and theta_j(z + tau) = exp(-pi i tau d
        # - 2 pi i d z) theta_j(z), relative to |theta_j(z)| (and to the
        # factor's modulus where it exceeds 1)
        basis = ThetaBasis(TorusSpec(tau), d)
        zs = np.array([0.1 + 0.2j, 0.45 - 0.3j, -0.2 + 0.6j, 0.0])
        factor = np.exp(-1j * math.pi * tau * d - 2j * math.pi * d * zs)
        for j in range(d):
            v = basis.theta(j, zs)
            scale = np.maximum(np.abs(v), 1e-300)
            assert np.max(np.abs(basis.theta(j, zs + 1.0) - v) / scale) < 1e-9
            shifted = np.abs(basis.theta(j, zs + tau) - factor * v)
            assert np.max(shifted / (np.maximum(np.abs(factor), 1.0) * scale)) < 1e-9

    def test_weighted_modulus_doubly_periodic(self, spec_i):
        basis = ThetaBasis(spec_i, 4)
        z = 0.23 + 0.37j

        def wmod(j, w):
            return float(basis.weight(w)) * abs(basis.theta(j, w)) ** 2

        for j in range(4):
            base = wmod(j, z)
            assert abs(wmod(j, z + 1.0) - base) <= 1e-10 * base
            assert abs(wmod(j, z + TAU_I) - base) <= 1e-10 * base

    def test_weight_values(self, spec_i):
        basis = ThetaBasis(spec_i, 4)
        assert basis.weight(0.7) == 1.0
        y = 0.4
        assert abs(
            basis.weight(0.1 + y * 1j) - math.exp(-2.0 * math.pi * 4 * y * y)
        ) < 1e-15


# the moduli on which the torus Gram is pinned against its closed form
GRAM_TAUS = [TAU_I, TAU_SKEW, 0.23 + 1.07j, 0.2j, -0.5 + 0.9j, 0.4 + 1.3j, 2j]


class TestTorusGram:
    @pytest.mark.parametrize("d", [4, 6, 8, 10])
    @pytest.mark.parametrize("tau", GRAM_TAUS)
    def test_matches_gaussian_closed_form(self, tau, d):
        # completing the square in the section series gives the exact Gram
        # G = I / sqrt(2 d Im tau); the trapezoid quadrature on 64^2 nodes
        # reproduces it
        basis = ThetaBasis(TorusSpec(tau), d)
        norm = torus_gram(basis)
        assert norm == 1.0 / math.sqrt(2.0 * d * tau.imag)
        G = theta_gram(basis, 64)
        assert np.all(np.isfinite(G))
        assert float(np.max(np.abs(G - norm * np.eye(d)))) < 1e-12 * norm

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("d", [4, 6, 8, 10])
    @pytest.mark.parametrize("tau", GRAM_TAUS)
    def test_grid_table_matches_the_series(self, tau, d, n):
        # the oracle's separable table against the term-by-term series on
        # the same a-major product grid a/n + (b/n) tau
        basis = ThetaBasis(TorusSpec(tau), d)
        s = np.arange(n) / n
        S, T = np.meshgrid(s, s, indexing="ij")
        Z = (S + T * tau).ravel()
        ref = np.vstack([basis.theta(j, Z) for j in range(d)])
        table = theta_rows(basis, n)
        assert table.shape == (d, n * n)
        assert np.max(np.abs(table - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [4, 6, 10])
    @pytest.mark.parametrize("tau", GRAM_TAUS)
    def test_matches_the_entrywise_recipe(self, tau, d):
        # the kernel through the norm equals weight(p) b^H G^{-1} b with b_j =
        # theta_j(p) and G the oracle's Gram, whose exponentials are taken at
        # every entry and every grid point: the route the closed form replaced
        spec = TorusSpec(tau)
        basis = ThetaBasis(spec, d)
        G = theta_gram(basis, 64)
        ps = np.array([0.0, 0.31 + 0.23j * tau.imag, (1.0 + tau) / (2 * d)])
        for p, value in zip(ps, torus_bergman(spec, d, ps)):
            b = np.array([basis.theta(j, p) for j in range(d)])
            ref = float(basis.weight(p)) * float(np.vdot(b, np.linalg.solve(G, b)).real)
            assert abs(value - ref) <= 1e-12 * ref


class TestTorusBergman:
    def test_refined_lattice_constancy(self, spec_i):
        d = 4
        ps = np.array([0.0, 1.0 / d, TAU_I / d, (1.0 + TAU_I) / d, 2.0 / d, 3.0 * TAU_I / d])
        base, *others = torus_bergman(spec_i, d, ps)
        for v in others:
            assert abs(v - base) <= 1e-12 * base

    def test_shaped_as_the_points(self, spec_skew):
        ps = np.array([[0.0, 0.1 + 0.2j, -0.3j], [0.25, 0.4 + 0.1j, 0.7 - 0.5j]])
        values = torus_bergman(spec_skew, 6, ps)
        assert values.shape == ps.shape
        for p, v in zip(ps.ravel(), values.ravel()):
            assert v == torus_bergman(spec_skew, 6, np.array([p]))[0]

    def test_midcell_variation_small_and_decaying(self, spec_i):
        devs = {}
        for d in (4, 6):
            base, mid = torus_bergman(spec_i, d, np.array([0.0, (1.0 + TAU_I) / (2 * d)]))
            devs[d] = abs(mid - base) / base
        # on rectangular tori the variation between refined-lattice points
        # reads 1.8 to 8 times exp(-pi d min(Im tau, 1/Im tau) / 2) (8 at
        # tau = i): small, positive, and dropping by far more than the 1/e
        # per unit degree a power law would give
        assert 1e-3 < devs[4] < 1e-1
        assert devs[6] < devs[4] / 5.0
        assert devs[6] > 0.0

    @pytest.mark.parametrize("tau", [4j, 0.25j, 6j])
    def test_midcell_depends_on_the_reduced_degree(self, tau):
        # at d min(Im tau, 1/Im tau) = 1 the mid-cell deviation reads 2 - sqrt 2
        d = round(max(tau.imag, 1.0 / tau.imag))
        base, mid = torus_bergman(TorusSpec(tau), d, np.array([0.0, (1.0 + tau) / (2 * d)]))
        assert abs(abs(mid - base) / base - (2.0 - math.sqrt(2.0))) < 1e-9

    def test_diagonal_near_degree_and_monotone(self, spec_i):
        k4 = torus_bergman(spec_i, 4, 0.0)
        k6 = torus_bergman(spec_i, 6, 0.0)
        assert abs(k4 - 4.0) < 0.1
        assert abs(k6 - 6.0) < 0.1
        assert k4 < k6

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 0.1j])
    @pytest.mark.parametrize("d", [4, 6])
    def test_record_kernels_match_a_fresh_scaling_per_point(self, tau, d):
        # the record reads its kernel values from one torus_bergman call on
        # the base points and the cell nodes; each equals, bit for bit, a
        # call at that point alone, which takes its own norm (the Gram's
        # scale, G = norm I)
        spec = TorusSpec(tau)
        origin, *others, mid = (
            torus_bergman(spec, d, np.array([p]))[0]
            for p in (0.0, 1.0 / d, (1.0 + tau) / d, 0.5 * (1.0 + tau) / d)
        )
        q = arak1_check(spec, d).quantities
        assert q["kernel_diag"] == origin
        assert q["diag_spread"] == float(np.max(np.abs(np.subtract(others, origin)))) / origin
        assert q["midcell_deviation"] == abs(mid - origin) / origin
        assert q["kernel_mean"] == torus._kernel_samples(spec, d)[1]
        assert "gram_condition" not in q

    def test_one_kernel_call_and_one_norm_per_record(self, spec_skew, monkeypatch):
        kernels = _count(monkeypatch, torus, "torus_bergman")
        norms = _count(monkeypatch, torus, "torus_gram")
        arak1_check(spec_skew, 4)
        assert len(kernels) == len(norms) == 1


class TestKernelMean:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=st.floats(-0.5, 0.5), y=st.floats(0.02, 50.0), half=st.integers(2, 100))
    @example(x=0.0, y=0.02, half=2)
    @example(x=0.0, y=50.0, half=2)
    @example(x=0.5, y=0.02, half=2)
    @example(x=-0.5, y=50.0, half=100)
    def test_mean_is_the_degree_everywhere(self, x, y, half):
        # the cell trapezoid's aliasing bound stays below rounding on the
        # whole range, tall and thin, skew and rectangular, where the fixed
        # m = 8 of d = 4 would miss by 6.4e-4 at 0.02i and 50i
        d = 2 * half
        _, mean = torus._kernel_samples(TorusSpec(complex(x, y)), d)
        assert abs(mean / d - 1.0) <= 1e-12

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW])
    @pytest.mark.parametrize("wrong", ["scaled", "degree"])
    def test_a_wrong_norm_fails_only_the_mean(self, tau, wrong, monkeypatch):
        # the norm 1.001 times too large, or with its 2d written d: every
        # other margin of the record passes, so the mean gate is the one
        # that sees it
        norms = {
            "scaled": lambda basis: 1.001 / math.sqrt(2.0 * basis.d * basis.spec.tau2),
            "degree": lambda basis: 1.0 / math.sqrt(basis.d * basis.spec.tau2),
        }
        monkeypatch.setattr(torus, "torus_gram", norms[wrong])
        rec = arak1_check(TorusSpec(tau), 4)
        failing = [k for k, m in rec.margins.items() if m < -rec.tolerances[k]]
        assert failing == ["kernel_mean"]


class TestCurvatureCoefficients:
    @pytest.mark.parametrize("d", [4, 6])
    def test_green_weight_curvature_is_one(self, green_mean_i, d):
        a, b = curvature_coefficients(green_mean_i, d)
        assert abs(a - 1.0) < 1e-5

    @pytest.mark.parametrize("d", [4, 6])
    def test_section_weight_curvature_is_degree(self, green_mean_i, d):
        # the Gaussian weight is exactly quadratic, so the five-point
        # stencil is exact up to roundoff
        _, b = curvature_coefficients(green_mean_i, d)
        assert abs(b - d) < 1e-7

    @pytest.mark.parametrize("d", [4, 6])
    def test_ratio_two_over_degree(self, green_mean_i, d):
        a, b = curvature_coefficients(green_mean_i, d)
        assert abs(2.0 * a / b - 2.0 / d) < 1e-6

    def test_one_theta1_call(self, green_mean_i, monkeypatch):
        # the a half's five stencil nodes take one theta1 call; b needs none
        calls = _count(monkeypatch, torus, "theta1")
        curvature_coefficients(green_mean_i, 4)
        assert [np.shape(z) for z, *_ in calls] == [(5,)]

    @pytest.mark.parametrize("tau", STENCIL_TAUS)
    @pytest.mark.parametrize("d", [4, 6])
    def test_matches_one_node_per_call(self, tau, d):
        spec = TorusSpec(tau)
        green = arakelov_green(spec, normalization="meanzero")
        basis = ThetaBasis(spec, d)
        z = complex(torus._CURVATURE_POINT.real, torus._CURVATURE_POINT.imag * spec.tau2)
        h = torus._CURVATURE_STEP * min(1.0, spec.tau2)
        factor = spec.tau2 / (4.0 * math.pi)
        a_ref = -factor * _scalar_laplacian(lambda w: 2.0 * float(green(w)), z, h)
        b_ref = factor * _scalar_laplacian(
            lambda w: -math.log(float(basis.weight(complex(w)))), z, h
        )
        nodes = _stencil_nodes(z, h)
        a, b = curvature_coefficients(green, d)
        assert abs(a - a_ref) <= factor * _stencil_rounding(2.0 * green(nodes), h)
        assert abs(b - b_ref) <= factor * _stencil_rounding(np.log(basis.weight(nodes)), h)

    def test_gamma_invariance(self, green_mean_i, green_max_i):
        # curvature ignores the additive normalization
        a1, b1 = curvature_coefficients(green_mean_i, 4)
        a2, b2 = curvature_coefficients(green_max_i, 4)
        assert abs(a1 - a2) < 1e-9
        assert b1 == b2


class TestResidualMass:
    def test_mass_is_two_over_capacity_squared(self, green_mean_i, green_max_i):
        for green in (green_mean_i, green_max_i):
            cap = torus_capacity(green)
            mass = residual_mass(green)
            assert abs(mass - 2.0 / cap**2) < 1e-8

    def test_theta1_prime0_only_on_the_pole(self, monkeypatch):
        spec = TorusSpec(0.3 + 1.1j)
        green = arakelov_green(spec)
        prime0 = torus.theta1_prime0
        calls = []

        def spy(tau):
            calls.append(tau)
            return prime0(tau)

        monkeypatch.setattr(torus, "theta1_prime0", spy)
        residual_mass(green)
        assert calls == []
        # on the pole the limit log|theta1'(0)|, bit for bit, and the other
        # points as before
        at_pole = abs(prime0(spec.tau))
        assert torus._log_abs_theta_over_z(spec, 0.0) == float(np.log(at_pole))
        z = np.array([0.0, 1e-15j, 0.1 + 0.2j, -0.3 + 0.05j])
        th = theta1(z, spec.tau)
        small = np.abs(z) < 1e-14
        ref = np.log(np.where(small, at_pole, np.abs(th / np.where(small, 1.0, z))))
        assert torus._log_abs_theta_over_z(spec, z).tobytes() == ref.tobytes()
        assert len(calls) == 2


class TestArak1Check:
    # on the thin tori the Laplacian step shrinks with Im tau, and the
    # largest gated residual mass, 178.9 (mean-zero at 0.1i), needs the
    # shell depth 24 to stay inside the absolute 1e-4 gate
    @pytest.mark.parametrize(
        "tau,d",
        [(TAU_I, 4), (TAU_SKEW, 4), (0.3j, 4), (0.2j, 4), (0.15j, 4), (0.12j, 4), (0.1j, 4)],
    )
    def test_record_passes(self, tau, d):
        rec = arak1_check(TorusSpec(tau), d)
        assert rec.passed
        assert rec.primary == "lhs"
        for key, margin in rec.margins.items():
            assert margin >= -rec.tolerances[key], key
        q = rec.quantities
        assert q["lhs"] > q["rhs_meanzero"]
        assert q["lhs"] > q["rhs_maxzero"]
        assert q["diag_spread"] < 1e-12
        assert abs(q["kernel_mean"] / d - 1.0) <= 1e-12
        # between refined-lattice points the diagonal varies: on rectangular
        # tori by 1.8 to 8 times exp(-pi d min(Im tau, 1/Im tau) / 2), which
        # is not small on the thin tori (0.5 + i, skew, reads 4.8 times it)
        s = min(tau.imag, 1.0 / tau.imag)
        assert 0.0 < q["midcell_deviation"] < 10.0 * math.exp(-math.pi * d * s / 2.0)
        assert abs(q["two_a_over_b"] - 2.0 / d) < 1e-6
        assert -1e-3 < q["maxzero_grid_sup"] <= 0.0

    def test_margins_gate_the_reported_values(self):
        # each margin is formed from the quantities the record reports, bit
        # for bit, so a wrong reported value cannot pass its gate
        d = 4
        rec = arak1_check(TorusSpec(TAU_SKEW), d)
        q, m = rec.quantities, rec.margins
        expected = {
            "diag_constancy": -q["diag_spread"],
            "kernel_mean": -abs(q["kernel_mean"] / d - 1.0),
            "laplacian": -q["laplacian_deviation"],
            "curvature_ratio": -abs(q["two_a_over_b"] - 2.0 / d),
            "inequality_meanzero": q["margin_meanzero"],
            "residual_mass_meanzero": -abs(
                q["residual_mass_meanzero"] - q["residual_expected_meanzero"]
            ),
            "inequality_maxzero": q["margin_maxzero"],
            "maxzero_sup": -q["maxzero_grid_sup"],
        }
        assert {k: v.hex() for k, v in m.items()} == {k: v.hex() for k, v in expected.items()}

    @pytest.mark.parametrize("tau", [4j, 6j, 0.3 + 4j])
    def test_tall_tori_pass(self, tau):
        # the curvature stencil scales with Im tau as the Laplacian samples
        # do; at a fixed point and step these three missed the 1e-6 gate by
        # 3e-8 to 5.5e-7
        rec = arak1_check(TorusSpec(tau), 4)
        assert rec.passed, rec.margins
        assert abs(rec.quantities["two_a_over_b"] - 0.5) < 1e-7

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 2j])
    @pytest.mark.parametrize("d", [64, 128, 200])
    def test_high_degrees_pass(self, tau, d):
        # the Gram quadrature the closed form replaced reached its 256-node
        # cap unresolved on 7 of these 9 (all but d = 64 at i and 0.5 + i);
        # at 2i from d = 128 its tau-direction table overflowed to NaN
        rec = arak1_check(TorusSpec(tau), d)
        assert rec.passed, rec.margins
        assert abs(rec.quantities["kernel_diag"] / d - 1.0) < 1e-12

    @pytest.mark.parametrize("tau", BOX_MAXZERO_TAUS + TALL_MAXZERO_TAUS)
    @pytest.mark.parametrize("d", [4, 6])
    def test_saddle_and_tall_maxima_pass(self, tau, d):
        # a polish on a central-difference Hessian converged to the half-period
        # saddle on the four box moduli, and met a singular or indefinite
        # Hessian on the tall ones
        rec = arak1_check(TorusSpec(tau), d)
        assert rec.passed, rec.margins
        assert -1e-3 < rec.quantities["maxzero_grid_sup"] <= 0.0

    def test_flat_maxzero_hessian_fails_cleanly(self, tmp_path, capsys):
        # on the tall torus 20i two half-periods tie at g = 0.0, and along Re z
        # the Hessian reads -1.8e-15, rounding of a true -4e-26: no step rises,
        # and the guard names tau and prints plain floats
        with pytest.raises(AccuracyError, match=r"tau = 20j .* g at least [-\d.e]+ \(half"):
            arak1_check(TorusSpec(20j), 4)
        argv = ["torus-check", "--taus", "20j", "--ds", "4", "--no-cache", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "ZeroDivisionError" not in err
        record = json.loads((tmp_path / "torus_check_report.json").read_text())["records"][0]
        assert record["provenance"] == {"error_flag": "AccuracyError"}

    def test_one_residual_mass_per_record(self, spec_skew, monkeypatch):
        # the max-zero Green function enters through its constant alone
        greens = []
        mass = torus.residual_mass

        def spy(green, t=20.0):
            greens.append(green)
            return mass(green, t)

        monkeypatch.setattr(torus, "residual_mass", spy)
        rec = arak1_check(spec_skew, 4)
        assert [g.normalization for g in greens] == ["meanzero"]
        assert rec.quantities["residual_mass_meanzero"] == mass(greens[0], torus._T_RESIDUAL)
        assert not any("residual_mass_max" in k or "expected_max" in k for k in rec.quantities)

    def test_gates_are_written_against_their_tolerances(self, spec_i):
        # every gated quantity is -value against its gate, so the CSV's tol
        # column shows the gate
        rec = arak1_check(spec_i, 4)
        q, m, tol = rec.quantities, rec.margins, rec.tolerances
        assert m["diag_constancy"] == -q["diag_spread"] and tol["diag_constancy"] == 1e-6
        assert m["kernel_mean"] == -abs(q["kernel_mean"] / 4 - 1.0) and tol["kernel_mean"] == 1e-12
        assert m["laplacian"] == -q["laplacian_deviation"] and tol["laplacian"] == 1e-5
        assert m["curvature_ratio"] == -abs(q["two_a_over_b"] - 0.5) and tol["curvature_ratio"] == 1e-6
        assert m["residual_mass_meanzero"] == -abs(
            q["residual_mass_meanzero"] - q["residual_expected_meanzero"]
        ) and tol["residual_mass_meanzero"] == 1e-4
        assert m["maxzero_sup"] == -q["maxzero_grid_sup"] and tol["maxzero_sup"] == 1e-9
        assert set(m) == {
            "diag_constancy", "kernel_mean", "laplacian", "curvature_ratio", "inequality_meanzero",
            "residual_mass_meanzero", "inequality_maxzero", "maxzero_sup",
        }

    @pytest.mark.parametrize("tau", [TAU_I, TAU_SKEW, 0.15j, 0.12j, 0.1j])
    def test_maxzero_sup_sees_a_raised_constant(self, tau, monkeypatch):
        # a gamma 1e-3 too high lifts g above 0 on the 97^2 grid
        gamma = torus._gamma_maxzero
        monkeypatch.setattr(torus, "_gamma_maxzero", lambda spec: gamma(spec) + 1e-3)
        rec = arak1_check(TorusSpec(tau), 4)
        assert not rec.passed
        assert rec.margins["maxzero_sup"] < -rec.tolerances["maxzero_sup"]

    def test_maxzero_sup_sees_an_unpolished_constant(self, spec_skew, monkeypatch):
        # at 0.5 + i the 96^2 grid maximum lies 5.8e-5 below the supremum,
        # so a constant from a grid search alone fails the record
        monkeypatch.setattr(
            torus, "_gamma_maxzero", lambda spec: -float(np.max(torus._green_grid(spec, 96)))
        )
        rec = arak1_check(spec_skew, 4)
        assert not rec.passed
        assert rec.margins["maxzero_sup"] < -rec.tolerances["maxzero_sup"]

    def test_degree_four_bookkeeping(self, spec_i):
        rec = arak1_check(spec_i, 4)
        assert rec.quantities["delta"] == 1.0
        assert rec.quantities["factor"] == 2.0 * math.pi
        # capacity matches the square-torus closed form
        eta_i = float(mpmath.gamma(0.25) / (2.0 * mpmath.pi ** 0.75))
        assert abs(rec.quantities["capacity_meanzero"] - 2.0 * math.pi * eta_i**2) < 1e-9

    def test_degree_validation(self, spec_i):
        for bad in (5, 2, 0, -4):
            with pytest.raises(ParameterError):
                arak1_check(spec_i, bad)
