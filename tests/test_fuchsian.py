"""Tests for cyclic hyperbolic groups: orbit closed forms, derivative
sums, modulus products, tail bounds, and the grid inequality record."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergreen import fuchsian
from bergreen.errors import NonConvergenceError, ParameterError
from bergreen.fuchsian import (
    DEFAULT_C_GRID,
    CyclicGroup,
    canonical_generator,
    fuchsian_sums,
    group_sums,
    inequality_check,
)
from bergreen.squeezing import MoebiusMap, normalizer


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


class TestCanonicalGenerator:
    @pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.9])
    def test_moves_origin_to_c(self, c):
        assert canonical_generator(c)(0.0) == pytest.approx(c, abs=1e-15)

    def test_second_iterate_composition_oracle(self):
        g = canonical_generator(0.5)
        # tanh doubling: g(g(0)) = 2c/(1+c^2)
        assert g(g(0.0)) == pytest.approx(0.8, abs=1e-14)

    def test_inverse_returns_origin(self):
        g = canonical_generator(0.5)
        assert abs(g.inverse()(g(0.0))) < 1e-15

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_c_outside_open_interval(self, c):
        with pytest.raises(ParameterError):
            canonical_generator(c)

    def test_hyperbolic_trace(self):
        for c in (0.1, 0.5, 0.9):
            g = canonical_generator(c)
            assert abs(g.trace) == pytest.approx(2.0 / math.sqrt(1 - c * c), rel=1e-14)
            assert abs(g.trace) > 2.0

    def test_preserves_unit_circle(self):
        g = canonical_generator(0.4)
        ring = np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
        assert np.max(np.abs(np.abs(g(ring)) - 1.0)) < 1e-12


def _orbit_by_map_calls(g: MoebiusMap, N: int):
    """The orbit of 0 and its derivatives through ``MoebiusMap.__call__``
    and :func:`deriv`, one point at a time: the reference for the cached
    orbit."""
    ginv = g.inverse()
    points = np.empty(2 * N + 1, dtype=complex)
    derivs = np.empty(2 * N + 1, dtype=complex)
    points[N], derivs[N] = 0.0, 1.0
    for n in range(N):
        points[N + n + 1] = g(points[N + n])
        derivs[N + n + 1] = deriv(g, points[N + n]) * derivs[N + n]
        points[N - n - 1] = ginv(points[N - n])
        derivs[N - n - 1] = deriv(ginv, points[N - n]) * derivs[N - n]
    return points, derivs


class TestCyclicGroup:
    @pytest.mark.parametrize("c", DEFAULT_C_GRID)
    def test_orbit_bit_exact_against_map_calls(self, c):
        g = canonical_generator(c)
        points, derivs = _orbit_by_map_calls(g, 256)
        grp = CyclicGroup(g, 256)
        assert np.array_equal(grp.points, points)
        assert np.array_equal(grp.derivs, derivs)

    def test_complex_orbit_against_map_calls(self):
        # Bit equality holds only for real coefficients: numpy's complex
        # multiply ufunc (behind the 0-d arrays of MoebiusMap) may fuse
        # multiply-adds, its scalar arithmetic does not, so a complex gamma z
        # can differ in the last bit.
        g = normalizer(0.3 + 0.2j)
        points, derivs = _orbit_by_map_calls(g, 16)
        grp = CyclicGroup(g, 16)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(grp.points, points, rtol=4 * eps, atol=0)
        np.testing.assert_allclose(grp.derivs, derivs, rtol=4 * eps, atol=0)

    def test_orbit_matches_closed_form(self):
        alpha = math.atanh(0.5)
        grp = CyclicGroup(canonical_generator(0.5), 64)
        closed_pts = np.tanh(grp.ns * alpha)
        closed_der = 1.0 / np.cosh(grp.ns * alpha) ** 2
        assert np.max(np.abs(grp.points - closed_pts)) < 1e-12
        assert np.max(np.abs(grp.derivs - closed_der)) < 1e-12

    def test_orbit_moduli_increase_with_exponent(self):
        grp = CyclicGroup(canonical_generator(0.3), 16)
        mods = np.abs(grp.points)
        right = mods[grp.N :]
        left = mods[: grp.N + 1][::-1]
        assert np.all(np.diff(right) > 0)
        assert np.all(np.diff(left) > 0)

    def test_rejects_non_hyperbolic_generators(self):
        with pytest.raises(ParameterError):
            CyclicGroup(_rotation(1.0), 8)  # elliptic
        with pytest.raises(ParameterError):
            CyclicGroup(MoebiusMap(1.0, 0.0, 0.0, 1.0), 8)  # identity
        with pytest.raises(ParameterError):
            CyclicGroup(canonical_generator(0.5), 0)

    def test_any_point_normalizer_is_hyperbolic(self):
        # the base-point normalizer moves 0 along a geodesic with two
        # boundary fixed points, so it generates a valid cyclic group
        grp = CyclicGroup(normalizer(0.3 + 0.2j), 16)
        assert np.all(np.abs(grp.points) < 1.0)


class TestGroupSums:
    def test_sum_and_product_two_ways(self):
        alpha = math.atanh(0.5)
        grp = CyclicGroup(canonical_generator(0.5), 64)
        total, product = group_sums(grp)
        ns = grp.ns
        closed_sum = float(np.sum(1.0 / np.cosh(ns * alpha) ** 2))
        mods = np.abs(np.tanh(ns * alpha)) ** 2
        closed_prod = float(np.prod(np.delete(mods, grp.N)))
        assert total == pytest.approx(closed_sum, abs=1e-12)
        assert product == pytest.approx(closed_prod, abs=1e-12)

    def test_rotation_conjugation_invariance(self):
        base = canonical_generator(0.3)
        s0, p0 = group_sums(CyclicGroup(base, 64))
        for theta in (0.7, 2.1, -1.3):
            r = _rotation(theta)
            conj = compose(compose(r, base), r.inverse())
            s1, p1 = group_sums(CyclicGroup(conj, 64))
            assert s1 == pytest.approx(s0, abs=1e-12)
            assert p1 == pytest.approx(p0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.05, 0.95), N=st.integers(8, 128))
    def test_sum_dominates_identity_and_product_below_one(self, c, N):
        total, product = group_sums(CyclicGroup(canonical_generator(c), N))
        assert total >= 1.0  # the identity term alone contributes 1
        assert 0.0 < product <= 1.0
        assert total > product


class TestFuchsianSums:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            fuchsian_sums(0.0, 64)
        with pytest.raises(ParameterError):
            fuchsian_sums(1.0, 64)
        with pytest.raises(ParameterError):
            fuchsian_sums(0.5, 7)

    def test_nonconvergence_at_small_truncation(self):
        with pytest.raises(NonConvergenceError):
            fuchsian_sums(0.05, 8)

    def test_slowest_grid_point_tail(self):
        _, _, tail = fuchsian_sums(0.05, 256)
        assert tail < 1e-8

    @pytest.mark.parametrize("c", [0.05, 0.5, 0.95])
    def test_doubling_truncation_changes_less_than_tail(self, c):
        s1, p1, tail = fuchsian_sums(c, 256)
        s2, p2, _ = fuchsian_sums(c, 512)
        # the geometric tail can fall far below machine epsilon; allow the
        # accumulated roundoff of ~500 multiplications on top of it
        noise = 1e-12
        assert abs(s1 - s2) <= tail + noise * max(1.0, s1)
        assert abs(p1 - p2) <= tail + noise * max(1.0, p1)

    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
    def test_sum_exceeds_product(self, c):
        total, product, _ = fuchsian_sums(c, 256)
        assert total > product


class TestInequalityCheck:
    def test_default_grid_record(self):
        rec = inequality_check()
        assert rec.command == "fuchsian-check"
        assert rec.primary == "min_margin"
        assert rec.passed
        assert rec.quantities["min_margin"] > 0.0
        assert all(v > 0.0 for v in rec.margins.values())
        assert len(rec.margins) == len(DEFAULT_C_GRID)
        tails = [v for k, v in rec.quantities.items() if k.startswith("tail_")]
        assert max(tails) < 1e-8

    @pytest.mark.parametrize("c", [0.1, 0.9])
    def test_single_point_grid(self, c):
        rec = inequality_check(c_grid=(c,))
        assert rec.passed
        assert rec.quantities[f"margin_c{c:g}"] > 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            inequality_check(c_grid=())

    def test_strict_tail_tolerance_propagates(self, monkeypatch):
        monkeypatch.setattr(fuchsian, "_TAIL_TOL", 1e-12)
        with pytest.raises(NonConvergenceError):
            inequality_check(c_grid=(0.05,), N=256)

    def test_nan_sum_reaches_the_primary_value(self, monkeypatch):
        # Python's min skips a NaN that is not first; the primary must not
        calls = []

        def spoiled(c, N, **kwargs):
            total, product, tail = fuchsian_sums(c, N, **kwargs)
            calls.append(c)
            return (math.nan if len(calls) == 2 else total), product, tail

        monkeypatch.setattr(fuchsian, "fuchsian_sums", spoiled)
        rec = inequality_check(c_grid=(0.1, 0.5, 0.9))
        assert len(calls) == 3
        assert math.isnan(rec.quantities["min_margin"])
        assert not rec.passed
