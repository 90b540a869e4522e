"""Tests for cyclic hyperbolic groups: the chain-rule orbit of the
generator (the oracle), derivative sums, modulus products, tail bounds,
and the grid inequality record."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chain_rule_orbit

from bergreen import fuchsian
from bergreen.errors import NonConvergenceError, ParameterError
from bergreen.fuchsian import DEFAULT_C_GRID, fuchsian_sums, inequality_check, require_c


def _orbit_sums(c: float, N: int) -> tuple[float, float]:
    """``sum_{|n|<=N} (g^n)'(0)`` and ``prod_{0<|n|<=N} |g^n(0)|^2`` over
    the chain-rule orbit."""
    points, derivs = chain_rule_orbit(c, N)
    return float(np.sum(derivs)), float(np.prod(np.delete(points**2, N)))


class TestCanonicalGenerator:
    """``g(z) = (z + c) / (1 + c z)`` as :func:`chain_rule_orbit` steps it,
    and the precondition ``0 < c < 1`` of the library."""

    @pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.9])
    def test_moves_origin_to_c(self, c):
        points, derivs = chain_rule_orbit(c, 1)
        assert points[2] == pytest.approx(c, abs=1e-15)
        assert points[0] == pytest.approx(-c, abs=1e-15)
        assert derivs[2] == derivs[0] == pytest.approx(1.0 - c * c, rel=1e-15)

    def test_second_iterate_composition_oracle(self):
        points, _ = chain_rule_orbit(0.5, 2)
        # tanh doubling: g(g(0)) = 2c/(1+c^2)
        assert points[4] == pytest.approx(0.8, abs=1e-14)
        assert points[0] == pytest.approx(-0.8, abs=1e-14)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_c_outside_open_interval(self, c):
        with pytest.raises(ParameterError):
            require_c(c)


def _orbit_by_map_calls(c: float, N: int):
    """The orbit of 0 and its derivatives by calling ``g``, ``g^{-1}`` and
    their derivatives one point at a time: the reference for the layout of
    :func:`chain_rule_orbit`."""

    def g(z):
        return (z + c) / (1.0 + c * z)

    def g_inv(z):
        return (z - c) / (1.0 - c * z)

    def dg(z):
        return (1.0 - c * c) / ((1.0 + c * z) * (1.0 + c * z))

    def dg_inv(z):
        return (1.0 - c * c) / ((1.0 - c * z) * (1.0 - c * z))

    points = np.zeros(2 * N + 1)
    derivs = np.ones(2 * N + 1)
    for n in range(N):
        points[N + n + 1] = g(points[N + n])
        derivs[N + n + 1] = dg(points[N + n]) * derivs[N + n]
        points[N - n - 1] = g_inv(points[N - n])
        derivs[N - n - 1] = dg_inv(points[N - n]) * derivs[N - n]
    return points, derivs


class TestCyclicGroup:
    """The orbit of the origin under the group of ``g``, walked by
    :func:`chain_rule_orbit`."""

    @pytest.mark.parametrize("c", DEFAULT_C_GRID)
    def test_orbit_bit_exact_against_map_calls(self, c):
        points, derivs = _orbit_by_map_calls(c, 256)
        chain_points, chain_derivs = chain_rule_orbit(c, 256)
        assert np.array_equal(chain_points, points)
        assert np.array_equal(chain_derivs, derivs)

    def test_orbit_matches_closed_form(self):
        alpha = math.atanh(0.5)
        points, derivs = chain_rule_orbit(0.5, 64)
        ns = np.arange(-64, 65)
        assert np.max(np.abs(points - np.tanh(ns * alpha))) < 1e-12
        assert np.max(np.abs(derivs - 1.0 / np.cosh(ns * alpha) ** 2)) < 1e-12

    def test_orbit_moduli_increase_with_exponent(self):
        points, _ = chain_rule_orbit(0.3, 16)
        mods = np.abs(points)
        assert np.all(np.diff(mods[16:]) > 0)
        assert np.all(np.diff(mods[: 16 + 1][::-1]) > 0)

    @pytest.mark.parametrize(
        "c,N,bound",
        [(c, 256, 1e-12) for c in DEFAULT_C_GRID] + [(0.01, 4096, 5e-10)],
    )
    def test_orbit_sums_match_forty_digits(self, c, N, bound):
        # seen: 2.6e-13 on the grid (the product at c = 0.25), 1.1e-10 on
        # the product at c = 0.01, N = 4096: the walk's rounding accumulates
        total, product = _orbit_sums(c, N)
        exact_total, exact_product = _forty_digit_sums(c, N)
        assert abs(total - exact_total) <= bound * exact_total
        assert abs(product - exact_product) <= bound * exact_product


class TestGroupSums:
    """The two sides of the comparison: the chain-rule orbit's against the
    closed form, and the order of ``fuchsian_sums``."""

    def test_sum_and_product_two_ways(self):
        alpha = math.atanh(0.5)
        total, product = _orbit_sums(0.5, 64)
        ns = np.arange(-64, 65)
        closed_sum = float(np.sum(1.0 / np.cosh(ns * alpha) ** 2))
        closed_prod = float(np.prod(np.delete(np.tanh(ns * alpha) ** 2, 64)))
        assert total == pytest.approx(closed_sum, abs=1e-12)
        assert product == pytest.approx(closed_prod, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.05, 0.95))
    def test_sum_dominates_identity_and_product_below_one(self, c):
        total, product, _ = fuchsian_sums(c, 256)
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
        for c in (-0.5, 1.5):
            with pytest.raises(ParameterError):
                fuchsian_sums(c, 64)

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


def _forty_digit_sums(c: float, N: int) -> tuple[float, float]:
    """``1 + 2 sum sech^2(n alpha)`` and ``prod tanh^4(n alpha)`` over ``n =
    1..N``, ``alpha = artanh c``, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        alpha = mpmath.atanh(mpmath.mpf(c))
        total = 1 + 2 * mpmath.fsum(mpmath.sech(n * alpha) ** 2 for n in range(1, N + 1))
        product = mpmath.fprod(mpmath.tanh(n * alpha) ** 4 for n in range(1, N + 1))
        return float(total), float(product)


class TestClosedFormSums:
    """``fuchsian_sums`` in closed form, against 40 digits and against
    :func:`chain_rule_orbit`."""

    @pytest.mark.parametrize(
        "c,N", [(c, 256) for c in DEFAULT_C_GRID] + [(0.01, 4096), (0.999, 256)]
    )
    def test_matches_forty_digits(self, c, N):
        # the bound was fixed before measuring; the worst seen is 8.9e-15
        total, product, _ = fuchsian_sums(c, N)
        exact_total, exact_product = _forty_digit_sums(c, N)
        assert abs(total - exact_total) <= 1e-13 * exact_total
        assert abs(product - exact_product) <= 1e-13 * exact_product

    @pytest.mark.parametrize("c", DEFAULT_C_GRID)
    def test_matches_the_chain_rule(self, c):
        total, product, _ = fuchsian_sums(c, 256)
        chain_total, chain_product = _orbit_sums(c, 256)
        assert total == pytest.approx(chain_total, rel=1e-12)
        assert product == pytest.approx(chain_product, rel=1e-12)

    def test_no_overflow_near_the_boundary(self):
        # cosh^2(n alpha) overflows from n alpha = 355, here from n = 94
        with np.errstate(over="warn", invalid="warn", divide="warn"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            total, product, _ = fuchsian_sums(0.999, 4096)
        assert math.isfinite(total) and 0.0 < product < 1.0


class TestInequalityCheck:
    def test_default_grid_record(self):
        rec = inequality_check()
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

    def test_close_generators_keep_a_margin_each(self):
        # six significant digits (":g") would key both as margin_c0.123456
        grid = (0.1234561, 0.1234564)
        rec = inequality_check(c_grid=grid)
        assert list(rec.margins) == ["margin_c0.1234561", "margin_c0.1234564"]
        assert rec.tolerances.keys() == rec.margins.keys()
        assert rec.passed

    @pytest.mark.parametrize("grid,N", [(DEFAULT_C_GRID, 256), ((0.01, 0.5, 0.999), 4096)])
    def test_usual_grids_keep_their_keys(self, grid, N):
        # the default grid and CI's: repr and ":g" spell every c the same
        rec = inequality_check(c_grid=grid, N=N)
        assert list(rec.margins) == [f"margin_c{c:g}" for c in grid]

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
