"""Acceptance suite: eleven end-to-end criteria, each with stated
tolerances and a wall-clock budget.  Every test prints one
``PASS criterion N: ...`` line with the measured margins on success;
pytest's own PASSED/FAILED verdict is the per-criterion pass/fail line."""

import cmath
import inspect
import math
import time

import numpy as np
import pytest
from oracles import auto_basis, chain_rule_orbit, laurent_robin, min_norm_quadrature
from scipy.integrate import quad

from bergreen.bergman import (
    HarmonicLog,
    HarmonicRe,
    MaxPiece,
    Unweighted,
    extended_suita_check,
    kernel_diag,
    least_norm_extension,
    suita_ratio,
)
from bergreen.cli import main as cli_main
from bergreen.domains import Annulus, Disc, capacity, green_evaluator
from bergreen.extension import (
    cutoff_limit_check,
    make_cutoff,
    ode_pair,
    ode_residual,
    optimal_constant_experiment,
    residual_measure,
)
from bergreen.fuchsian import fuchsian_sums
from bergreen.squeezing import boundary_trend_check, sandwich_check
from bergreen.torus import TorusSpec, arak1_check


def _band_points(r_inner: float, n: int) -> list[complex]:
    """Deterministic interior sweep: radii across the middle band of the
    annulus, angles stepping uniformly (matches the CLI sweep)."""
    lo = r_inner + 0.125 * (1.0 - r_inner)
    hi = r_inner + 0.5 * (1.0 - r_inner)
    radii = np.linspace(lo, hi, n)
    return [
        complex(r * cmath.exp(2j * math.pi * i / n)) for i, r in enumerate(radii)
    ]


def _finish(n: int, budget: float, start: float, detail: str) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS criterion {n}: {detail} [{elapsed:.1f}s]")


def test_criterion_01_disc_equality():
    """Disc equality case: the capacity/kernel ratio is exactly 1."""
    start = time.perf_counter()
    disc = Disc()
    nystrom = green_evaluator(disc, method="nystrom")
    worst_closed = worst_pipeline = 0.0
    for z in (0.0, 0.3, 0.6j):
        closed = suita_ratio(disc, z).quantities["ratio"]
        assert abs(closed - 1.0) < 1e-12
        kernel = kernel_diag(disc, Unweighted(), z).value
        pipeline = capacity(nystrom, z) ** 2 / (math.pi * kernel)
        assert abs(pipeline - 1.0) < 1e-6
        worst_closed = max(worst_closed, abs(closed - 1.0))
        worst_pipeline = max(worst_pipeline, abs(pipeline - 1.0))
    _finish(
        1,
        10.0,
        start,
        f"disc ratio=1 within {worst_closed:.1e} closed-form, "
        f"{worst_pipeline:.1e} via Nystrom+Gram pipeline at 3 points",
    )


def test_criterion_02_annulus_strict_inequality():
    """Annulus: the ratio sits strictly inside (0, 1) at 8 points, and it
    stays within 1e-6 when the capacity comes from 512 Laurent modes (the
    oracle of the prime-function route) and the basis is doubled.

    The binding endpoint margin is the distance from 0 (> 1e-3 required);
    strictness below 1 is certified at > 1e-5, an order beyond the 1e-6
    doubling stability, so no truncation choice can close the gap."""
    start = time.perf_counter()
    ann = Annulus(0.2)
    lo_margin = hi_margin = 1.0
    worst_shift = 0.0
    for z in _band_points(0.2, 8):
        ratio = suita_ratio(ann, z).quantities["ratio"]
        assert 0.0 < ratio < 1.0
        assert ratio > 1e-3  # margin from the lower endpoint
        assert 1.0 - ratio > 1e-5  # strict at the upper endpoint
        base = auto_basis(ann, z)
        robin = laurent_robin(ann.r_inner, z, 512)
        kernel = kernel_diag(ann, Unweighted(), z, basis=(2 * base[0], 2 * base[1])).value
        doubled = math.exp(robin) ** 2 / (math.pi * kernel)
        assert abs(doubled - ratio) <= 1e-6
        lo_margin = min(lo_margin, ratio)
        hi_margin = min(hi_margin, 1.0 - ratio)
        worst_shift = max(worst_shift, abs(doubled - ratio))
    _finish(
        2,
        30.0,
        start,
        f"8 annulus points in (0,1): >= {lo_margin:.3f} from 0, "
        f">= {hi_margin:.1e} below 1, doubling shift <= {worst_shift:.1e}",
    )


def test_criterion_03_optimal_constant_limit():
    """Plateau-shrinking experiment reaches (1+1/delta) pi e^{-eps}."""
    start = time.perf_counter()
    worst_rel = worst_cross = 0.0
    for delta in (0.5, 1.0, 2.0):
        for eps in (0.0, 0.1):
            rec = optimal_constant_experiment(delta, eps)
            q = rec.quantities
            a_values = inspect.signature(optimal_constant_experiment).parameters["a_values"].default
            assert a_values[-1] == 1e-4
            rel = abs(q[f"ratio_{len(a_values) - 1}"] - q["target"]) / q["target"]
            assert rel < 0.01
            assert rec.passed
            for a in a_values[:3]:
                assert a in (0.5, 0.1, 0.01)
                closed, _ = least_norm_extension(Disc(), MaxPiece(delta, a), 0.0, 1.0, basis=(0, 8))
                cross = abs(closed - min_norm_quadrature(delta, a)) / abs(closed)
                assert cross < 1e-6
                worst_cross = max(worst_cross, cross)
            worst_rel = max(worst_rel, rel)
    _finish(
        3,
        30.0,
        start,
        f"6 (delta,eps) pairs: ratio at a=1e-4 within {worst_rel:.2%} of "
        f"(1+1/delta)pi e^-eps; route agreement <= {worst_cross:.1e}",
    )


def test_criterion_04_ode_pair():
    """Closed-form ODE pair: identity residuals, positivity, and limit."""
    start = time.perf_counter()
    grid = np.geomspace(0.01, 50.0, 200)
    worst_r = worst_end = 0.0
    for delta in (0.1, 0.5, 1.0, 2.0, 10.0):
        pair = ode_pair(delta)
        for t in grid:
            r1, r2 = ode_residual(pair, float(t))
            assert abs(r1) < 1e-9 and abs(r2) < 1e-9
            worst_r = max(worst_r, abs(r1), abs(r2))
        s = pair.s(grid)
        assert np.all(s >= 1.0 / delta)
        assert np.all(pair.s_prime(grid) > 0.0)
        assert np.all(pair.u_second(grid) * s - pair.s_second(grid) > 0.0)
        end_gap = abs(pair.u(50.0) + math.log(1.0 + 1.0 / delta))
        assert end_gap < 1e-6
        worst_end = max(worst_end, end_gap)
    _finish(
        4,
        5.0,
        start,
        f"5 deltas x 200 t: residuals <= {worst_r:.1e}, positivity holds, "
        f"u(50) within {worst_end:.1e} of -log(1+1/delta)",
    )


def test_criterion_05_cutoff_family():
    """Cutoff family: anchoring, derivative bounds, convexity, unit mass,
    and the sup-gap to the limiting slope decreasing in eps."""
    start = time.perf_counter()
    for t0 in (1.0, 5.0):
        for eps in (0.2, 0.05):
            fam = make_cutoff(t0, eps)
            ts = np.linspace(-t0 - 3.0, -t0 + 3.0, 10_000)
            v, vp, vpp = fam.v(ts), fam.v_prime(ts), fam.v_second(ts)
            # (1) linear anchoring on the right, constant on the left
            right = ts[ts >= -t0 - eps]
            assert np.max(np.abs(fam.v(right) - right)) < 1e-12
            left = ts[ts < -t0 - 1.0 + eps]
            assert np.max(np.abs(fam.v(left) - fam.v(left[0]))) < 1e-12
            # (2) derivative bounds 0 <= v' <= 1, 0 <= v'' <= 2
            assert np.all(vp >= -1e-12) and np.all(vp <= 1.0 + 1e-12)
            assert np.all(vpp >= -1e-12) and np.all(vpp <= 2.0 + 1e-12)
            # (3) convex and nondecreasing
            assert np.all(np.diff(v) >= -1e-12)
            # unit mass of v'' by adaptive quadrature
            mass = quad(fam.v_second, -t0 - 1.0, -t0, limit=200)[0]
            assert abs(mass - 1.0) < 1e-8
    gaps = {}
    for t0 in (1.0, 5.0):
        rec = cutoff_limit_check(t0, (0.2, 0.1, 0.05, 0.01))
        assert rec.passed
        seq = [rec.quantities[f"sup_gap_eps_{e:g}"] for e in (0.2, 0.1, 0.05, 0.01)]
        assert all(b < a for a, b in zip(seq[:-1], seq[1:]))
        gaps[t0] = seq[-1]
    _finish(
        5,
        10.0,
        start,
        "4 (t0,eps) members satisfy anchoring/bounds/convexity at 1e4 "
        f"samples, unit mass within 1e-8; sup-gap decreasing to "
        f"{gaps[1.0]:.3f} (t0=1) and {gaps[5.0]:.3f} (t0=5)",
    )


def test_criterion_06_residual_measure():
    """Shell measure of a log-pole potential concentrates to e^{-psi0} f(0)."""
    start = time.perf_counter()
    profiles = {
        "one": lambda z: np.ones(np.shape(z)),
        "affine": lambda z: 1.0 + np.asarray(z, dtype=complex).real,
    }
    worst = 0.0
    for psi0 in (0.0, -0.7, 0.3):
        for name, f in profiles.items():
            mass = residual_measure(lambda z: np.full(np.shape(z), psi0, dtype=float), f, 20.0)
            gap = abs(mass - math.exp(-psi0))  # f(0) = 1 for both profiles
            assert gap < 1e-3
            worst = max(worst, gap)
    _finish(
        6,
        10.0,
        start,
        f"6 (psi0, f) combinations at t=20 within {worst:.1e} of e^-psi0 f(0)",
    )


def test_criterion_07_fuchsian_inequality():
    """Orbit sums beat orbit products with certified tails; the chain-rule
    orbit derivatives match the hyperbolic-translation closed form."""
    start = time.perf_counter()
    c_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    min_margin, max_tail, worst_deriv = math.inf, 0.0, 0.0
    for c in c_grid:
        total, product, tail = fuchsian_sums(c, 256)
        assert total - product > 0.0
        assert tail < 1e-8
        min_margin = min(min_margin, total - product)
        max_tail = max(max_tail, tail)
        _, derivs = chain_rule_orbit(c, 256)
        x = np.arange(-256, 257) * math.atanh(c)
        # 1/cosh^2 via logs to stay finite at |n| alpha beyond overflow
        closed = np.exp(2.0 * (math.log(2.0) - np.logaddexp(x, -x)))
        dev = float(np.max(np.abs(derivs - closed)))
        assert dev < 1e-12
        worst_deriv = max(worst_deriv, dev)
    _finish(
        7,
        5.0,
        start,
        f"19 generators at N=256: margin >= {min_margin:.3f}, tail <= "
        f"{max_tail:.1e}, chain vs closed derivatives within {worst_deriv:.1e}",
    )


def test_criterion_08_squeezing_sandwich():
    """Squeeze bound and boundary trend on two annuli."""
    start = time.perf_counter()
    worst_lower = worst_upper = math.inf
    for r_inner in (0.2, 0.04):
        ann = Annulus(r_inner)
        for p in _band_points(r_inner, 8):
            rec = sandwich_check(ann, p)
            assert rec.passed
            ratio = rec.quantities["ratio"]
            assert rec.quantities["squeeze_lower_sq"] <= ratio + 1e-6
            assert ratio <= 1.0 + 1e-6
            worst_lower = min(worst_lower, rec.margins["lower"])
            worst_upper = min(worst_upper, rec.margins["upper"])
        trend = boundary_trend_check(ann, ks=(1, 2, 3, 4))
        assert trend.passed
        seq = [trend.quantities[f"ratio_k{k}"] for k in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(seq[:-1], seq[1:]))  # increasing
        assert all(s <= 1.0 + 1e-6 for s in seq)  # toward 1 from inside
    _finish(
        8,
        60.0,
        start,
        f"16 sandwich points on A(0.2,1), A(0.04,1): lower margin >= "
        f"{worst_lower:.1e}, upper margin >= {worst_upper:.1e}; boundary "
        f"trend increasing toward 1 for k=1..4",
    )


def test_criterion_09_torus_inequality():
    """Flat-torus global inequality with all bookkeeping identities."""
    start = time.perf_counter()
    lines = []
    for tau in (1j, 0.5 + 1j):
        for d in (4, 6):
            rec = arak1_check(TorusSpec(tau), d)
            assert rec.passed
            q = rec.quantities
            assert q["laplacian_deviation"] < 1e-5  # volume Laplacian = -1
            assert q["diag_spread"] < 1e-6  # 3 base points
            assert abs(q["two_a_over_b"] - 2.0 / d) < 1e-6
            for norm in ("meanzero", "maxzero"):
                assert rec.margins[f"inequality_{norm}"] >= -1e-9
            # one residual mass: the max-zero one repeats it, shifted in t
            assert abs(q["residual_mass_meanzero"] - q["residual_expected_meanzero"]) < 1e-4
            # the max-zero g stays at or below 0 on a grid apart from the polish's
            assert q["maxzero_grid_sup"] <= 1e-9
            lines.append(
                f"tau={tau},d={d}: margins "
                f"{rec.margins['inequality_meanzero']:.2f}/"
                f"{rec.margins['inequality_maxzero']:.2f}"
            )
    _finish(9, 120.0, start, "; ".join(lines))


def test_criterion_10_extended_suita():
    """Weighted kernel comparison for two harmonic weights; the trivial
    weight reproduces the unweighted ratio of criterion 2."""
    start = time.perf_counter()
    ann = Annulus(0.2)
    points = _band_points(0.2, 4)
    worst_margin = math.inf
    for weight in (HarmonicLog(0.3), HarmonicRe(0.2)):
        for z in points:
            rec = extended_suita_check(ann, weight, z)
            margin = rec.quantities["margin"]
            # the log margin at its tolerance of a few ulps of the logs
            assert margin >= -rec.tolerances["upper"] and rec.tolerances["upper"] < 1e-14
            worst_margin = min(worst_margin, margin)
    worst_red = 0.0
    for z in points:
        q0 = extended_suita_check(ann, Unweighted(), z).quantities
        implied = q0["ratio"]
        ratio = suita_ratio(ann, z).quantities["ratio"]
        assert abs(implied - ratio) < 1e-9
        worst_red = max(worst_red, abs(implied - ratio))
    _finish(
        10,
        60.0,
        start,
        f"HarmonicLog(0.3)/HarmonicRe(0.2) margins >= {worst_margin:.1e} at "
        f"4 points; trivial weight reduces to the unweighted ratio within "
        f"{worst_red:.1e}",
    )


def test_criterion_11_determinism(tmp_path):
    """Two fresh runs of the full pipeline emit byte-identical CSVs."""
    start = time.perf_counter()
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        assert cli_main(["all", "--no-cache", "--outdir", str(outdir)]) == 0
        outs.append((outdir / "all_summary.csv").read_bytes())
    assert outs[0] == outs[1]
    n_rows = len(outs[0].splitlines()) - 1
    _finish(
        11,
        300.0,
        start,
        f"two `all` runs produced byte-identical {n_rows}-row CSV summaries",
    )
