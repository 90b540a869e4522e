"""Tests for the command-line harness: config resolution and precedence,
validation failures, report/CSV/plot-data emission, the content-addressed
cache, exit codes, determinism, and the report-layer helpers."""

import csv
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from bergreen import bergman, cli, domains, extension, fuchsian, reports, squeezing, torus
from bergreen.bergman import HarmonicRe, extended_suita_check
from bergreen.cli import (
    _parse_grid,
    _sweep_points,
    main,
    resolve_config,
)
from bergreen.domains import Annulus, Disc, GreenEvaluator, Jordan
from bergreen.errors import ConfigError, ParameterError
from bergreen.reports import (
    CSV_COLUMNS,
    cache_load,
    cache_store,
    config_hash,
    csv_summary_text,
    make_record,
    write_json_report,
)


# every public parameter and dataclass field with a default in the library
# modules, and what sets it; any other numerical setting is a private module
# constant beside the code that reads it, which a test monkeypatches
_SETTABLE_DEFAULTS = {
    "bergman.gram_matrix.basis": "least_norm_extension passes the basis of its caller",
    "bergman.gram_matrix.gram_tol": "benchmarks/spans.py binds it",
    "bergman.gram_matrix.quad_start": "benchmarks/spans.py binds it",
    "bergman.kernel_diag.basis": "the tests' modal sums pass it, the oracle of the closed forms",
    "bergman.least_norm_extension.basis": "optimal-constant passes (0, 8)",
    "domains.Disc.radius": "every command with a domain passes it, from disc:R",
    "domains.green_evaluator.method": "the CLI schema reads it (green --method)",
    "domains.sample_interior.seed": "benchmarks/workloads.py passes it",
    "domains.sample_interior.margin": "benchmarks/workloads.py passes it",
    "extension.residual_record.t": "the CLI schema reads it (residual-measure --t)",
    "extension.optimal_constant_experiment.a_values": "the CLI schema reads it (--a-values)",
    "fuchsian.inequality_check.c_grid": "the CLI schema reads it (--c-grid)",
    "fuchsian.inequality_check.N": "the CLI schema reads it (--n-terms)",
    "squeezing.boundary_trend_check.ks": "the CLI schema reads it (--ks)",
    "squeezing.boundary_trend_check.angle": "the CLI schema reads it (--angle)",
    "torus.theta1.terms": "benchmarks/spans.py binds it",
    "torus.theta1_term_count.terms": "theta1 passes it its own terms",
    "torus.arakelov_green.normalization": "benchmarks/spans.py binds it; torus-check passes it",
    "torus.residual_mass.t": "benchmarks/spans.py binds it; torus-check passes it",
    "reports.ReportRecord.provenance": "a field of the record",
    "reports.ReportRecord.wall_time_s": "a field of the record",
    "reports.ReportRecord.library_version": "a field of the record",
    "reports.ReportRecord.config_hash": "a field of the record",
    "reports.ReportRecord.cached": "a field of the record",
}


def _parameter_defaults(fn) -> list[str]:
    return [
        p.name for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def _settable_defaults() -> set[str]:
    """``module.callable.name`` of every parameter with a default, and
    every dataclass field with a default, of the public callables of the
    library modules, and ``module.Class.method.name`` of every parameter
    with a default of the public methods, classmethods and staticmethods of
    their public classes."""
    found = set()
    for module in (bergman, domains, extension, fuchsian, reports, squeezing, torus):
        short = module.__name__.rpartition(".")[2]
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            defaults = [
                f.name for f in (fields(obj) if is_dataclass(obj) else ())
                if f.default is not MISSING or f.default_factory is not MISSING
            ]
            defaults += _parameter_defaults(obj)
            if inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)  # classmethod, staticmethod
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        defaults += [f"{attr}.{d}" for d in _parameter_defaults(fn)]
            found |= {f"{short}.{name}.{d}" for d in defaults if not d.startswith("_")}
    return found


# one small run of each command, with the checks its records come from
_ONE_RUN_PER_COMMAND = [
    (["green"], ["domains.green_record"]),
    (["capacity"], ["domains.capacity_record"]),
    (["bergman"], ["bergman.kernel_record"]),
    (["suita-check", "--points", "2"], ["bergman.suita_ratio"]),
    (["extended-suita-check", "--points", "1"], ["bergman.extended_suita_check"]),
    (["optimal-constant", "--deltas", "1", "--epss", "0"], ["extension.optimal_constant_experiment"]),
    (["ode-check", "--deltas", "1", "--t-grid", "log:0.1:50:20"], ["extension.ode_record"]),
    (["cutoff-check"], ["extension.cutoff_limit_check"]),
    (["residual-measure", "--psi0s", "0", "--fs", "one"], ["extension.residual_record"]),
    (
        ["squeeze-check", "--points", "1", "--ks", "1,2"],
        ["squeezing.sandwich_check", "squeezing.boundary_trend_check"],
    ),
    (["fuchsian-check"], ["fuchsian.inequality_check"]),
    (["torus-check", "--taus", "1j", "--ds", "4"], ["torus.arak1_check"]),
]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Value parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_grid_log(self):
        g = _parse_grid("log:0.01:50:200")
        assert len(g) == 200
        assert g[0] == pytest.approx(0.01)
        assert g[-1] == pytest.approx(50.0)
        ratios = g[1:] / g[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_grid_lin(self):
        g = _parse_grid("lin:0:1:5")
        assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_comma(self):
        assert np.allclose(_parse_grid("0.5, 1, 2"), [0.5, 1.0, 2.0])

    @pytest.mark.parametrize(
        "spec",
        [
            "log:0:1:10", "log:1:0.5:10", "lin:1:0:10", "log:0.1:1", "lin:0:1:1", "",
            "log:1:inf:5", "lin:-inf:1:5", "lin:-1e308:1e308:5", "1,inf", "nan",
        ],
    )
    def test_grid_rejects(self, spec):
        with pytest.raises(ConfigError):
            _parse_grid(spec)

    # the grammars and their own tests live in domains and bergman; these
    # check that the config path accepts each kind and wraps each rejection
    def test_domain_specs(self, tmp_path):
        for spec in ["disc", "disc:2.0", "annulus:0.2", "ellipse:1.0:0.5"]:
            assert resolve_config("capacity", None, {"domain": spec, "outdir": str(tmp_path)})

    @pytest.mark.parametrize(
        "spec", ["square", "annulus", "annulus:1.5", "disc:-1", "jordan:", "jordan:/nope.txt"]
    )
    def test_domain_rejects(self, tmp_path, spec):
        with pytest.raises(ConfigError, match=spec):
            resolve_config("capacity", None, {"domain": spec, "outdir": str(tmp_path)})

    def test_weight_specs(self, tmp_path):
        for spec in ["none", "harmoniclog:0.3", "harmonicre:0.2", "maxpiece:1.0:0.5"]:
            assert resolve_config("bergman", None, {"weight": spec, "outdir": str(tmp_path)})

    @pytest.mark.parametrize("spec", ["gauss", "harmoniclog:", "maxpiece:1.0"])
    def test_weight_rejects(self, tmp_path, spec):
        with pytest.raises(ConfigError, match=spec):
            resolve_config("bergman", None, {"weight": spec, "outdir": str(tmp_path)})

    def test_sweep_points_annulus_band(self):
        pts = _sweep_points(Annulus(0.2), 8)
        assert len(pts) == 8
        radii = [abs(p) for p in pts]
        assert min(radii) == pytest.approx(0.3)
        assert max(radii) == pytest.approx(0.6)

    def test_sweep_points_deterministic(self):
        assert _sweep_points(Disc(), 5) == _sweep_points(Disc(), 5)

    def test_sweep_points_rejects_jordan(self):
        with pytest.raises(ConfigError):
            _sweep_points(Jordan.ellipse(1.0, 0.5), 4)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


class TestResolveConfig:
    def test_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BERGREEN_OUTDIR", str(tmp_path / "envout"))
        cfg = resolve_config("suita-check")
        assert cfg["domain"] == "annulus:0.2"
        assert cfg["points"] == 8
        assert cfg["outdir"] == str(tmp_path / "envout")
        assert cfg["cache"] is True

    def test_file_then_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"points": 3, "domain": "annulus:0.4"}))
        cfg = resolve_config(
            "suita-check", str(path), {"points": "2", "outdir": str(tmp_path)}
        )
        assert cfg["points"] == 2  # flag wins
        assert cfg["domain"] == "annulus:0.4"  # file survives where no flag given

    def test_none_overrides_ignored(self, tmp_path):
        cfg = resolve_config(
            "suita-check", None, {"points": None, "outdir": str(tmp_path)}
        )
        assert cfg["points"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spam": 1}))
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config("suita-check", str(path), {"outdir": str(tmp_path)})

    def test_command_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "ode-check"}))
        with pytest.raises(ConfigError, match="for command"):
            resolve_config("suita-check", str(path), {"outdir": str(tmp_path)})

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "deltas": [1.0,]\n}')
        with pytest.raises(ConfigError, match=r"bad\.json:2"):
            resolve_config("ode-check", str(path), {"outdir": str(tmp_path)})

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("suita-check", {"ratio_tol": "0"}),
            ("suita-check", {"ratio_tol": "-1e-6"}),
            ("suita-check", {"points": "0"}),
            ("ode-check", {"deltas": ""}),
            ("ode-check", {"t_grid": "log:0:1:5"}),
            ("residual-measure", {"fs": "one,gauss"}),
            ("residual-measure", {"t": "-2"}),
            ("torus-check", {"taus": "1j,0.5-1j"}),
            ("capacity", {"domain": "annulus:2"}),
            ("bergman", {"weight": "gauss:1"}),
            ("squeeze-check", {"domain": "ellipse:1:0.5"}),
            ("bergman", {"domain": "ellipse:1:0.5"}),
            ("suita-check", {"domain": "ellipse:1:0.5", "zs": "0.1"}),
            ("extended-suita-check", {"domain": "ellipse:1:0.5", "zs": "0.1"}),
            ("squeeze-check", {"domain": "ellipse:1:0.5", "ps": "0.1"}),
            ("green", {"method": "bogus"}),
            ("suita-check", {"zs": "0.3", "ratio_tol": "inf"}),
            ("extended-suita-check", {"margin_tol": "inf"}),
            ("torus-check", {"lap_tol": "nan"}),
            ("residual-measure", {"t": "inf"}),
            ("fuchsian-check", {"n_terms": "0"}),
            ("squeeze-check", {"ks": ""}),
            ("capacity", {"domain": "jordan:/nope.txt"}),
            ("bergman", {"weight": "maxpiece:1.0"}),
            ("torus-check", {"taus": "1j", "ds": "3"}),
            ("torus-check", {"ds": "4,8,10,2"}),
            ("optimal-constant", {"deltas": "-1"}),
            ("optimal-constant", {"deltas": "0"}),
            ("optimal-constant", {"deltas": "inf"}),
            ("optimal-constant", {"epss": "-0.1"}),
            ("optimal-constant", {"epss": "nan"}),
            ("squeeze-check", {"ks": "0,1"}),
            ("squeeze-check", {"angle": "nan"}),
            ("squeeze-check", {"points": "1", "ks": "2,1"}),
            ("fuchsian-check", {"c_grid": "1.5"}),
            ("optimal-constant", {"a_values": "0.5,1.5"}),
            ("cutoff-check", {"eps_sequence": "0.1,0.2"}),
            ("fuchsian-check", {"n_terms": "5"}),
            ("cutoff-check", {"t0s": "nan"}),
            ("cutoff-check", {"t0s": "1,inf"}),
            ("ode-check", {"deltas": "0"}),
            ("ode-check", {"deltas": "1,nan"}),
            ("residual-measure", {"psi0s": "nan"}),
            ("torus-check", {"taus": "nan+1j"}),
            ("cutoff-check", {"t0s": "1e16"}),
            ("green", {"method": "closed_form"}),
            ("green", {"method": "laurent_modes"}),
        ],
    )
    def test_validation_failures(self, tmp_path, command, overrides):
        overrides = dict(overrides, outdir=str(tmp_path))
        with pytest.raises(ConfigError):
            resolve_config(command, None, overrides)

    def test_explicit_points_allow_jordan(self, tmp_path):
        cfg = resolve_config(
            "suita-check",
            None,
            {"domain": "disc", "zs": "0.1,0.2j", "outdir": str(tmp_path)},
        )
        assert cfg["zs"] == ["(0.1+0j)", "0.2j"]

    def test_complex_canonicalization(self, tmp_path):
        cfg = resolve_config(
            "green", None, {"xi": "0.5 + 0.25j", "outdir": str(tmp_path)}
        )
        assert complex(cfg["xi"]) == 0.5 + 0.25j

    def test_config_is_json_serializable(self, tmp_path):
        cfg = resolve_config("torus-check", None, {"outdir": str(tmp_path)})
        json.dumps(cfg)  # must not raise

    @pytest.mark.parametrize("command", list(cli.PARAMS))
    def test_default_config_resolves_to_itself(self, tmp_path, command):
        cfg = resolve_config(command, None, {"outdir": str(tmp_path)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert resolve_config(command, str(path)) == cfg

    @pytest.mark.parametrize("sub,overrides", cli._ALL_SEQUENCE)
    def test_all_sequence_entries_resolve(self, tmp_path, sub, overrides):
        cfg = resolve_config(sub, None, {**overrides, "outdir": str(tmp_path)})
        assert cfg["command"] == sub and list(cli.CHECKS[sub](cfg))

    def test_suita_check_with_infinite_tolerance_exits_2(self, tmp_path, capsys):
        # a gate tolerance is a constant of its check, settable neither by
        # flag nor by config file
        out = tmp_path / "out"
        argv = ["suita-check", "--zs", "0.3", "--ratio-tol", "inf", "--outdir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --ratio-tol inf" in capsys.readouterr().err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"zs": "0.3", "ratio_tol": "inf"}))
        assert main(["suita-check", "--config", str(path), "--outdir", str(out)]) == 2
        assert "unknown config key 'ratio_tol'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_tolerance_is_a_parameter(self, tmp_path):
        assert [name for schema in cli.PARAMS.values() for name in schema
                if name.endswith("_tol")] == []
        for command, expand in cli.CHECKS.items():
            for case in expand(resolve_config(command, None, {"outdir": str(tmp_path)})):
                module, _, name = case.check.partition(".")
                check = getattr(sys.modules[f"bergreen.{module}"], name)
                assert [k for k in inspect.signature(check).parameters if k.endswith("_tol")] == []

    def test_every_settable_default_has_a_reader(self):
        # the settings analogue of the test above: a default that no
        # command, record or benchmark sets is a private constant instead
        assert _settable_defaults() == set(_SETTABLE_DEFAULTS)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["torus-check", "--taus", "1j", "--ds", "3"], "ds: degree d = 3 must be even"),
            (["optimal-constant", "--deltas", "-1"], "deltas: delta must be finite and positive"),
            (["optimal-constant", "--epss", "-0.1"], "epss: eps must be finite and nonnegative"),
            (["squeeze-check", "--ks", "0,1"], "ks: trend exponent k = 0 must be at least 1"),
            (["squeeze-check", "--angle", "nan"], "angle: trend angle must be finite"),
            (["squeeze-check", "--points", "1", "--ks", "2,1"],
             "ks: k sequence must be strictly increasing"),
            (["squeeze-check", "--ks", "1,1"], "ks: k sequence must be strictly increasing"),
            (["fuchsian-check", "--c-grid", "1.5"], "c_grid: generator parameter c = 1.5 must lie"),
            (["optimal-constant", "--a-values", "0.5,1.5"], "a_values: a values must lie in (0, 1)"),
            (["optimal-constant", "--a-values", "0.1,0.5"],
             "a_values: a sequence must be strictly decreasing"),
            (["cutoff-check", "--eps-sequence", "0.1,0.2"],
             "eps_sequence: eps sequence must be strictly decreasing"),
            (["cutoff-check", "--eps-sequence", "0.3,0.2"], "eps_sequence: eps must lie in (0, 1/4)"),
            # every point of a t grid is checked, and a grid of infinite
            # points is rejected before any is computed
            (["ode-check", "--deltas", "1", "--t-grid", "1,inf"], "t_grid: grid points must be finite"),
            (["ode-check", "--deltas", "1", "--t-grid", "log:1:inf:5"],
             "t_grid: grid points must be finite"),
            (["ode-check", "--deltas", "1", "--t-grid", "lin:0:10:5"],
             "t_grid: ode_residual requires t > 0"),
            # a subnormal inner radius holds fewer than 53 significant bits,
            # and the closed-form kernel divides by zero next to it
            *[
                ([command, "--domain", f"annulus:{r}", point, "1e-155"],
                 f"'annulus:{r}': annulus requires sys.float_info.min (2.2e-308) <= r_inner < 1")
                for r in ("1e-310", "5e-324")
                for command, point in (("capacity", "--z"), ("suita-check", "--zs"))
            ],
        ],
    )
    def test_out_of_range_parameter_exits_2(self, tmp_path, capsys, argv, message):
        # each range is the precondition of the check that owns the parameter
        assert main([*argv, "--outdir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_looped_jordan_file_exits_2(self, tmp_path, capsys):
        # a small inner loop: samples apart, winding +1, but turning number 2
        curve = tmp_path / "looped.txt"
        curve.write_text("1 1.0 0.0\n2 0.6 0.0\n")
        out = tmp_path / "out"
        argv = ["capacity", f"--domain=jordan:{curve}", "--z=0.1", "--outdir", str(out)]
        assert main(argv) == 2
        assert "tangent turns 2.000 times, not once" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    def test_ode_check_keeps_infinite_delta(self, tmp_path):
        # ode_pair has a finite limit as delta -> inf, so only delta > 0 is stated
        cfg = resolve_config("ode-check", None, {"deltas": "inf", "outdir": str(tmp_path)})
        assert cfg["deltas"] == [math.inf]


class TestOneBlasPool:
    """Every dense solve goes through ``numpy.linalg``: a Nystrom capacity,
    a Nystrom Green function and a dense Bergman kernel load no
    ``scipy.linalg``, and with it no second OpenBLAS.  Importing the CLI
    loads no scipy module at all, ``torus-check`` loads no
    ``scipy.integrate``, and after ``all`` no scipy module is loaded:
    scipy is a test dependency only."""

    SCRIPT = """
import sys
from bergreen import bergman, cli
from bergreen.domains import Annulus
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import"
out = sys.argv[1]
assert cli.main(["capacity", "--domain", "ellipse:1.2:0.7", "--z", "0.1+0.05j",
                 "--no-cache", "--outdir", out]) == 0
assert cli.main(["green", "--domain", "annulus:0.2", "--method", "nystrom",
                 "--xi", "0.5", "--z", "0.4j", "--no-cache", "--outdir", out]) == 0
assert "scipy.linalg" not in sys.modules, "cli"
bergman.kernel_diag(Annulus(0.2), bergman.HarmonicRe(0.2), 0.3 + 0.1j)
assert "scipy.linalg" not in sys.modules, "kernel_diag"
assert cli.main(["torus-check", "--taus", "0.3+1.1j", "--ds", "4",
                 "--no-cache", "--outdir", out]) == 0
assert "scipy.integrate" not in sys.modules, "torus-check"
assert cli.main(["all", "--no-cache", "--outdir", out]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "all"
"""

    def test_no_scipy_linalg(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# CLI runs: exit codes, reports, determinism, cache
# ---------------------------------------------------------------------------


class TestCliRuns:
    def test_capacity_run(self, tmp_path, capsys):
        rc = main(["capacity", "--domain", "disc", "--z", "0.3", "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS capacity" in out
        report = _read_report(tmp_path / "capacity_report.json")
        assert set(report) == {"config", "library_version", "records"}
        (rec,) = report["records"]
        assert rec["quantities"]["capacity"] == pytest.approx(1.0 / 0.91, rel=1e-12)

    def test_spec_example_suita_eight_rows(self, tmp_path):
        rc = main(
            ["suita-check", "--domain", "annulus:0.2", "--points", "8", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "suita_check_summary.csv")
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 9  # header + 8 points
        assert all(row[6] == "True" for row in rows[1:])

    @pytest.mark.parametrize(
        "argv",
        [
            ["suita-check", "--domain", "disc:2", "--zs", "0.5,1.2j,-1.9"],
            ["bergman", "--domain", "disc:0.5", "--weight", "maxpiece:1:0.3", "--z", "0.2"],
            ["extended-suita-check", "--domain", "disc:0.5", "--weight", "none"],
        ],
    )
    def test_radial_kernels_on_a_disc_of_any_radius(self, tmp_path, argv):
        # disc:R is in the domain grammar, and the closed-form kernels take R
        assert main([*argv, "--outdir", str(tmp_path), "--no-cache"]) == 0
        slug = argv[0].replace("-", "_")
        records = _read_report(tmp_path / f"{slug}_report.json")["records"]
        assert records and all(rec["passed"] for rec in records)

    @pytest.mark.parametrize("radius", ["0.5", "2"])
    def test_squeeze_trend_on_a_disc_of_any_radius(self, tmp_path, radius):
        # the trend points lie at R (1 - 10^-k), written at distance R 10^-k
        argv = ["squeeze-check", "--domain", f"disc:{radius}", "--outdir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        records = _read_report(tmp_path / "squeeze_check_report.json")["records"]
        assert len(records) == 9 and all(rec["passed"] for rec in records)
        (dat,) = tmp_path.glob("squeeze_trend_*.dat")
        distances = np.loadtxt(dat)[:, 0]
        assert distances.tolist() == [float(radius) * 10.0**-k for k in (1, 2, 3, 4)]

    def test_module_error_gives_exit_1_and_failing_record(self, tmp_path, capsys):
        rc = main(
            ["green", "--xi", "0.5", "--z", "0.5", "--outdir", str(tmp_path), "--no-cache"]
        )
        assert rc == 1
        assert "FAIL green" in capsys.readouterr().out
        (rec,) = _read_report(tmp_path / "green_report.json")["records"]
        assert rec["passed"] is False
        assert rec["margins"]["module_error"] == -1.0
        assert "error" in rec["inputs"]

    def test_numpy_error_gives_failing_record_and_all_continues(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(torus, "arak1_check", broken)
        monkeypatch.setattr(
            cli,
            "_ALL_SEQUENCE",
            (
                ("torus-check", {"taus": ["1j"], "ds": [4]}),
                ("suita-check", {"domain": "disc", "zs": ["0j"]}),
            ),
        )
        rc = main(["all", "--outdir", str(tmp_path), "--no-cache"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "FAIL torus-check" in out and "LinAlgError: Singular matrix" in err
        torus_rec, suita_rec = _read_report(tmp_path / "all_report.json")["records"]
        assert torus_rec["passed"] is False
        assert torus_rec["margins"]["module_error"] == -1.0
        assert torus_rec["inputs"]["error"].startswith("LinAlgError: ")
        assert suita_rec["command"] == "suita-check" and suita_rec["passed"] is True
        assert len(_read_csv(tmp_path / "all_summary.csv")) == 3

    @pytest.mark.parametrize(
        "argv,checks", _ONE_RUN_PER_COMMAND, ids=[argv[0] for argv, _ in _ONE_RUN_PER_COMMAND]
    )
    def test_failing_record_keeps_the_case_id(self, tmp_path, monkeypatch, argv, checks):
        def rows(outdir):
            main([*argv, "--no-cache", "--outdir", str(outdir)])
            slug = argv[0].replace("-", "_")
            return _read_csv(outdir / f"{slug}_summary.csv")[1:]

        def broken(*args, **kwargs):
            raise ConfigError("injected")

        passing = rows(tmp_path / "pass")
        for check in checks:
            monkeypatch.setattr(f"bergreen.{check}", broken)
        failing = rows(tmp_path / "fail")
        assert all(row[6] == "True" for row in passing)
        assert all(row[6] == "False" for row in failing)
        assert [row[1] for row in failing] == [row[1] for row in passing]

    @pytest.mark.parametrize(
        "argv,target,value",
        [
            (["green"], "bergreen.domains.GreenEvaluator.remainder", lambda self, xi, z: float("nan")),
            (["capacity"], "bergreen.domains.capacity", lambda *a, **k: float("inf")),
            (
                ["bergman"],
                "bergreen.bergman.kernel_diag",
                # KernelEstimate.value refuses a value out of range itself
                lambda *a, **k: SimpleNamespace(
                    value=float("nan"), basis_size=1, truncation_error_estimate=0.0
                ),
            ),
        ],
        ids=["green", "capacity", "bergman"],
    )
    def test_non_finite_headline_fails(self, tmp_path, monkeypatch, argv, target, value):
        monkeypatch.setattr(target, value)
        assert main([*argv, "--no-cache", "--outdir", str(tmp_path)]) == 1
        (rec,) = _read_report(tmp_path / f"{argv[0]}_report.json")["records"]
        assert rec["passed"] is False
        assert rec["margins"] == {"finite": -1.0} and rec["tolerances"] == {"finite": 0.0}

    def test_malformed_config_exits_2_without_report(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"deltas": [1.0,]}')
        outdir = tmp_path / "out"
        rc = main(["ode-check", "--config", str(path), "--outdir", str(outdir)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spam": 1}))
        rc = main(["capacity", "--config", str(path), "--outdir", str(tmp_path)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_unresolved_nystrom_capacity_fails(self, tmp_path):
        # n = 256 reads 57.86 here against 50.70 converged
        argv = ["capacity", "--domain=ellipse:1:0.6", "--z=0.99", "--no-cache"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 1
        (rec,) = _read_report(tmp_path / "capacity_report.json")["records"]
        assert rec["passed"] is False
        assert rec["inputs"]["error"].startswith("AccuracyError")

    def test_nan_nystrom_capacity_fails(self, tmp_path, monkeypatch):
        value = GreenEvaluator._nystrom_value

        def nan_at_pole(self, solver, xi, z):
            return math.nan if xi == z else value(self, solver, xi, z)

        monkeypatch.setattr(GreenEvaluator, "_nystrom_value", nan_at_pole)
        argv = ["capacity", "--domain=ellipse:1.2:0.7", "--no-cache"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 1
        (rec,) = _read_report(tmp_path / "capacity_report.json")["records"]
        assert rec["passed"] is False
        assert rec["inputs"]["error"].startswith("AccuracyError")

    @pytest.mark.parametrize("weight", ["harmoniclog:-0.4", "harmoniclog:0.3"])
    def test_extended_suita_rejects_a_pole_inside(self, tmp_path, capsys, weight):
        argv = ["extended-suita-check", "--domain=disc", f"--weight={weight}", "--zs=0.3"]
        assert main([*argv, "--no-cache", "--outdir", str(tmp_path)]) == 1
        assert "FAIL extended-suita-check" in capsys.readouterr().out
        (rec,) = _read_report(tmp_path / "extended_suita_check_report.json")["records"]
        assert rec["passed"] is False
        assert rec["margins"] == {"module_error": -1.0}
        assert rec["inputs"]["error"].startswith("DomainError")
        assert "pole at 0" in rec["inputs"]["error"]
        # the kernel alone is still computed for the pair
        assert main(["bergman", "--domain=disc", f"--weight={weight}", "--no-cache",
                     "--outdir", str(tmp_path)]) == 0

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        outdir = tmp_path / "from-env"
        monkeypatch.setenv("BERGREEN_OUTDIR", str(outdir))
        rc = main(["capacity"])
        assert rc == 0
        assert (outdir / "capacity_summary.csv").exists()

    def test_csv_byte_identical_across_runs(self, tmp_path):
        args = ["suita-check", "--points", "3", "--no-cache"]
        assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
        assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "suita_check_summary.csv").read_bytes()
        csv_b = (tmp_path / "b" / "suita_check_summary.csv").read_bytes()
        assert csv_a == csv_b

    def test_cache_hit_flags_cached(self, tmp_path, capsys):
        args = ["capacity", "--outdir", str(tmp_path)]
        assert main(args) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert main(args) == 0
        assert "(cached)" in capsys.readouterr().out
        (rec,) = _read_report(tmp_path / "capacity_report.json")["records"]
        assert rec["cached"] is True

    def test_cache_does_not_change_csv(self, tmp_path):
        args = ["capacity", "--outdir", str(tmp_path)]
        main(args)
        fresh = (tmp_path / "capacity_summary.csv").read_bytes()
        main(args)
        assert (tmp_path / "capacity_summary.csv").read_bytes() == fresh

    def test_parameter_change_misses_cache(self, tmp_path, capsys):
        main(["capacity", "--outdir", str(tmp_path)])
        capsys.readouterr()
        main(["capacity", "--z", "0.4", "--outdir", str(tmp_path)])
        assert "(cached)" not in capsys.readouterr().out

    def test_corrupt_cache_warns_and_recomputes(self, tmp_path, capsys):
        main(["capacity", "--outdir", str(tmp_path)])
        cache_dir = tmp_path / "cache"
        (entry,) = list(cache_dir.iterdir())
        entry.write_text("{ not json")
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="corrupt cache"):
            rc = main(["capacity", "--outdir", str(tmp_path)])
        assert rc == 0
        assert "(cached)" not in capsys.readouterr().out
        (rec,) = _read_report(tmp_path / "capacity_report.json")["records"]
        assert rec["cached"] is False

    def test_edited_jordan_file_misses_cache(self, tmp_path, capsys):
        curve = tmp_path / "curve.txt"
        curve.write_text("1 1.05 0.0\n-1 0.25 0.0\n")
        args = ["capacity", "--domain", f"jordan:{curve}", "--z", "0.1", "--outdir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        assert "(cached)" in capsys.readouterr().out
        (first,) = _read_report(tmp_path / "capacity_report.json")["records"]
        curve.write_text("1 1.2 0.0\n-1 0.25 0.0\n")
        assert main(args) == 0
        assert "(cached)" not in capsys.readouterr().out
        (second,) = _read_report(tmp_path / "capacity_report.json")["records"]
        assert second["cached"] is False
        assert second["quantities"]["capacity"] != first["quantities"]["capacity"]

    def test_non_finite_quantity_is_strict_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "bergreen.domains.GreenEvaluator.remainder", lambda self, xi, z: float("nan")
        )
        assert main(["green", "--no-cache", "--outdir", str(tmp_path)]) == 1

        def reject(name):
            raise ValueError(f"bare {name} in the report")

        text = (tmp_path / "green_report.json").read_text()
        (rec,) = json.loads(text, parse_constant=reject)["records"]
        assert rec["passed"] is False
        assert rec["quantities"]["green"] == "nan"

    def test_no_cache_writes_no_entries(self, tmp_path):
        main(["capacity", "--outdir", str(tmp_path), "--no-cache"])
        assert not (tmp_path / "cache").exists()

    def test_ode_check_record_fields(self, tmp_path):
        rc = main(
            [
                "ode-check",
                "--deltas",
                "1",
                "--t-grid",
                "log:0.1:50:20",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        (rec,) = _read_report(tmp_path / "ode_check_report.json")["records"]
        q = rec["quantities"]
        assert q["max_r1"] < 1e-9 and q["max_r2"] < 1e-9
        assert q["u_target"] == pytest.approx(-np.log(2.0))
        assert q["min_s_minus_floor"] >= 0.0
        assert rec["margins"]["s_prime_positive"] > 0.0

    def test_plot_data_optimal_constant(self, tmp_path):
        rc = main(
            [
                "optimal-constant",
                "--deltas",
                "1",
                "--epss",
                "0",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        (path,) = list(tmp_path.glob("optimal_constant_ratio_vs_a_*.dat"))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        data = [line.split() for line in lines[1:]]
        assert len(data) == 5  # default a grid
        xs = [float(a) for a, _ in data]
        ys = [float(r) for _, r in data]
        assert xs == sorted(xs, reverse=True)
        assert ys[-1] == pytest.approx(2.0 * np.pi, rel=0.01)

    def test_plot_data_squeeze_trend(self, tmp_path):
        rc = main(
            [
                "squeeze-check",
                "--points",
                "1",
                "--ks",
                "1,2",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        (path,) = list(tmp_path.glob("squeeze_trend_*.dat"))
        data = [line.split() for line in path.read_text().splitlines()[1:]]
        assert [float(a) for a, _ in data] == [0.1, 0.01]
        ratios = [float(r) for _, r in data]
        assert ratios[1] > ratios[0]  # closer to the boundary, closer to 1

    def test_trend_can_be_disabled(self, tmp_path):
        rc = main(
            ["squeeze-check", "--points", "1", "--no-trend", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert not list(tmp_path.glob("squeeze_trend_*.dat"))
        records = _read_report(tmp_path / "squeeze_check_report.json")["records"]
        assert len(records) == 1

    def test_explicit_zs_override_sweep(self, tmp_path):
        rc = main(
            [
                "suita-check",
                "--zs",
                "0.3,0.4j",
                "--points",
                "8",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "suita_check_summary.csv")
        assert len(rows) == 3  # header + the two explicit points

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_cached_rerun_still_writes_plot_data(self, tmp_path):
        args = [
            "optimal-constant",
            "--deltas",
            "1",
            "--epss",
            "0",
            "--outdir",
            str(tmp_path),
        ]
        main(args)
        (path,) = list(tmp_path.glob("optimal_constant_ratio_vs_a_*.dat"))
        first = path.read_bytes()
        path.unlink()
        main(args)  # cache hit must regenerate the plot file identically
        assert path.read_bytes() == first


class TestParser:
    """``main`` builds the invoked command's arguments only; help and an
    unknown command see every command."""

    CHOICES = "{" + ",".join(cli.PARAMS) + "}"

    @staticmethod
    def _exit(argv, capsys) -> tuple[int, str, str]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    def test_help_lists_every_command(self, capsys):
        code, out, _ = self._exit(["-h"], capsys)
        assert code == 0 and len(cli.PARAMS) == 13
        assert self.CHOICES in out
        for command in cli.PARAMS:
            assert f"run the {command} experiment" in out

    def test_command_help(self, capsys):
        code, out, _ = self._exit(["capacity", "-h"], capsys)
        assert code == 0
        assert out.startswith("usage: bergreen capacity [-h]")
        assert "--domain DOMAIN" in out and "--z Z" in out and "--points" not in out

    def test_unknown_command(self, capsys):
        code, _, err = self._exit(["bogus"], capsys)
        assert code == 2
        assert "argument command: invalid choice: 'bogus'" in err
        assert self.CHOICES in err

    def test_unrecognized_argument_usage_names_every_command(self, capsys):
        code, _, err = self._exit(["suita-check", "--ratio-tol", "inf"], capsys)
        assert code == 2
        assert err.startswith("usage: bergreen [-h]") and self.CHOICES in err
        assert "unrecognized arguments: --ratio-tol inf" in err

    def test_builds_only_the_invoked_command(self, monkeypatch, tmp_path):
        added = []
        add_argument = cli.argparse.ArgumentParser.add_argument

        def record(parser, *flags, **kwargs):
            added.append((parser.prog, flags))
            return add_argument(parser, *flags, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument", record)
        assert main(["capacity", "--no-cache", "--outdir", str(tmp_path)]) == 0
        assert {prog for prog, _ in added} == {"bergreen", "bergreen capacity"}
        flags = {flag for prog, fs in added if prog == "bergreen capacity" for flag in fs}
        assert flags == {"-h", "--help", "--config", "--outdir", "--cache", "--domain", "--z"}


# ---------------------------------------------------------------------------
# Report-layer helpers
# ---------------------------------------------------------------------------


class TestExtendedSuitaRecords:
    """``extended-suita-check`` writes the records of the point-by-point
    checks, and a failing record where the weight leaves the float range."""

    ZS = "0.5,0.5j,-0.45,(0.4-0.3j)"

    @staticmethod
    def _argv(tmp_path, zs, weight="harmonicre:0.2"):
        return ["extended-suita-check", "--domain=annulus:0.2", f"--weight={weight}",
                f"--zs={zs}", "--no-cache", f"--outdir={tmp_path}"]

    def test_records_match_point_by_point_checks(self, tmp_path):
        assert main(self._argv(tmp_path, f"{self.ZS},0.85")) == 0
        records = _read_report(tmp_path / "extended_suita_check_report.json")["records"]
        zs = [complex(z) for z in f"{self.ZS},0.85".split(",")]
        assert len(records) == len(zs)
        for rec, z in zip(records, zs):
            res = extended_suita_check(Annulus(0.2), HarmonicRe(0.2), z)
            assert list(res.quantities) == [
                "margin", "ratio", "log_capacity", "log_rho", "log_kernel", "basis_size",
                "truncation_error",
            ]
            assert rec["quantities"] == res.quantities

    def test_weight_beyond_the_float_range_gets_its_margin(self, tmp_path):
        # rho = e^(-+720) at -+0.9: the margin is taken in logs, so every
        # point passes, with no OverflowError or RuntimeWarning
        assert main(self._argv(tmp_path, "-0.9,0.9,0.5j", weight="harmonicre:400")) == 0
        records = _read_report(tmp_path / "extended_suita_check_report.json")["records"]
        assert [rec["quantities"]["log_rho"] for rec in records] == [720.0, -720.0, -0.0]

    def test_harmoniclog_beyond_the_float_range_gets_its_margin(self, tmp_path):
        # at 0.21, K_rho = 4.5e-540 (a 40-digit mpmath sum of the modes) and
        # rho = e^1249: both logs are finite and the record passes; the
        # bergman record, which prints K_rho, fails with a DomainError
        zs = "0.21,0.5,0.99,-0.9j"
        assert main(self._argv(tmp_path, zs, weight="harmoniclog:400")) == 0
        assert main(["bergman", "--domain=annulus:0.2", "--weight=harmoniclog:400", "--z=0.21",
                     "--no-cache", f"--outdir={tmp_path}"]) == 1
        (rec,) = _read_report(tmp_path / "bergman_report.json")["records"]
        assert rec["inputs"]["error"].startswith("DomainError: K(z, z) = e^-1241.88")
        assert "floating-point range" in rec["inputs"]["error"]

    def test_harmoniclog_density_past_float_range_gets_a_margin(self, tmp_path):
        # -2 alpha log|z| = 708.47 at 0.5 with alpha = 511.05, past -log of
        # the smallest normal float (708.40), while K_rho = 2.6e-308 is still
        # normal: log rho is the weight's exponent, so the record passes
        assert main(self._argv(tmp_path, "0.5", weight="harmoniclog:511.05")) == 0
        (rec,) = _read_report(tmp_path / "extended_suita_check_report.json")["records"]
        assert rec["quantities"]["log_rho"] == pytest.approx(708.466, abs=1e-3)


class TestReportHelpers:
    def test_config_hash_ignores_outdir_and_cache(self):
        a = {"command": "capacity", "z": "0.3", "outdir": "x", "cache": True}
        b = {"command": "capacity", "z": "0.3", "outdir": "y", "cache": False}
        assert config_hash(a) == config_hash(b)

    def test_config_hash_sees_the_source(self, monkeypatch):
        config = {"command": "capacity", "z": "0.3"}
        before = config_hash(config)
        monkeypatch.setattr(reports, "_source_digest", lambda: "edited")
        assert config_hash(config) != before

    def test_strict_json_spells_non_finite_floats(self):
        out = reports._strict_json({"a": [math.nan, -math.inf, 1.5], "b": (math.inf, "x")})
        assert out == {"a": ["nan", "-inf", 1.5], "b": ["inf", "x"]}

    def test_config_hash_sees_numpy_and_blas(self, monkeypatch):
        # the digest is taken once per process; the uncached one sees the
        # patched stack, and the cache never holds it
        config = {"command": "capacity", "z": "0.3"}
        before = config_hash(config)
        monkeypatch.setattr(reports, "_source_digest", reports._source_digest.__wrapped__)
        assert config_hash(config) == before
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert config_hash(config) != before
        monkeypatch.undo()
        monkeypatch.setattr(reports, "_source_digest", reports._source_digest.__wrapped__)
        blas = {"Build Dependencies": {"blas": {"name": "openblas", "version": "0.0"}}}
        monkeypatch.setattr(np, "show_config", lambda mode: blas)
        assert config_hash(config) != before

    def test_config_hash_sees_everything_else(self):
        a = {"command": "suita-check", "points": 8}
        b = {"command": "suita-check", "points": 9}
        assert config_hash(a) != config_hash(b)

    def test_binding_margin_is_smallest(self):
        rec = make_record(
            quantities={"v": 1.0},
            gates={"loose": (5.0, 0.0), "tight": (0.25, 0.5)},
            primary="v",
            provenance={},
        )
        row = csv_summary_text([rec]).splitlines()[1].split(",")
        assert float(row[4]) == 0.25
        assert float(row[5]) == 0.5


class TestRecordOwner:
    """``cli._unit`` alone names a record: the command, id and echoed inputs
    of every record are those of the ``Case`` it answers, on a passing and
    on a failing case alike; a check returns quantities and gates only."""

    @staticmethod
    def _cases_of_all(outdir: str) -> list:
        return [
            (command, case)
            for command, overrides in cli._ALL_SEQUENCE
            for case in cli.CHECKS[command](
                resolve_config(command, None, {**overrides, "outdir": outdir})
            )
        ]

    @pytest.mark.parametrize("broken", [None, "extension.cutoff_limit_check"])
    def test_every_record_of_all_is_named_by_its_case(self, tmp_path, monkeypatch, broken):
        def raises(**kwargs):
            raise ParameterError("injected")

        if broken is not None:
            monkeypatch.setattr(f"bergreen.{broken}", raises)
        assert main(["all", "--no-cache", "--outdir", str(tmp_path)]) == (broken is not None)
        records = _read_report(tmp_path / "all_report.json")["records"]
        expected = self._cases_of_all(str(tmp_path))
        assert len(records) == len(expected) == 61
        assert sum(case.check == broken for _, case in expected) == (2 if broken else 0)
        for rec, (command, case) in zip(records, expected):
            inputs = dict(case.inputs)
            if case.check == broken:
                inputs["error"] = "ParameterError: injected"
            assert rec["command"] == command
            assert rec["input_id"] == case.input_id
            assert rec["inputs"] == inputs

    @pytest.mark.parametrize(
        "name,value",
        [("command", "demo"), ("input_id", "x"), ("inputs", {}), ("wall_time_s", 0.5)],
    )
    def test_make_record_takes_no_name(self, name, value):
        with pytest.raises(TypeError):
            make_record(quantities={"v": 1.0}, gates={}, primary="v", provenance={}, **{name: value})


def _writer_records():
    """Records with a complex pair, list inputs, non-finite values and a
    cached flag, named as ``cli._unit`` names a case's record: what the
    writers must serialize unchanged."""
    plain = replace(
        make_record(
            quantities={"value": 0.25 - 0.5j, "count": 3, "ratio": np.float64(0.75)},
            gates={"upper": (0.25, 1e-6), "positive": (np.float64(0.5), 0.0)},
            primary="value",
            provenance={"value": "demo", "ratio": "demo"},
        ),
        command="demo",
        input_id="z=(0.3+0.1j)",
        inputs={"z": "(0.3+0.1j)", "grid": [1.0, 2.0], "pair": [1, 2], "flag": True},
        wall_time_s=0.125,
    )
    odd = replace(
        make_record(
            quantities={"green": math.nan, "big": math.inf, "small": -math.inf},
            gates={"finite": (-1.0, 0.0), "gap": (math.nan, math.inf)},
            primary="green",
            provenance={},
        ),
        command="demo",
        input_id="nan",
        inputs={"points": [0.1, [0.2, 0.3]]},
    )
    return [plain, odd, replace(plain, cached=True, config_hash="abc")]


class TestWriters:
    """One-shot writers: the bytes of ``asdict`` plus ``json.dump``, and
    nothing on disk when the payload cannot be encoded."""

    def test_json_report_bytes_match_the_asdict_reference(self, tmp_path):
        records, config = _writer_records(), {"command": "demo", "zs": ["0.3", "1j"]}
        write_json_report(str(tmp_path / "new.json"), config, records)
        payload = {
            "config": config,
            "library_version": reports.__version__,
            "records": [asdict(r) for r in records],
        }
        ref = json.dumps(reports._strict_json(payload), sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "new.json").read_bytes() == ref.encode()

    def test_finite_report_skips_the_non_finite_walk(self, tmp_path, monkeypatch):
        walks = []
        walk = reports._strict_json
        monkeypatch.setattr(reports, "_strict_json", lambda v: walks.append(v) or walk(v))
        plain, odd, cached = _writer_records()
        write_json_report(str(tmp_path / "finite.json"), {"command": "demo"}, [plain, cached])
        assert walks == []
        # a non-finite value takes the walk, from the whole payload down
        write_json_report(str(tmp_path / "odd.json"), {"command": "demo"}, [plain, odd])
        assert walks and set(walks[0]) == {"config", "library_version", "records"}

    def test_cache_entry_bytes_match_the_asdict_reference(self, tmp_path):
        records = _writer_records()
        cache_store(str(tmp_path), "key", records)
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump([asdict(r) for r in records], fh)
        entry = tmp_path / "cache" / "key.json"
        assert entry.read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_cache_round_trip(self, tmp_path):
        plain, odd, cached = _writer_records()
        cache_store(str(tmp_path), "key", [plain, odd, cached])
        back = cache_load(str(tmp_path), "key")
        assert back[0] == replace(plain, cached=True) and back[2] == cached
        assert back[1].cached and back[1].margins["finite"] == -1.0
        assert math.isnan(back[1].quantities["green"]) and math.isnan(back[1].margins["gap"])
        assert back[1].tolerances["gap"] == math.inf and back[1].quantities["small"] == -math.inf

    def test_float32_margin_passes_and_writes_a_whole_report(self, tmp_path):
        rec = make_record(
            quantities={"v": 1.0},
            gates={"m": (np.float32(0.5), np.float32(0.0))},
            primary="v",
            provenance={},
        )
        assert rec.passed
        assert type(rec.margins["m"]) is float and type(rec.tolerances["m"]) is float
        path = tmp_path / "report.json"
        write_json_report(str(path), {"command": "demo"}, [rec])
        (out,) = json.loads(path.read_text())["records"]
        assert out["margins"] == {"m": 0.5} and out["tolerances"] == {"m": 0.0}

    def test_unencodable_payload_leaves_no_file(self, tmp_path):
        (rec, *_) = _writer_records()
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            write_json_report(str(path), {"command": object()}, [rec])
        assert not path.exists()
        with pytest.raises(TypeError):
            cache_store(str(tmp_path), "key", [replace(rec, provenance={"v": object()})])
        assert not (tmp_path / "cache").exists()
        with pytest.raises(ValueError):
            reports.write_plot_data(str(tmp_path / "trend.dat"), [1.0, 2.0], [0.5, "x"], "x y")
        assert not (tmp_path / "trend.dat").exists()


# ---------------------------------------------------------------------------
# A NaN never passes a record
# ---------------------------------------------------------------------------


def _spoil_call(monkeypatch, owner, name, n, spoil):
    """Patch ``owner.name`` so that the result of its ``n``-th call goes
    through ``spoil``; the other calls are untouched."""
    real, calls = getattr(owner, name), itertools.count(1)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return spoil(out) if next(calls) == n else out

    monkeypatch.setattr(owner, name, patched)


def _nan_at(values, k):
    """A copy of ``values`` with its element ``k`` NaN."""
    out = np.array(values, dtype=float)
    out[k] = math.nan
    return out


def _nan_ode_r1(mp):
    # one ode_residual call covers the grid; its 5th r1 is NaN
    _spoil_call(mp, extension, "ode_residual", 1, lambda r: (_nan_at(r[0], 4), r[1]))
    return extension.ode_record(1.0, np.geomspace(0.1, 50.0, 20)), "residual_r1"


def _nan_ode_r2(mp):
    _spoil_call(mp, extension, "ode_residual", 1, lambda r: (r[0], _nan_at(r[1], 4)))
    return extension.ode_record(1.0, np.geomspace(0.1, 50.0, 20)), "residual_r2"


def _nan_cutoff_gap(mp):
    # the third of four sup gaps, so the first difference is a number
    flat_nan = SimpleNamespace(v_prime=lambda t: np.full(np.shape(t), math.nan))
    _spoil_call(mp, extension, "make_cutoff", 3, lambda fam: flat_nan)
    return extension.cutoff_limit_check(1.0, [0.2, 0.1, 0.05, 0.01]), "monotone_decrease"


def _nan_trend_ratio(mp):
    _spoil_call(mp, bergman, "kernel_diag", 3, lambda est: replace(est, log_value=math.nan))
    return squeezing.boundary_trend_check(Annulus(0.2)), "monotone_toward_one"


def _nan_closed_route(mp):
    _spoil_call(mp, extension, "least_norm_extension", 3, lambda res: (math.nan, res[1]))
    return extension.optimal_constant_experiment(1.0, 0.0), "law"


def _nan_torus_diagonal(mp):
    # one call takes p = 0, the two refined-lattice points, the mid-cell
    # point and the cell nodes; the second refined-lattice value is NaN
    _spoil_call(mp, torus, "torus_bergman", 1, lambda k: _nan_at(k, 2))
    return torus.arak1_check(torus.TorusSpec(1j), 4), "diag_constancy"


def _nan_laplacian_sample(mp):
    # one stencil call takes every sample; its 2nd Laplacian is NaN
    _spoil_call(mp, torus, "_five_point_laplacian", 1, lambda lap: _nan_at(lap, 1))
    return torus.arak1_check(torus.TorusSpec(1j), 4), "laplacian"


def _nan_maxzero_sup(mp):
    # calls: the polish's 96^2 search grid, then the 97^2 grid, whose 5th
    # row is NaN
    _spoil_call(mp, torus, "_green_grid", 2, lambda grid: _nan_at(grid, 4))
    return torus.arak1_check(torus.TorusSpec(1j), 4), "maxzero_sup"


@pytest.mark.parametrize(
    "build",
    [
        _nan_ode_r1,
        _nan_ode_r2,
        _nan_cutoff_gap,
        _nan_trend_ratio,
        _nan_closed_route,
        _nan_torus_diagonal,
        _nan_laplacian_sample,
        _nan_maxzero_sup,
    ],
    ids=lambda f: f.__name__[len("_nan_"):],
)
def test_a_nan_never_passes_a_record(monkeypatch, build):
    # Python's min and max skip a NaN that is not first; each gate sees one
    rec, margin = build(monkeypatch)
    assert rec.passed is False
    assert math.isnan(rec.margins[margin])
    assert reports._binding_margin(rec)[0] == "nan"


# every gate of `all` held at tolerance 0.0, with the reason it has no bound
_ZERO_TOLERANCE_GATES = {
    ("ode-check", "denom_positive"): "positivity at 0",
    ("ode-check", "s_prime_positive"): "positivity at 0",
    ("fuchsian-check", "margin_c0.9"): "the certified tail underflows to 0.0",
    ("fuchsian-check", "margin_c0.95"): "the certified tail underflows to 0.0",
}


def test_every_bound_of_all_is_its_gates_tolerance(tmp_path):
    # a bound written inside a margin, as gate - value at tolerance 0, adds
    # a (command, margin) pair that the allowlist does not name
    assert main(["all", "--no-cache", "--outdir", str(tmp_path)]) == 0
    records = _read_report(tmp_path / "all_report.json")["records"]
    zero = {
        (rec["command"], name)
        for rec in records
        for name, tol in rec["tolerances"].items()
        if tol == 0.0
    }
    assert zero == set(_ZERO_TOLERANCE_GATES)
