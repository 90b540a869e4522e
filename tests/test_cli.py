"""Tests for the command-line harness: config resolution and precedence,
validation failures, report/CSV/plot-data emission, the content-addressed
cache, exit codes, determinism, and the report-layer helpers."""

import csv
import json
import math
import os

import numpy as np
import pytest

from bergreen import cli, reports, torus
from bergreen.bergman import KernelEstimate
from bergreen.cli import (
    _parse_domain,
    _parse_grid,
    _parse_weight,
    _sweep_points,
    main,
    resolve_config,
)
from bergreen.domains import Annulus, Disc
from bergreen.errors import ConfigError
from bergreen.reports import (
    CSV_COLUMNS,
    _jsonable_value,
    config_hash,
    csv_summary_text,
    make_record,
)


# one small run of each command, with the checks its records come from
_ONE_RUN_PER_COMMAND = [
    (["green"], ["domains.green_record"]),
    (["capacity"], ["domains.capacity_record"]),
    (["bergman"], ["bergman.kernel_record"]),
    (["suita-check", "--points", "2"], ["bergman.suita_record"]),
    (["extended-suita-check", "--points", "1"], ["bergman.extended_suita_record"]),
    (["optimal-constant", "--deltas", "1", "--epss", "0"], ["extension.optimal_constant_record"]),
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
        ["log:0:1:10", "log:1:0.5:10", "lin:1:0:10", "log:0.1:1", "lin:0:1:1", ""],
    )
    def test_grid_rejects(self, spec):
        with pytest.raises(ConfigError):
            _parse_grid(spec)

    def test_domain_specs(self):
        assert isinstance(_parse_domain("disc"), Disc)
        assert _parse_domain("disc:2.0").radius == 2.0
        ann = _parse_domain("annulus:0.2")
        assert isinstance(ann, Annulus) and ann.r_inner == 0.2
        ell = _parse_domain("ellipse:1.0:0.5")
        assert ell.coeffs  # Jordan with conformal coefficients

    @pytest.mark.parametrize(
        "spec", ["square", "annulus", "annulus:1.5", "disc:-1", "jordan:", "jordan:/nope.txt"]
    )
    def test_domain_rejects(self, spec):
        with pytest.raises(ConfigError):
            _parse_domain(spec)

    def test_weight_specs(self):
        assert _parse_weight("none").scale == 1.0
        assert _parse_weight("harmoniclog:0.3").alpha == 0.3
        assert _parse_weight("harmonicre:0.2").c == 0.2
        mp = _parse_weight("maxpiece:1.0:0.5")
        assert mp.delta == 1.0 and mp.a == 0.5

    @pytest.mark.parametrize("spec", ["gauss", "harmoniclog:", "maxpiece:1.0"])
    def test_weight_rejects(self, spec):
        with pytest.raises(ConfigError):
            _parse_weight(spec)

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
            _sweep_points(_parse_domain("ellipse:1.0:0.5"), 4)


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
                lambda *a, **k: KernelEstimate(float("nan"), 1, 1.0, 0.0),
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

    def test_tolerance_change_misses_cache(self, tmp_path, capsys):
        main(["capacity", "--outdir", str(tmp_path)])
        capsys.readouterr()
        main(["capacity", "--cap-tol", "2e-6", "--outdir", str(tmp_path)])
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


# ---------------------------------------------------------------------------
# Report-layer helpers
# ---------------------------------------------------------------------------


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

    def test_config_hash_sees_everything_else(self):
        a = {"command": "capacity", "cap_tol": 1e-6}
        b = {"command": "capacity", "cap_tol": 2e-6}
        assert config_hash(a) != config_hash(b)

    def test_binding_margin_is_smallest(self):
        rec = make_record(
            command="demo",
            input_id="x",
            inputs={},
            quantities={"v": 1.0},
            margins={"loose": 5.0, "tight": 0.25},
            tolerances={"loose": 0.0, "tight": 0.5},
            primary="v",
        )
        row = csv_summary_text([rec]).splitlines()[1].split(",")
        assert float(row[4]) == 0.25
        assert float(row[5]) == 0.5

    def test_jsonable_value_roundtrip(self):
        v = _jsonable_value(
            {
                "tau": 0.5 + 1.0j,
                "grid": np.array([1.0, 2.0]),
                "pair": (1, 2),
                "flag": True,
                "name": "x",
                "nothing": None,
            }
        )
        json.dumps(v)  # must not raise
        assert complex(v["tau"]) == 0.5 + 1.0j
        assert v["grid"] == [1.0, 2.0]
        assert v["pair"] == [1, 2]
        assert v["flag"] is True and v["name"] == "x" and v["nothing"] is None

    def test_jsonable_value_numpy_scalars(self):
        out = _jsonable_value({"a": np.float64(0.5), "b": np.complex128(1 + 2j), "c": np.int64(3)})
        assert out["a"] == 0.5 and isinstance(out["a"], float)
        assert complex(out["b"]) == 1 + 2j
        assert out["c"] == 3
        json.dumps(out)
