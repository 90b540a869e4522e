"""Command-line harness: config ingestion, experiment orchestration,
report persistence, and plot-data emission.

Every run resolves one configuration (defaults < JSON config file < CLI
flags, flags winning), validates it, and dispatches to the owning module.
A run writes one JSON report (full records) and one CSV summary (one row
per check) into the output directory, plus two-column plot-data files for
the sweep commands (``optimal-constant`` ratio-vs-a, ``squeeze-check``
boundary-trend ratio-vs-distance).

Exit status: 0 if every check passed, 1 if any check failed or a module
error was propagated into the report, 2 for a malformed configuration
(in which case no report is written).

The content-addressed cache stores record sets under
``<outdir>/cache/<config-hash>.json``; hits are flagged ``cached`` and
never affect pass/fail logic.  The environment variable
``BERGREEN_OUTDIR`` supplies the default output directory.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from .bergman import (
    HarmonicLog,
    HarmonicRe,
    MaxPiece,
    Unweighted,
    extended_suita_check,
    kernel_diag,
    suita_ratio,
)
from .domains import Annulus, Disc, Jordan, capacity, green_evaluator
from .errors import BergreenError, ConfigError, DomainError
from .extension import (
    PolarSpec,
    cutoff_limit_check,
    ode_pair,
    ode_residual,
    optimal_constant_experiment,
    residual_measure,
)
from .fuchsian import DEFAULT_C_GRID, inequality_check
from .reports import (
    ReportRecord,
    cache_load,
    cache_store,
    config_hash,
    make_record,
    write_csv_summary,
    write_json_report,
    write_plot_data,
)
from .squeezing import boundary_trend_check, sandwich_check
from .torus import TorusSpec, arak1_check

__all__ = ["main", "run", "resolve_config"]

ENV_OUTDIR = "BERGREEN_OUTDIR"
DEFAULT_OUTDIR = "reports"


# ---------------------------------------------------------------------------
# Parameter schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One command parameter: value kind, default, and help text."""

    kind: str  # str | int | float | complex | bool | floats | ints | complexes | strs | grid
    default: object
    help: str = ""


PARAMS: dict[str, dict[str, Param]] = {
    "green": {
        "domain": Param("str", "disc", "domain spec (disc[:R] | annulus:r | ellipse:a:b | jordan:file)"),
        "method": Param("str", "auto", "auto | closed_form | laurent_modes | nystrom"),
        "xi": Param("complex", "0.5", "evaluation point"),
        "z": Param("complex", "0.1", "pole location"),
    },
    "capacity": {
        "domain": Param("str", "disc", "domain spec"),
        "z": Param("complex", "0.3", "point"),
        "cap_tol": Param("float", 1e-6, "limit stability tolerance"),
    },
    "bergman": {
        "domain": Param("str", "disc", "domain spec"),
        "weight": Param("str", "none", "weight spec (none | harmoniclog:a | harmonicre:c | maxpiece:d:a)"),
        "z": Param("complex", "0.3", "diagonal point"),
        "trunc_tol": Param("float", 1e-6, "kernel truncation tolerance"),
    },
    "suita-check": {
        "domain": Param("str", "annulus:0.2", "domain spec"),
        "zs": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 8, "number of swept interior points"),
        "ratio_tol": Param("float", 1e-6, "allowed overshoot of the unit bound"),
    },
    "extended-suita-check": {
        "domain": Param("str", "annulus:0.2", "domain spec"),
        "weight": Param("str", "harmoniclog:0.3", "harmonic weight spec"),
        "zs": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 4, "number of swept interior points"),
        "margin_tol": Param("float", 1e-9, "allowed negative margin"),
    },
    "optimal-constant": {
        "deltas": Param("floats", [0.5, 1.0, 2.0], "delta grid"),
        "epss": Param("floats", [0.0, 0.1], "epsilon grid"),
        "a_values": Param("floats", [0.5, 0.1, 0.01, 1e-3, 1e-4], "decreasing plateau radii"),
        "cross_tol": Param("float", 1e-6, "closed-form vs quadrature relative tolerance"),
        "limit_rel_tol": Param("float", 0.01, "relative tolerance of the extrapolated limit"),
    },
    "ode-check": {
        "deltas": Param("floats", [0.1, 0.5, 1.0, 2.0, 10.0], "delta grid"),
        "t_grid": Param("grid", "log:0.01:50:200", "t grid spec (log:lo:hi:n | lin:lo:hi:n | comma list)"),
        "residual_tol": Param("float", 1e-9, "max allowed identity residual"),
        "end_tol": Param("float", 1e-6, "tolerance of u at the grid end vs its limit"),
    },
    "cutoff-check": {
        "t0s": Param("floats", [1.0, 5.0], "anchoring offsets"),
        "eps_sequence": Param("floats", [0.2, 0.1, 0.05, 0.01], "decreasing smoothing widths"),
        "limit_tol": Param("float", 0.05, "final sup-gap bound"),
    },
    "residual-measure": {
        "psi0s": Param("floats", [0.0, -0.7, 0.3], "constant offsets added to the log pole"),
        "fs": Param("strs", ["one", "affine"], "integrand profiles (one | affine)"),
        "t": Param("float", 20.0, "shell depth"),
        "value_tol": Param("float", 1e-3, "tolerance against the point-mass value"),
    },
    "squeeze-check": {
        "domain": Param("str", "annulus:0.2", "domain spec"),
        "ps": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 8, "number of swept interior points"),
        "sandwich_tol": Param("float", 1e-6, "two-sided comparison tolerance"),
        "trend": Param("bool", True, "also run the boundary trend check"),
        "ks": Param("ints", [1, 2, 3, 4], "boundary distances 10^-k for the trend"),
        "angle": Param("float", 0.0, "ray angle for the trend points"),
    },
    "fuchsian-check": {
        "c_grid": Param("floats", list(DEFAULT_C_GRID), "generator parameters"),
        "n_terms": Param("int", 256, "orbit truncation"),
        "tail_tol": Param("float", 1e-8, "certified tail bound"),
    },
    "torus-check": {
        "taus": Param("complexes", ["1j", "0.5+1j"], "moduli (Im > 0)"),
        "ds": Param("ints", [4, 6], "even degrees >= 4"),
        "margin_tol": Param("float", 1e-9, "allowed negative inequality margin"),
        "residual_tol": Param("float", 1e-4, "residual-mass identity tolerance"),
        "lap_tol": Param("float", 1e-5, "volume-Laplacian deviation bound"),
        "ab_tol": Param("float", 1e-6, "curvature ratio tolerance"),
        "diag_tol": Param("float", 1e-6, "kernel diagonal constancy tolerance"),
    },
    "all": {},
}

_NONEMPTY = {
    "deltas",
    "epss",
    "a_values",
    "t0s",
    "eps_sequence",
    "psi0s",
    "fs",
    "c_grid",
    "taus",
    "ds",
    "ks",
}

_F_PROFILES = ("one", "affine")


# ---------------------------------------------------------------------------
# Value parsing and coercion
# ---------------------------------------------------------------------------


def _canon_complex(v) -> str:
    try:
        return str(complex(str(v).replace(" ", "")) if isinstance(v, str) else complex(v))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a complex number: {v!r}") from exc


def _split_list(v):
    if isinstance(v, str):
        return [part for part in (p.strip() for p in v.split(",")) if part]
    if isinstance(v, (list, tuple)):
        return list(v)
    raise ConfigError(f"expected a list or comma-separated string, got {v!r}")


def _coerce(kind: str, value, name: str):
    try:
        if kind == "str":
            if not isinstance(value, str):
                raise ConfigError(f"{name}: expected a string, got {value!r}")
            return value
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ConfigError(f"{name}: expected true/false, got {value!r}")
        if kind == "int":
            if isinstance(value, bool) or (
                isinstance(value, float) and not value.is_integer()
            ):
                raise ConfigError(f"{name}: expected an integer, got {value!r}")
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "complex":
            return _canon_complex(value)
        if kind == "floats":
            return [float(x) for x in _split_list(value)]
        if kind == "ints":
            return [int(x) for x in _split_list(value)]
        if kind == "complexes":
            return [_canon_complex(x) for x in _split_list(value)]
        if kind == "strs":
            return [str(x) for x in _split_list(value)]
        if kind == "grid":
            if not isinstance(value, str):
                raise ConfigError(f"{name}: expected a grid spec string, got {value!r}")
            _parse_grid(value)  # validate only
            return value
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    raise ConfigError(f"unknown parameter kind {kind!r}")  # pragma: no cover


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if parts[0] in ("log", "lin"):
        if len(parts) != 4:
            raise ConfigError(f"grid spec needs 4 fields, got {spec!r}")
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        if n < 2:
            raise ConfigError("grid needs at least 2 points")
        if parts[0] == "log":
            if not (0.0 < lo < hi):
                raise ConfigError("log grid needs 0 < lo < hi")
            return np.geomspace(lo, hi, n)
        if not (lo < hi):
            raise ConfigError("lin grid needs lo < hi")
        return np.linspace(lo, hi, n)
    values = [float(x) for x in _split_list(spec)]
    if not values:
        raise ConfigError("empty grid")
    return np.asarray(values)


def _parse_domain(spec: str):
    kind, _, rest = str(spec).partition(":")
    try:
        if kind == "disc":
            return Disc(float(rest)) if rest else Disc()
        if kind == "annulus":
            if not rest:
                raise ConfigError("annulus spec needs an inner radius")
            return Annulus(float(rest))
        if kind == "ellipse":
            a, _, b = rest.partition(":")
            return Jordan.ellipse(float(a), float(b))
        if kind == "jordan":
            if not rest:
                raise ConfigError("jordan spec needs a coefficient file path")
            return Jordan.from_file(rest)
    except ConfigError:
        raise
    except (ValueError, OSError, DomainError) as exc:
        raise ConfigError(f"bad domain spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown domain kind {kind!r} (use disc | annulus | ellipse | jordan)")


def _parse_weight(spec: str):
    kind, _, rest = str(spec).partition(":")
    try:
        if kind in ("none", "unweighted"):
            return Unweighted()
        if kind == "harmoniclog":
            return HarmonicLog(float(rest))
        if kind == "harmonicre":
            return HarmonicRe(float(rest))
        if kind == "maxpiece":
            d, _, a = rest.partition(":")
            return MaxPiece(float(d), float(a))
    except ConfigError:
        raise
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(
        f"unknown weight kind {kind!r} (use none | harmoniclog | harmonicre | maxpiece)"
    )


def _sweep_points(domain, n: int) -> list[complex]:
    """Deterministic interior sweep: radii in the middle band of the
    domain, angles stepping uniformly."""
    if isinstance(domain, Annulus):
        lo = domain.r_inner + 0.125 * (1.0 - domain.r_inner)
        hi = domain.r_inner + 0.5 * (1.0 - domain.r_inner)
    elif isinstance(domain, Disc):
        lo, hi = 0.0, 0.6 * domain.radius
    else:
        raise ConfigError(
            "automatic point sweeps support disc/annulus domains only; "
            "pass explicit points"
        )
    radii = [0.5 * (lo + hi)] if n == 1 else list(np.linspace(lo, hi, n))
    return [
        complex(r * cmath.exp(2j * math.pi * i / n)) for i, r in enumerate(radii)
    ]


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _base_config(command: str) -> dict:
    config = {name: p.default for name, p in PARAMS[command].items()}
    config["command"] = command
    config["outdir"] = os.environ.get(ENV_OUTDIR, DEFAULT_OUTDIR)
    config["cache"] = True
    config["seed"] = 0
    return config


def _apply(config: dict, command: str, key: str, value) -> None:
    if key == "outdir":
        if not isinstance(value, str) or not value:
            raise ConfigError("outdir must be a non-empty string")
        config["outdir"] = value
    elif key == "cache":
        config["cache"] = _coerce("bool", value, "cache")
    elif key == "seed":
        config["seed"] = _coerce("int", value, "seed")
    elif key in PARAMS[command]:
        config[key] = value  # coerced in bulk afterwards
    else:
        raise ConfigError(f"unknown config key {key!r} for command {command!r}")


def _canonicalize(config: dict) -> None:
    command = config["command"]
    for name, p in PARAMS[command].items():
        config[name] = _coerce(p.kind, config[name], name)


def _validate(config: dict) -> None:
    command = config["command"]
    schema = PARAMS[command]
    for name, p in schema.items():
        value = config[name]
        if name.endswith("_tol") and not (value > 0.0):
            raise ConfigError(f"{name} must be strictly positive")
        if name in _NONEMPTY and not value:
            raise ConfigError(f"{name} must be a non-empty list")
        if name == "points" and value < 1:
            raise ConfigError("points must be at least 1")
        if name == "n_terms" and value < 1:
            raise ConfigError("n_terms must be at least 1")
        if name == "t" and not (value > 0.0):
            raise ConfigError("t must be positive")
    if "domain" in schema:
        domain = _parse_domain(config["domain"])
        sweep_key = "zs" if "zs" in schema else ("ps" if "ps" in schema else None)
        if (
            sweep_key is not None
            and not config[sweep_key]
            and not isinstance(domain, (Disc, Annulus))
        ):
            _sweep_points(domain, config.get("points", 1))  # raises ConfigError
    if "weight" in schema:
        _parse_weight(config["weight"])
    if "fs" in schema:
        for f in config["fs"]:
            if f not in _F_PROFILES:
                raise ConfigError(
                    f"unknown integrand profile {f!r} (use {'|'.join(_F_PROFILES)})"
                )
    if "taus" in schema:
        for t in config["taus"]:
            if not complex(t).imag > 0.0:
                raise ConfigError(f"torus modulus {t} needs Im tau > 0")
    outdir = config["outdir"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {outdir!r} not writable: {exc}") from exc
    if not os.access(outdir, os.W_OK):
        raise ConfigError(f"output directory {outdir!r} not writable")


def resolve_config(command: str, config_path: str | None = None, overrides: dict | None = None) -> dict:
    """Resolve defaults < config file < overrides into one validated,
    canonical, JSON-serializable configuration."""
    if command not in PARAMS:
        raise ConfigError(f"unknown command {command!r}")
    config = _base_config(command)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{config_path}:{exc.lineno}: {exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if key == "command":
                if value != command:
                    raise ConfigError(
                        f"config file is for command {value!r}, not {command!r}"
                    )
                continue
            _apply(config, command, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            _apply(config, command, key, value)
    _canonicalize(config)
    _validate(config)
    return config


# ---------------------------------------------------------------------------
# Record production
# ---------------------------------------------------------------------------


def _unit(command: str, input_id: str, inputs: dict, fn) -> ReportRecord:
    """Run one check; any error it raises (a module error, or a numpy or
    programming error) becomes a failing record, so the report is still
    written and the exit code is 1."""
    start = time.perf_counter()
    try:
        return fn()
    except Exception as exc:
        if not isinstance(exc, BergreenError):
            traceback.print_exc()  # not a numerical failure: keep the trace
        return make_record(
            command=command,
            input_id=input_id,
            inputs={**inputs, "error": f"{type(exc).__name__}: {exc}"},
            quantities={"error_flag": 1.0},
            margins={"module_error": -1.0},
            tolerances={"module_error": 0.0},
            primary="error_flag",
            provenance={"error_flag": type(exc).__name__},
            wall_time_s=time.perf_counter() - start,
        )


def _records_green(cfg: dict) -> list[ReportRecord]:
    xi, z = complex(cfg["xi"]), complex(cfg["z"])
    input_id = f"{cfg['domain']} xi={xi} z={z}"
    inputs = {k: cfg[k] for k in ("domain", "method", "xi", "z")}

    def work():
        start = time.perf_counter()
        ev = green_evaluator(_parse_domain(cfg["domain"]), method=cfg["method"])
        g = ev.green(xi, z)
        h = ev.remainder(xi, z)
        return make_record(
            command="green",
            input_id=input_id,
            inputs=inputs,
            quantities={"green": g, "remainder": h},
            margins={},
            tolerances={},
            primary="green",
            provenance={"green": "green_evaluator", "remainder": "green_evaluator"},
            wall_time_s=time.perf_counter() - start,
        )

    return [_unit("green", input_id, inputs, work)]


def _records_capacity(cfg: dict) -> list[ReportRecord]:
    z = complex(cfg["z"])
    input_id = f"{cfg['domain']} z={z}"
    inputs = {k: cfg[k] for k in ("domain", "z", "cap_tol")}

    def work():
        start = time.perf_counter()
        val = capacity(_parse_domain(cfg["domain"]), z, cap_tol=cfg["cap_tol"])
        return make_record(
            command="capacity",
            input_id=input_id,
            inputs=inputs,
            quantities={"capacity": val, "log_capacity": math.log(val)},
            margins={},
            tolerances={},
            primary="capacity",
            provenance={"capacity": "capacity", "log_capacity": "capacity"},
            wall_time_s=time.perf_counter() - start,
        )

    return [_unit("capacity", input_id, inputs, work)]


def _records_bergman(cfg: dict) -> list[ReportRecord]:
    z = complex(cfg["z"])
    input_id = f"{cfg['domain']} {cfg['weight']} z={z}"
    inputs = {k: cfg[k] for k in ("domain", "weight", "z", "trunc_tol")}

    def work():
        start = time.perf_counter()
        est = kernel_diag(
            _parse_domain(cfg["domain"]),
            _parse_weight(cfg["weight"]),
            z,
            trunc_tol=cfg["trunc_tol"],
        )
        return make_record(
            command="bergman",
            input_id=input_id,
            inputs=inputs,
            quantities={
                "kernel_diag": est.value,
                "basis_size": est.basis_size,
                "gram_condition": est.gram_condition,
                "truncation_error": est.truncation_error_estimate,
            },
            margins={},
            tolerances={},
            primary="kernel_diag",
            provenance={
                "kernel_diag": "kernel_diag",
                "basis_size": "kernel_diag",
                "gram_condition": "gram_matrix",
                "truncation_error": "kernel_diag",
            },
            wall_time_s=time.perf_counter() - start,
        )

    return [_unit("bergman", input_id, inputs, work)]


def _chosen_points(cfg: dict, key: str):
    domain = _parse_domain(cfg["domain"])
    if cfg[key]:
        return domain, [complex(s) for s in cfg[key]]
    return domain, _sweep_points(domain, cfg["points"])


def _records_suita(cfg: dict) -> list[ReportRecord]:
    domain, zs = _chosen_points(cfg, "zs")
    records = []
    for z in zs:
        input_id = f"{cfg['domain']} z={z}"
        inputs = {"domain": cfg["domain"], "z": z, "ratio_tol": cfg["ratio_tol"]}

        def work(z=z, input_id=input_id, inputs=inputs):
            start = time.perf_counter()
            ratio = suita_ratio(domain, z, ratio_tol=cfg["ratio_tol"])
            return make_record(
                command="suita-check",
                input_id=input_id,
                inputs=inputs,
                quantities={
                    "ratio": ratio.value,
                    "capacity": ratio.capacity,
                    "kernel_diag": ratio.kernel.value,
                    "gram_condition": ratio.kernel.gram_condition,
                },
                margins={"upper": 1.0 - ratio.value, "positive": ratio.value},
                tolerances={"upper": cfg["ratio_tol"], "positive": 0.0},
                primary="ratio",
                provenance={
                    "ratio": "suita_ratio",
                    "capacity": "capacity",
                    "kernel_diag": "kernel_diag",
                    "gram_condition": "gram_matrix",
                },
                wall_time_s=time.perf_counter() - start,
            )

        records.append(_unit("suita-check", input_id, inputs, work))
    return records


def _records_extended_suita(cfg: dict) -> list[ReportRecord]:
    domain, zs = _chosen_points(cfg, "zs")
    weight = _parse_weight(cfg["weight"])
    records = []
    for z in zs:
        input_id = f"{cfg['domain']} {cfg['weight']} z={z}"
        inputs = {
            "domain": cfg["domain"],
            "weight": cfg["weight"],
            "z": z,
            "margin_tol": cfg["margin_tol"],
        }

        def work(z=z, input_id=input_id, inputs=inputs):
            start = time.perf_counter()
            res = extended_suita_check(domain, weight, z, margin_tol=cfg["margin_tol"])
            return make_record(
                command="extended-suita-check",
                input_id=input_id,
                inputs=inputs,
                quantities={
                    "margin": res.margin,
                    "capacity_sq": res.capacity_sq,
                    "rho_at_z": res.rho_at_z,
                    "weighted_kernel": res.weighted_kernel.value,
                    "gram_condition": res.weighted_kernel.gram_condition,
                },
                margins={"nonnegative": res.margin},
                tolerances={"nonnegative": cfg["margin_tol"]},
                primary="margin",
                provenance={
                    "margin": "extended_suita_check",
                    "capacity_sq": "capacity",
                    "rho_at_z": "extended_suita_check",
                    "weighted_kernel": "kernel_diag",
                    "gram_condition": "gram_matrix",
                },
                wall_time_s=time.perf_counter() - start,
            )

        records.append(_unit("extended-suita-check", input_id, inputs, work))
    return records


def _records_optimal_constant(cfg: dict) -> list[ReportRecord]:
    records = []
    for delta in cfg["deltas"]:
        for eps in cfg["epss"]:
            input_id = f"delta={delta:g},eps={eps:g}"
            inputs = {
                "delta": delta,
                "eps": eps,
                "a_values": cfg["a_values"],
                "cross_tol": cfg["cross_tol"],
                "limit_rel_tol": cfg["limit_rel_tol"],
            }

            def work(delta=delta, eps=eps, input_id=input_id, inputs=inputs):
                start = time.perf_counter()
                res = optimal_constant_experiment(
                    delta,
                    eps,
                    a_values=tuple(cfg["a_values"]),
                    cross_check_tol=cfg["cross_tol"],
                )
                cross_rel = max(
                    abs(c - q) / abs(c)
                    for c, q in zip(res.min_norms_closed, res.min_norms_quadrature)
                )
                rel_err = res.limit_error / res.target
                diffs = [
                    b - a for a, b in zip(res.ratios[:-1], res.ratios[1:])
                ]
                quantities = {f"ratio_{i}": r for i, r in enumerate(res.ratios)}
                quantities.update(
                    {
                        "limit": res.extrapolated_limit,
                        "target": res.target,
                        "limit_rel_error": rel_err,
                        "cross_rel_max": cross_rel,
                    }
                )
                return make_record(
                    command="optimal-constant",
                    input_id=input_id,
                    inputs=inputs,
                    quantities=quantities,
                    margins={
                        "limit_within_rel": cfg["limit_rel_tol"] - rel_err,
                        "routes_agree": cfg["cross_tol"] - cross_rel,
                        "ratios_increasing": min(diffs) if diffs else 0.0,
                    },
                    tolerances={
                        "limit_within_rel": 0.0,
                        "routes_agree": 0.0,
                        "ratios_increasing": 1e-15,
                    },
                    primary="limit",
                    provenance={
                        k: "optimal_constant_experiment" for k in quantities
                    },
                    wall_time_s=time.perf_counter() - start,
                )

            records.append(_unit("optimal-constant", input_id, inputs, work))
    return records


def _records_ode(cfg: dict) -> list[ReportRecord]:
    grid = _parse_grid(cfg["t_grid"])
    records = []
    for delta in cfg["deltas"]:
        input_id = f"delta={delta:g}"
        inputs = {
            "delta": delta,
            "t_grid": cfg["t_grid"],
            "residual_tol": cfg["residual_tol"],
            "end_tol": cfg["end_tol"],
        }

        def work(delta=delta, input_id=input_id, inputs=inputs):
            start = time.perf_counter()
            pair = ode_pair(delta)
            r1s, r2s = zip(*(ode_residual(pair, float(t)) for t in grid))
            s_vals = pair.s(grid)
            sp_vals = pair.s_prime(grid)
            denom = pair.u_second(grid) * s_vals - pair.s_second(grid)
            u_end = pair.u(float(grid[-1]))
            u_target = -math.log(pair.a)
            quantities = {
                "max_r1": max(abs(r) for r in r1s),
                "max_r2": max(abs(r) for r in r2s),
                "u_end": u_end,
                "u_target": u_target,
                "min_s_minus_floor": float(np.min(s_vals)) - 1.0 / delta,
                "min_s_prime": float(np.min(sp_vals)),
                "min_denom": float(np.min(denom)),
            }
            return make_record(
                command="ode-check",
                input_id=input_id,
                inputs=inputs,
                quantities=quantities,
                margins={
                    "residual_r1": cfg["residual_tol"] - quantities["max_r1"],
                    "residual_r2": cfg["residual_tol"] - quantities["max_r2"],
                    "s_floor": quantities["min_s_minus_floor"],
                    "s_prime_positive": quantities["min_s_prime"],
                    "denom_positive": quantities["min_denom"],
                    "u_end_close": cfg["end_tol"] - abs(u_end - u_target),
                },
                tolerances={
                    "residual_r1": 0.0,
                    "residual_r2": 0.0,
                    "s_floor": 1e-12,
                    "s_prime_positive": 0.0,
                    "denom_positive": 0.0,
                    "u_end_close": 0.0,
                },
                primary="max_r1",
                provenance={k: "ode_residual" if k.startswith("max_") else "ode_pair" for k in quantities},
                wall_time_s=time.perf_counter() - start,
            )

        records.append(_unit("ode-check", input_id, inputs, work))
    return records


def _records_cutoff(cfg: dict) -> list[ReportRecord]:
    records = []
    for t0 in cfg["t0s"]:
        input_id = f"t0={t0:g},eps={cfg['eps_sequence']}"
        inputs = {
            "t0": t0,
            "eps_sequence": cfg["eps_sequence"],
            "limit_tol": cfg["limit_tol"],
        }
        records.append(
            _unit(
                "cutoff-check",
                input_id,
                inputs,
                lambda t0=t0: cutoff_limit_check(
                    t0, cfg["eps_sequence"], limit_tol=cfg["limit_tol"]
                ),
            )
        )
    return records


def _profile_fn(name: str):
    if name == "one":
        return lambda z: np.ones(np.shape(z))
    return lambda z: 1.0 + np.asarray(z, dtype=complex).real


def _records_residual(cfg: dict) -> list[ReportRecord]:
    records = []
    for psi0 in cfg["psi0s"]:
        for fname in cfg["fs"]:
            input_id = f"psi0={psi0:g},f={fname}"
            inputs = {
                "psi0": psi0,
                "f": fname,
                "t": cfg["t"],
                "value_tol": cfg["value_tol"],
            }

            def work(psi0=psi0, fname=fname, input_id=input_id, inputs=inputs):
                start = time.perf_counter()
                psi = PolarSpec(
                    0.0,
                    lambda z, c=psi0: np.full(np.shape(z), c, dtype=float),
                    None,
                    name=f"log-pole+{psi0:g}",
                )
                mass = residual_measure(psi, _profile_fn(fname), cfg["t"])
                expected = math.exp(-psi0)  # both profiles have f(0) = 1
                err = abs(mass - expected)
                return make_record(
                    command="residual-measure",
                    input_id=input_id,
                    inputs=inputs,
                    quantities={
                        "mass": mass,
                        "expected": expected,
                        "abs_error": err,
                    },
                    margins={"value_match": cfg["value_tol"] - err},
                    tolerances={"value_match": 0.0},
                    primary="mass",
                    provenance={
                        "mass": "residual_measure",
                        "expected": "residual-measure",
                        "abs_error": "residual-measure",
                    },
                    wall_time_s=time.perf_counter() - start,
                )

            records.append(_unit("residual-measure", input_id, inputs, work))
    return records


def _records_squeeze(cfg: dict) -> list[ReportRecord]:
    domain, ps = _chosen_points(cfg, "ps")
    records = []
    for p in ps:
        input_id = f"{domain!r}@p={p!r}"
        inputs = {"domain": cfg["domain"], "p": p, "sandwich_tol": cfg["sandwich_tol"]}
        records.append(
            _unit(
                "squeeze-check",
                input_id,
                inputs,
                lambda p=p: sandwich_check(domain, p, sandwich_tol=cfg["sandwich_tol"]),
            )
        )
    if cfg["trend"]:
        input_id = f"{domain!r}:boundary-trend"
        inputs = {"domain": cfg["domain"], "ks": cfg["ks"], "angle": cfg["angle"]}
        records.append(
            _unit(
                "squeeze-check",
                input_id,
                inputs,
                lambda: boundary_trend_check(
                    domain, ks=tuple(cfg["ks"]), angle=cfg["angle"]
                ),
            )
        )
    return records


def _records_fuchsian(cfg: dict) -> list[ReportRecord]:
    input_id = f"c_grid[{len(cfg['c_grid'])}],N={cfg['n_terms']}"
    inputs = {
        "c_grid": cfg["c_grid"],
        "n_terms": cfg["n_terms"],
        "tail_tol": cfg["tail_tol"],
    }
    return [
        _unit(
            "fuchsian-check",
            input_id,
            inputs,
            lambda: inequality_check(
                c_grid=tuple(cfg["c_grid"]),
                N=cfg["n_terms"],
                tail_tol=cfg["tail_tol"],
            ),
        )
    ]


def _records_torus(cfg: dict) -> list[ReportRecord]:
    records = []
    for tau_str in cfg["taus"]:
        for d in cfg["ds"]:
            tau = complex(tau_str)
            input_id = f"tau={tau},d={d}"
            inputs = {"tau": tau_str, "d": d}
            records.append(
                _unit(
                    "torus-check",
                    input_id,
                    inputs,
                    lambda tau=tau, d=d: arak1_check(
                        TorusSpec(tau),
                        d,
                        margin_tol=cfg["margin_tol"],
                        residual_tol=cfg["residual_tol"],
                        lap_tol=cfg["lap_tol"],
                        ab_tol=cfg["ab_tol"],
                        diag_tol=cfg["diag_tol"],
                    ),
                )
            )
    return records


def _subconfig(command: str, **overrides) -> dict:
    cfg = {name: p.default for name, p in PARAMS[command].items()}
    cfg.update(overrides)
    cfg["command"] = command
    for name, p in PARAMS[command].items():
        cfg[name] = _coerce(p.kind, cfg[name], name)
    return cfg


# the full verification suite, in dependency order
_ALL_SEQUENCE = (
    ("suita-check", {"domain": "disc", "zs": ["0j", "0.3", "0.6j"]}),
    ("suita-check", {"domain": "annulus:0.2"}),
    ("extended-suita-check", {"domain": "annulus:0.2", "weight": "harmoniclog:0.3"}),
    ("extended-suita-check", {"domain": "annulus:0.2", "weight": "harmonicre:0.2"}),
    ("optimal-constant", {}),
    ("ode-check", {}),
    ("cutoff-check", {}),
    ("residual-measure", {}),
    ("fuchsian-check", {}),
    ("squeeze-check", {"domain": "annulus:0.2"}),
    ("squeeze-check", {"domain": "annulus:0.04"}),
    ("torus-check", {}),
)


def _records_all(cfg: dict) -> list[ReportRecord]:
    records = []
    for command, overrides in _ALL_SEQUENCE:
        records.extend(_HANDLERS[command](_subconfig(command, **overrides)))
    return records


_HANDLERS = {
    "green": _records_green,
    "capacity": _records_capacity,
    "bergman": _records_bergman,
    "suita-check": _records_suita,
    "extended-suita-check": _records_extended_suita,
    "optimal-constant": _records_optimal_constant,
    "ode-check": _records_ode,
    "cutoff-check": _records_cutoff,
    "residual-measure": _records_residual,
    "squeeze-check": _records_squeeze,
    "fuchsian-check": _records_fuchsian,
    "torus-check": _records_torus,
    "all": _records_all,
}


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", text).strip("_").lower()


def _plot_series(records: list[ReportRecord]):
    """(filename, xs, ys, header) for each sweep record."""
    series = []
    for rec in records:
        if rec.command == "optimal-constant" and "ratio_0" in rec.quantities:
            a_values = rec.inputs.get("a_values") or []
            ys = [rec.quantities[f"ratio_{i}"] for i in range(len(a_values))]
            name = (
                f"optimal_constant_ratio_vs_a_delta{rec.inputs['delta']:g}"
                f"_eps{rec.inputs['eps']:g}.dat"
            )
            series.append(
                (name, a_values, ys, "a ratio  # normalized least-norm ratio vs plateau radius")
            )
        elif rec.command == "squeeze-check" and "final_deficit" in rec.quantities:
            ks = rec.inputs.get("ks") or []
            xs = [10.0 ** (-k) for k in ks]
            ys = [rec.quantities[f"ratio_k{k}"] for k in ks]
            name = f"squeeze_trend_{_slug(str(rec.inputs.get('domain', 'domain')))}.dat"
            series.append(
                (name, xs, ys, "boundary_distance ratio  # capacity/kernel ratio near the boundary")
            )
    return series


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run(config: dict) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    outdir = config["outdir"]
    os.makedirs(outdir, exist_ok=True)
    key = config_hash(config)
    records = None
    cached_hit = False
    if config["cache"]:
        loaded = cache_load(outdir, key)
        if loaded is not None:
            records, cached_hit = loaded, True
    if records is None:
        records = _HANDLERS[config["command"]](config)
        records = [replace(r, config_hash=key) for r in records]
        if config["cache"]:
            cache_store(outdir, key, records)

    slug = config["command"].replace("-", "_")
    json_path = os.path.join(outdir, f"{slug}_report.json")
    csv_path = os.path.join(outdir, f"{slug}_summary.csv")
    write_json_report(json_path, config, records)
    write_csv_summary(csv_path, records)
    for name, xs, ys, header in _plot_series(records):
        write_plot_data(os.path.join(outdir, name), xs, ys, header)

    for rec in records:
        value = rec.quantities[rec.primary]
        value_str = (
            f"{value[0]!r}+{value[1]!r}j" if isinstance(value, list) else repr(float(value))
        )
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.command} [{rec.input_id}] {rec.primary}={value_str}")
    n_fail = sum(1 for r in records if not r.passed)
    tag = " (cached)" if cached_hit else ""
    print(
        f"{len(records) - n_fail}/{len(records)} checks passed{tag}; "
        f"report {json_path}; summary {csv_path}"
    )
    return 0 if n_fail == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergreen",
        description=(
            "Green-function, capacity, weighted-kernel, and sharp-inequality "
            "verification harness.  Each command writes a JSON report and a "
            "CSV summary into the output directory."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    for command, schema in PARAMS.items():
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--config", default=None, help="JSON config file (flags win)")
        p.add_argument(
            "--outdir",
            default=None,
            help=f"output directory (default ${ENV_OUTDIR} or {DEFAULT_OUTDIR!r})",
        )
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="reuse cached records for identical configs (default on)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="seed echoed into the config hash (reserved; no command samples randomly)",
        )
        for name, param in schema.items():
            flag = "--" + name.replace("_", "-")
            if param.kind == "bool":
                p.add_argument(
                    flag,
                    dest=name,
                    action=argparse.BooleanOptionalAction,
                    default=None,
                    help=param.help,
                )
            else:
                p.add_argument(flag, dest=name, default=None, help=param.help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    overrides = {
        name: getattr(args, name)
        for name in list(PARAMS[args.command]) + ["outdir", "cache", "seed"]
    }
    try:
        config = resolve_config(args.command, args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
