"""Command-line harness: config ingestion, experiment orchestration,
report persistence, and plot-data emission.

Every run resolves one configuration (defaults < JSON config file < CLI
flags, flags winning), validates it, and expands it through the registry
``CHECKS`` into cases, each a call of a record-building check in the
module that owns it.
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
import inspect
import json
import math
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bergman, domains, extension, fuchsian, squeezing, torus
from .bergman import HarmonicLog, HarmonicRe, MaxPiece, Unweighted
from .domains import Annulus, Disc, Jordan
from .errors import BergreenError, ConfigError, DomainError
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


def _default(fn, name: str):
    """The default of keyword ``name`` in the signature of ``fn``, the
    function that applies it; each default a check owns is written there
    only, and the schema reads it."""
    return inspect.signature(fn).parameters[name].default


PARAMS: dict[str, dict[str, Param]] = {
    "green": {
        "domain": Param("str", "disc", "domain spec (disc[:R] | annulus:r | ellipse:a:b | jordan:file)"),
        "method": Param("str", _default(domains.green_evaluator, "method"),
                        "auto | closed_form | laurent_modes | nystrom"),
        "xi": Param("complex", "0.5", "evaluation point"),
        "z": Param("complex", "0.1", "pole location"),
    },
    "capacity": {
        "domain": Param("str", "disc", "domain spec"),
        "z": Param("complex", "0.3", "point"),
        "cap_tol": Param("float", _default(domains.capacity, "cap_tol"),
                         "limit stability tolerance"),
    },
    "bergman": {
        "domain": Param("str", "disc", "domain spec (disc or annulus)"),
        "weight": Param("str", "none", "weight spec (none | harmoniclog:a | harmonicre:c | maxpiece:d:a)"),
        "z": Param("complex", "0.3", "diagonal point"),
        "trunc_tol": Param("float", _default(bergman.kernel_diag, "trunc_tol"),
                           "kernel truncation tolerance"),
    },
    "suita-check": {
        "domain": Param("str", "annulus:0.2", "domain spec (disc or annulus)"),
        "zs": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 8, "number of swept interior points"),
        "ratio_tol": Param("float", _default(bergman.suita_ratio, "ratio_tol"),
                           "allowed overshoot of the unit bound"),
    },
    "extended-suita-check": {
        "domain": Param("str", "annulus:0.2", "domain spec (disc or annulus)"),
        "weight": Param("str", "harmoniclog:0.3", "harmonic weight spec"),
        "zs": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 4, "number of swept interior points"),
        "margin_tol": Param("float", _default(bergman.extended_suita_check, "margin_tol"),
                            "allowed negative margin"),
    },
    "optimal-constant": {
        "deltas": Param("floats", [0.5, 1.0, 2.0], "delta grid"),
        "epss": Param("floats", [0.0, 0.1], "epsilon grid"),
        "a_values": Param("floats", _default(extension.optimal_constant_experiment, "a_values"),
                          "decreasing plateau radii"),
        "cross_tol": Param("float",
                           _default(extension.optimal_constant_experiment, "cross_check_tol"),
                           "closed-form vs quadrature relative tolerance"),
        "limit_rel_tol": Param("float",
                               _default(extension.optimal_constant_record, "limit_rel_tol"),
                               "relative tolerance of the extrapolated limit"),
    },
    "ode-check": {
        "deltas": Param("floats", [0.1, 0.5, 1.0, 2.0, 10.0], "delta grid"),
        "t_grid": Param("grid", "log:0.01:50:200", "t grid spec (log:lo:hi:n | lin:lo:hi:n | comma list)"),
        "residual_tol": Param("float", _default(extension.ode_record, "residual_tol"),
                              "max allowed identity residual"),
        "end_tol": Param("float", _default(extension.ode_record, "end_tol"),
                         "tolerance of u at the grid end vs its limit"),
    },
    "cutoff-check": {
        "t0s": Param("floats", [1.0, 5.0], "anchoring offsets"),
        "eps_sequence": Param("floats", [0.2, 0.1, 0.05, 0.01], "decreasing smoothing widths"),
        "limit_tol": Param("float", _default(extension.cutoff_limit_check, "limit_tol"),
                           "final sup-gap bound"),
    },
    "residual-measure": {
        "psi0s": Param("floats", [0.0, -0.7, 0.3], "constant offsets added to the log pole"),
        "fs": Param("strs", list(extension.RESIDUAL_PROFILES), "integrand profiles (one | affine)"),
        "t": Param("float", _default(extension.residual_record, "t"), "shell depth"),
        "value_tol": Param("float", _default(extension.residual_record, "value_tol"),
                           "tolerance against the point-mass value"),
    },
    "squeeze-check": {
        "domain": Param("str", "annulus:0.2", "domain spec (disc or annulus)"),
        "ps": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 8, "number of swept interior points"),
        "sandwich_tol": Param("float", _default(squeezing.sandwich_check, "sandwich_tol"),
                              "two-sided comparison tolerance"),
        "trend": Param("bool", True, "also run the boundary trend check"),
        "ks": Param("ints", _default(squeezing.boundary_trend_check, "ks"),
                    "boundary distances 10^-k for the trend"),
        "angle": Param("float", _default(squeezing.boundary_trend_check, "angle"),
                       "ray angle for the trend points"),
    },
    "fuchsian-check": {
        "c_grid": Param("floats", _default(fuchsian.inequality_check, "c_grid"),
                        "generator parameters"),
        "n_terms": Param("int", _default(fuchsian.inequality_check, "N"), "orbit truncation"),
        "tail_tol": Param("float", _default(fuchsian.inequality_check, "tail_tol"),
                          "certified tail bound"),
    },
    "torus-check": {
        "taus": Param("complexes", ["1j", "0.5+1j"], "moduli (Im > 0)"),
        "ds": Param("ints", [4, 6], "even degrees >= 4"),
        "margin_tol": Param("float", _default(torus.arak1_check, "margin_tol"),
                            "allowed negative inequality margin"),
        "residual_tol": Param("float", _default(torus.arak1_check, "residual_tol"),
                              "residual-mass identity tolerance"),
        "lap_tol": Param("float", _default(torus.arak1_check, "lap_tol"),
                         "volume-Laplacian deviation bound"),
        "ab_tol": Param("float", _default(torus.arak1_check, "ab_tol"),
                        "curvature ratio tolerance"),
        "diag_tol": Param("float", _default(torus.arak1_check, "diag_tol"),
                          "kernel diagonal constancy tolerance"),
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

# commands whose checks need closed-form moments or exact circle images
_DISC_OR_ANNULUS = {"bergman", "suita-check", "extended-suita-check", "squeeze-check"}


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
    return config


def _apply(config: dict, command: str, key: str, value) -> None:
    if key == "outdir":
        if not isinstance(value, str) or not value:
            raise ConfigError("outdir must be a non-empty string")
        config["outdir"] = value
    elif key == "cache":
        config["cache"] = _coerce("bool", value, "cache")
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
        if command in _DISC_OR_ANNULUS and not isinstance(domain, (Disc, Annulus)):
            raise ConfigError(
                f"{command} supports disc and annulus domains only, not {config['domain']!r}"
            )
    if "weight" in schema:
        _parse_weight(config["weight"])
    if "fs" in schema:
        for f in config["fs"]:
            if f not in extension.RESIDUAL_PROFILES:
                raise ConfigError(
                    f"unknown integrand profile {f!r} (use {'|'.join(extension.RESIDUAL_PROFILES)})"
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
# Check registry
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    """One record to produce: its id and echoed inputs, and the check
    ``"<module>.<function>"`` that builds it from ``kwargs``."""

    input_id: str
    inputs: dict
    check: str
    kwargs: dict


def _unit(command: str, case: Case) -> ReportRecord:
    """Run and time one case.  The check is looked up on its module when it
    runs, so a wrapper installed there sees the call.  The record carries
    the case's id and echoed inputs; any error the check raises (a module
    error, or a numpy or programming error) becomes a failing record, so
    the report is still written and the exit code is 1."""
    module, _, name = case.check.partition(".")
    start = time.perf_counter()
    try:
        record = getattr(sys.modules[f"{__package__}.{module}"], name)(**case.kwargs)
    except Exception as exc:
        if not isinstance(exc, BergreenError):
            traceback.print_exc()  # not a numerical failure: keep the trace
        return make_record(
            command=command,
            input_id=case.input_id,
            inputs={**case.inputs, "error": f"{type(exc).__name__}: {exc}"},
            quantities={"error_flag": 1.0},
            margins={"module_error": -1.0},
            tolerances={"module_error": 0.0},
            primary="error_flag",
            provenance={"error_flag": type(exc).__name__},
            wall_time_s=time.perf_counter() - start,
        )
    return replace(
        record,
        input_id=case.input_id,
        inputs={**record.inputs, **case.inputs},
        wall_time_s=time.perf_counter() - start,
    )


def _echo(cfg: dict, *names: str) -> dict:
    return {name: cfg[name] for name in names}


def _points(cfg: dict, key: str):
    domain = _parse_domain(cfg["domain"])
    return domain, [complex(s) for s in cfg[key]] or _sweep_points(domain, cfg["points"])


def _green(cfg):
    xi, z = complex(cfg["xi"]), complex(cfg["z"])
    kwargs = {"domain": _parse_domain(cfg["domain"]), "xi": xi, "z": z, "method": cfg["method"]}
    yield Case(f"{cfg['domain']} xi={xi} z={z}", _echo(cfg, "domain", "method", "xi", "z"),
               "domains.green_record", kwargs)


def _capacity(cfg):
    z = complex(cfg["z"])
    kwargs = {"domain": _parse_domain(cfg["domain"]), "z": z, "cap_tol": cfg["cap_tol"]}
    yield Case(f"{cfg['domain']} z={z}", _echo(cfg, "domain", "z", "cap_tol"),
               "domains.capacity_record", kwargs)


def _bergman(cfg):
    z = complex(cfg["z"])
    kwargs = {"domain": _parse_domain(cfg["domain"]), "weight": _parse_weight(cfg["weight"]),
              "z": z, "trunc_tol": cfg["trunc_tol"]}
    yield Case(f"{cfg['domain']} {cfg['weight']} z={z}",
               _echo(cfg, "domain", "weight", "z", "trunc_tol"), "bergman.kernel_record", kwargs)


def _suita(cfg):
    domain, zs = _points(cfg, "zs")
    for z in zs:
        yield Case(f"{cfg['domain']} z={z}", {**_echo(cfg, "domain", "ratio_tol"), "z": str(z)},
                   "bergman.suita_record",
                   {"domain": domain, "z": z, "ratio_tol": cfg["ratio_tol"]})


def _extended_suita(cfg):
    domain, zs = _points(cfg, "zs")
    weight = _parse_weight(cfg["weight"])
    for z in zs:
        yield Case(f"{cfg['domain']} {cfg['weight']} z={z}",
                   {**_echo(cfg, "domain", "weight", "margin_tol"), "z": str(z)},
                   "bergman.extended_suita_record",
                   {"domain": domain, "weight": weight, "z": z, "margin_tol": cfg["margin_tol"]})


def _optimal_constant(cfg):
    tols = _echo(cfg, "a_values", "cross_tol", "limit_rel_tol")
    for delta in cfg["deltas"]:
        for eps in cfg["epss"]:
            yield Case(f"delta={delta:g},eps={eps:g}", {"delta": delta, "eps": eps, **tols},
                       "extension.optimal_constant_record", {"delta": delta, "eps": eps, **tols})


def _ode(cfg):
    grid = _parse_grid(cfg["t_grid"])
    tols = _echo(cfg, "residual_tol", "end_tol")
    for delta in cfg["deltas"]:
        yield Case(f"delta={delta:g}", {"delta": delta, "t_grid": cfg["t_grid"], **tols},
                   "extension.ode_record", {"delta": delta, "grid": grid, **tols})


def _cutoff(cfg):
    args = _echo(cfg, "eps_sequence", "limit_tol")
    for t0 in cfg["t0s"]:
        yield Case(f"t0={t0},eps={cfg['eps_sequence']}", {"t0": t0, **args},
                   "extension.cutoff_limit_check", {"t0": t0, **args})


def _residual(cfg):
    args = _echo(cfg, "t", "value_tol")
    for psi0 in cfg["psi0s"]:
        for f in cfg["fs"]:
            yield Case(f"psi0={psi0:g},f={f}", {"psi0": psi0, "f": f, **args},
                       "extension.residual_record", {"psi0": psi0, "f": f, **args})


def _squeeze(cfg):
    domain, ps = _points(cfg, "ps")
    tol = cfg["sandwich_tol"]
    for p in ps:
        yield Case(f"{domain!r}@p={p!r}",
                   {"domain": repr(domain), "p": str(p), "sandwich_tol": tol},
                   "squeezing.sandwich_check", {"domain": domain, "p": p, "sandwich_tol": tol})
    if cfg["trend"]:
        trend = {"ks": cfg["ks"], "angle": cfg["angle"]}
        yield Case(f"{domain!r}:boundary-trend", {"domain": repr(domain), **trend},
                   "squeezing.boundary_trend_check", {"domain": domain, **trend})


def _fuchsian(cfg):
    args = {"c_grid": cfg["c_grid"], "N": cfg["n_terms"], "tail_tol": cfg["tail_tol"]}
    yield Case(f"c_grid={cfg['c_grid']},N={cfg['n_terms']}", args,
               "fuchsian.inequality_check", args)


def _torus(cfg):
    tols = _echo(cfg, "margin_tol", "residual_tol", "lap_tol", "ab_tol", "diag_tol")
    for tau in cfg["taus"]:
        for d in cfg["ds"]:
            yield Case(f"tau={complex(tau)},d={d}", {"tau": tau, "d": d},
                       "torus.arak1_check", {"spec": torus.TorusSpec(complex(tau)), "d": d, **tols})


# command -> the cases of its config, in record order
CHECKS = {
    "green": _green,
    "capacity": _capacity,
    "bergman": _bergman,
    "suita-check": _suita,
    "extended-suita-check": _extended_suita,
    "optimal-constant": _optimal_constant,
    "ode-check": _ode,
    "cutoff-check": _cutoff,
    "residual-measure": _residual,
    "squeeze-check": _squeeze,
    "fuchsian-check": _fuchsian,
    "torus-check": _torus,
}


def _subconfig(command: str, **overrides) -> dict:
    cfg = {name: p.default for name, p in PARAMS[command].items()}
    cfg.update(overrides, command=command)
    _canonicalize(cfg)
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


def _records(cfg: dict) -> list[ReportRecord]:
    command = cfg["command"]
    if command == "all":
        return [
            rec
            for sub, overrides in _ALL_SEQUENCE
            for rec in _records(_subconfig(sub, **overrides))
        ]
    return [_unit(command, case) for case in CHECKS[command](cfg)]


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
        records = _records(config)
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
        for name in list(PARAMS[args.command]) + ["outdir", "cache"]
    }
    try:
        config = resolve_config(args.command, args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
