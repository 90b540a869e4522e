"""Command-line harness: config ingestion, experiment orchestration,
report persistence, and plot-data emission.

Every run resolves one configuration (defaults < JSON config file < CLI
flags, flags winning), validates it, and expands it through the registry
``CHECKS`` into cases, each a call of a record-building check in the
module that owns it; ``_unit`` runs each case and names its record.
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
from typing import Callable, NamedTuple

import numpy as np

from . import bergman, domains, extension, fuchsian, squeezing, torus
from .bergman import parse_weight
from .domains import Annulus, Disc, parse_domain
from .errors import BergreenError, ConfigError, DomainError, ParameterError
from .reports import (
    ReportRecord,
    cache_load,
    cache_store,
    config_hash,
    make_record,
    primary_text,
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
    """One command parameter: value kind, default, help text, and the
    preconditions that the owning check states for one value (each element
    of a list, each point of a grid) and for a whole list, which raise
    :class:`ParameterError`."""

    kind: str  # str | int | float | complex | bool | floats | ints | complexes | strs | grid
    default: object
    help: str = ""
    check: Callable[[object], None] | None = None
    check_list: Callable[[list], None] | None = None


def _default(fn, name: str):
    """The default of keyword ``name`` in the signature of ``fn``, the
    function that applies it; each default a check owns is written there
    only, and the schema reads it."""
    return inspect.signature(fn).parameters[name].default


PARAMS: dict[str, dict[str, Param]] = {
    "green": {
        "domain": Param("str", "disc", "domain spec (disc[:R] | annulus:r | ellipse:a:b | jordan:file)"),
        "method": Param("str", _default(domains.green_evaluator, "method"),
                        " | ".join(domains.GREEN_METHODS)),
        "xi": Param("complex", "0.5", "evaluation point"),
        "z": Param("complex", "0.1", "pole location"),
    },
    "capacity": {
        "domain": Param("str", "disc", "domain spec"),
        "z": Param("complex", "0.3", "point"),
    },
    "bergman": {
        "domain": Param("str", "disc", "domain spec (disc or annulus)"),
        "weight": Param("str", "none", "weight spec (none | harmoniclog:a | harmonicre:c | maxpiece:d:a)"),
        "z": Param("complex", "0.3", "diagonal point"),
    },
    "suita-check": {
        "domain": Param("str", "annulus:0.2", "domain spec (disc or annulus)"),
        "zs": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 8, "number of swept interior points"),
    },
    "extended-suita-check": {
        "domain": Param("str", "annulus:0.2", "domain spec (disc or annulus)"),
        "weight": Param("str", "harmoniclog:0.3", "harmonic weight spec"),
        "zs": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 4, "number of swept interior points"),
    },
    "optimal-constant": {
        "deltas": Param("floats", [0.5, 1.0, 2.0], "delta grid",
                        check=extension.require_delta),
        "epss": Param("floats", [0.0, 0.1], "epsilon grid", check=extension.require_eps),
        "a_values": Param("floats", _default(extension.optimal_constant_experiment, "a_values"),
                          "decreasing plateau radii", check=extension.require_a,
                          check_list=extension.require_a_values),
    },
    "ode-check": {
        "deltas": Param("floats", [0.1, 0.5, 1.0, 2.0, 10.0], "delta grid",
                        check=extension.require_positive_delta),
        "t_grid": Param("grid", "log:0.01:50:200", "t grid spec (log:lo:hi:n | lin:lo:hi:n | comma list)",
                        check=extension.require_ode_t),
    },
    "cutoff-check": {
        "t0s": Param("floats", [1.0, 5.0], "anchoring offsets", check=extension.require_t0),
        "eps_sequence": Param("floats", [0.2, 0.1, 0.05, 0.01], "decreasing smoothing widths",
                              check=extension.require_cutoff_eps,
                              check_list=extension.require_eps_sequence),
    },
    "residual-measure": {
        "psi0s": Param("floats", [0.0, -0.7, 0.3], "constant offsets added to the log pole",
                       check=extension.require_psi0),
        "fs": Param("strs", list(extension.RESIDUAL_PROFILES), "integrand profiles (one | affine)"),
        "t": Param("float", _default(extension.residual_record, "t"), "shell depth",
                   check=extension.require_shell_depth),
    },
    "squeeze-check": {
        "domain": Param("str", "annulus:0.2", "domain spec (disc or annulus)"),
        "ps": Param("complexes", [], "explicit points (overrides --points sweep)"),
        "points": Param("int", 8, "number of swept interior points"),
        "trend": Param("bool", True, "also run the boundary trend check"),
        "ks": Param("ints", _default(squeezing.boundary_trend_check, "ks"),
                    "boundary distances 10^-k for the trend", check=squeezing.require_trend_k,
                    check_list=squeezing.require_trend_ks),
        "angle": Param("float", _default(squeezing.boundary_trend_check, "angle"),
                       "ray angle for the trend points", check=squeezing.require_angle),
    },
    "fuchsian-check": {
        "c_grid": Param("floats", _default(fuchsian.inequality_check, "c_grid"),
                        "generator parameters", check=fuchsian.require_c),
        "n_terms": Param("int", _default(fuchsian.inequality_check, "N"), "orbit truncation",
                         check=fuchsian.require_terms),
    },
    "torus-check": {
        "taus": Param("complexes", ["1j", "0.5+1j"], "moduli (Im > 0)", check=torus.require_tau),
        "ds": Param("ints", [4, 6], "even degrees >= 4", check=torus.require_degree),
    },
    "all": {},
}

# commands whose checks need closed-form moments or the closed-form squeezing bound
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


def _as_str(v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"expected a string, got {v!r}")
    return v


def _as_bool(v) -> bool:
    if isinstance(v, str) and v.lower() in ("true", "false"):
        return v.lower() == "true"
    if not isinstance(v, bool):
        raise ConfigError(f"expected true/false, got {v!r}")
    return v


def _as_int(v) -> int:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"expected an integer, got {v!r}")
    return int(v)


def _as_grid(v) -> str:
    _parse_grid(_as_str(v))  # validate only
    return v


# Param.kind -> converter of a config value to its canonical form
_CONVERTERS = {
    "str": _as_str,
    "bool": _as_bool,
    "int": _as_int,
    "float": float,
    "complex": _canon_complex,
    "grid": _as_grid,
    "floats": lambda v: [float(x) for x in _split_list(v)],
    "ints": lambda v: [int(x) for x in _split_list(v)],
    "complexes": lambda v: [_canon_complex(x) for x in _split_list(v)],
    "strs": lambda v: [str(x) for x in _split_list(v)],
}


def _coerce(kind: str, value, name: str):
    try:
        return _CONVERTERS[kind](value)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_grid(spec: str) -> np.ndarray:
    """The points of a grid spec, every one finite."""
    parts = spec.split(":")
    if parts[0] in ("log", "lin"):
        if len(parts) != 4:
            raise ConfigError(f"grid spec needs 4 fields, got {spec!r}")
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        if n < 2:
            raise ConfigError("grid needs at least 2 points")
        if parts[0] == "log" and not (0.0 < lo < hi):
            raise ConfigError("log grid needs 0 < lo < hi")
        elif not (lo < hi):
            raise ConfigError("lin grid needs lo < hi")
        # an infinite bound, or a span past the float range, gives
        # non-finite points, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.geomspace(lo, hi, n) if parts[0] == "log" else np.linspace(lo, hi, n)
    else:
        grid = np.asarray([float(x) for x in _split_list(spec)])
        if not grid.size:
            raise ConfigError("empty grid")
    if not np.isfinite(grid).all():
        raise ConfigError("grid points must be finite")
    return grid


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
        if p.kind == "int" and value < 1:
            raise ConfigError(f"{name} must be at least 1")
        # a list may be empty only where its default is (a sweep takes its place)
        if isinstance(value, list) and not value and p.default:
            raise ConfigError(f"{name} must be a non-empty list")
        if p.kind == "grid":  # its points are checked as a list's elements
            value = list(_parse_grid(value))
        try:
            if p.check is not None:
                for v in value if isinstance(value, list) else [value]:
                    p.check(v)
            if p.check_list is not None:
                p.check_list(value)
        except ParameterError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    try:  # the spec grammars live beside their types and raise DomainError
        domain = parse_domain(config["domain"]) if "domain" in schema else None
        if "weight" in schema:
            parse_weight(config["weight"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    if command in _DISC_OR_ANNULUS and not isinstance(domain, (Disc, Annulus)):
        raise ConfigError(
            f"{command} supports disc and annulus domains only, not {config['domain']!r}"
        )
    if "method" in schema and config["method"] not in domains.GREEN_METHODS:
        raise ConfigError(
            f"unknown method {config['method']!r} (use {'|'.join(domains.GREEN_METHODS)})"
        )
    if "fs" in schema:
        for f in config["fs"]:
            if f not in extension.RESIDUAL_PROFILES:
                raise ConfigError(
                    f"unknown integrand profile {f!r} (use {'|'.join(extension.RESIDUAL_PROFILES)})"
                )
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
    runs, so a wrapper installed there sees the call.  The check returns
    quantities and gates only; this is the one place that names a record,
    stamping the command, the case's id and echoed inputs and the wall
    time.  Any error the check raises (a module error, or a numpy or
    programming error) becomes a failing record, its error echoed beside
    the inputs, so the report is still written and the exit code is 1."""
    module, _, name = case.check.partition(".")
    inputs = dict(case.inputs)
    start = time.perf_counter()
    try:
        record = getattr(sys.modules[f"{__package__}.{module}"], name)(**case.kwargs)
    except Exception as exc:
        if not isinstance(exc, BergreenError):
            traceback.print_exc()  # not a numerical failure: keep the trace
        inputs["error"] = f"{type(exc).__name__}: {exc}"
        record = make_record(
            quantities={"error_flag": 1.0},
            gates={"module_error": (-1.0, 0.0)},
            primary="error_flag",
            provenance={"error_flag": type(exc).__name__},
        )
    return replace(
        record,
        command=command,
        input_id=case.input_id,
        inputs=inputs,
        wall_time_s=time.perf_counter() - start,
    )


def _echo(cfg: dict, *names: str) -> dict:
    return {name: cfg[name] for name in names}


def _points(cfg: dict, key: str):
    domain = parse_domain(cfg["domain"])
    return domain, [complex(s) for s in cfg[key]] or _sweep_points(domain, cfg["points"])


def _green(cfg):
    xi, z = complex(cfg["xi"]), complex(cfg["z"])
    kwargs = {"domain": parse_domain(cfg["domain"]), "xi": xi, "z": z, "method": cfg["method"]}
    yield Case(f"{cfg['domain']} xi={xi} z={z}", _echo(cfg, "domain", "method", "xi", "z"),
               "domains.green_record", kwargs)


def _capacity(cfg):
    z = complex(cfg["z"])
    kwargs = {"domain": parse_domain(cfg["domain"]), "z": z}
    yield Case(f"{cfg['domain']} z={z}", _echo(cfg, "domain", "z"),
               "domains.capacity_record", kwargs)


def _bergman(cfg):
    z = complex(cfg["z"])
    kwargs = {"domain": parse_domain(cfg["domain"]), "weight": parse_weight(cfg["weight"]), "z": z}
    yield Case(f"{cfg['domain']} {cfg['weight']} z={z}",
               _echo(cfg, "domain", "weight", "z"), "bergman.kernel_record", kwargs)


def _suita(cfg):
    domain, zs = _points(cfg, "zs")
    for z in zs:
        yield Case(f"{cfg['domain']} z={z}", {"domain": cfg["domain"], "z": str(z)},
                   "bergman.suita_ratio", {"domain": domain, "z": z})


def _extended_suita(cfg):
    domain, zs = _points(cfg, "zs")
    weight = parse_weight(cfg["weight"])
    for z in zs:
        yield Case(f"{cfg['domain']} {cfg['weight']} z={z}",
                   {**_echo(cfg, "domain", "weight"), "z": str(z)},
                   "bergman.extended_suita_check",
                   {"domain": domain, "weight": weight, "z": z})


def _optimal_constant(cfg):
    a_values = cfg["a_values"]
    for delta in cfg["deltas"]:
        for eps in cfg["epss"]:
            args = {"delta": delta, "eps": eps, "a_values": a_values}
            yield Case(f"delta={delta:g},eps={eps:g}", args,
                       "extension.optimal_constant_experiment", args)


def _ode(cfg):
    grid = _parse_grid(cfg["t_grid"])
    for delta in cfg["deltas"]:
        yield Case(f"delta={delta:g}", {"delta": delta, "t_grid": cfg["t_grid"]},
                   "extension.ode_record", {"delta": delta, "grid": grid})


def _cutoff(cfg):
    eps_sequence = cfg["eps_sequence"]
    for t0 in cfg["t0s"]:
        args = {"t0": t0, "eps_sequence": eps_sequence}
        yield Case(f"t0={t0},eps={eps_sequence}", args, "extension.cutoff_limit_check", args)


def _residual(cfg):
    args = {"t": cfg["t"]}
    for psi0 in cfg["psi0s"]:
        for f in cfg["fs"]:
            yield Case(f"psi0={psi0:g},f={f}", {"psi0": psi0, "f": f, **args},
                       "extension.residual_record", {"psi0": psi0, "f": f, **args})


def _squeeze(cfg):
    domain, ps = _points(cfg, "ps")
    for p in ps:
        yield Case(f"{domain!r}@p={p!r}", {"domain": repr(domain), "p": str(p)},
                   "squeezing.sandwich_check", {"domain": domain, "p": p})
    if cfg["trend"]:
        trend = {"ks": cfg["ks"], "angle": cfg["angle"]}
        yield Case(f"{domain!r}:boundary-trend", {"domain": repr(domain), **trend},
                   "squeezing.boundary_trend_check", {"domain": domain, **trend})


def _fuchsian(cfg):
    args = {"c_grid": cfg["c_grid"], "N": cfg["n_terms"]}
    yield Case(f"c_grid={cfg['c_grid']},N={cfg['n_terms']}", args,
               "fuchsian.inequality_check", args)


def _torus(cfg):
    for tau in cfg["taus"]:
        for d in cfg["ds"]:
            yield Case(f"tau={complex(tau)},d={d}", {"tau": tau, "d": d},
                       "torus.arak1_check", {"spec": torus.TorusSpec(complex(tau)), "d": d})


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
            for rec in _records(resolve_config(sub, None, {**overrides, "outdir": cfg["outdir"]}))
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
            xs = [rec.quantities[f"distance_k{k}"] for k in ks]
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
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.command} [{rec.input_id}] {rec.primary}={primary_text(rec)}")
    n_fail = sum(1 for r in records if not r.passed)
    tag = " (cached)" if cached_hit else ""
    print(
        f"{len(records) - n_fail}/{len(records)} checks passed{tag}; "
        f"report {json_path}; summary {csv_path}"
    )
    return 0 if n_fail == 0 else 1


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``bergreen`` parser with every command, or with command ``only``
    alone; the usage line names every command either way."""
    parser = argparse.ArgumentParser(
        prog="bergreen",
        description=(
            "Green-function, capacity, weighted-kernel, and sharp-inequality "
            "verification harness.  Each command writes a JSON report and a "
            "CSV summary into the output directory."
        ),
    )
    choices = "{" + ",".join(PARAMS) + "}"
    sub = parser.add_subparsers(dest="command", metavar=None if only is None else choices)
    for command, schema in PARAMS.items():
        if only not in (None, command):
            continue
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # help and an unknown command get every command, with its arguments
    parser = _build_parser(argv[0] if argv and argv[0] in PARAMS else None)
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
