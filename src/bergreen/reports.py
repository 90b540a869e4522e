"""Report records, deterministic summaries, and the content-addressed cache.

Every check in the toolkit produces a :class:`ReportRecord`: inputs echoed,
named computed quantities, inequality margins with their tolerances, and a
pass flag that is recomputable from the record (``passed`` if and only if
every margin is at least ``-tolerance``).

Margin conventions used throughout the package:
  - one-sided inequality ``value >= bound``: margin = value - bound;
  - equality check ``value == target`` at tolerance ``tol``:
    margin = -(|value - target|), tolerance = tol.

CSV summaries are byte-deterministic for a fixed configuration: fixed column
order, ``repr`` floats, no timestamps.  JSON reports carry the full records
(including wall times and provenance: which operation produced each
quantity).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace

from . import __version__
from .errors import ConfigError

__all__ = [
    "ReportRecord",
    "make_record",
    "finite_margin",
    "record_to_dict",
    "record_from_dict",
    "config_hash",
    "write_json_report",
    "write_csv_summary",
    "write_plot_data",
    "cache_store",
    "cache_load",
]

CSV_COLUMNS = ["command", "input-id", "quantity", "value", "margin", "tol", "pass"]


@dataclass(frozen=True)
class ReportRecord:
    """One verification result.

    ``quantities`` holds named reals (complex values are stored as
    ``[re, im]`` pairs); ``margins`` and ``tolerances`` share keys, and
    ``passed`` is exactly ``all(margins[k] >= -tolerances[k])``.  ``primary``
    names the quantity echoed in the CSV summary row; ``provenance`` maps
    each quantity name to the operation that produced it.
    """

    command: str
    input_id: str
    inputs: dict
    quantities: dict
    margins: dict
    tolerances: dict
    passed: bool
    primary: str
    provenance: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    library_version: str = __version__
    config_hash: str = ""
    cached: bool = False


def make_record(
    command: str,
    input_id: str,
    inputs: dict,
    quantities: dict,
    margins: dict,
    tolerances: dict,
    primary: str,
    provenance: dict | None = None,
    wall_time_s: float = 0.0,
    config_hash_value: str = "",
) -> ReportRecord:
    """Build a record; the pass flag is derived from margins and tolerances."""
    if set(margins) != set(tolerances):
        raise ConfigError("margins and tolerances must have identical keys")
    if primary not in quantities:
        raise ConfigError(f"primary quantity {primary!r} missing from quantities")
    quantities = {k: _jsonable_number(v) for k, v in quantities.items()}
    passed = all(margins[k] >= -tolerances[k] for k in margins)
    return ReportRecord(
        command=command,
        input_id=input_id,
        inputs=_jsonable_value(dict(inputs)),
        quantities=quantities,
        margins=dict(margins),
        tolerances=dict(tolerances),
        passed=passed,
        primary=primary,
        provenance=dict(provenance or {}),
        wall_time_s=wall_time_s,
        config_hash=config_hash_value,
    )


def finite_margin(*values) -> float:
    """Margin of a record with no inequality to gate, at tolerance 0.0:
    0.0 if every headline value is finite and -1.0 if not, so a NaN or inf
    never passes (shaped like the error record's ``module_error``)."""
    return 0.0 if all(math.isfinite(v) for v in values) else -1.0


def _jsonable_number(v):
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, bool) or isinstance(v, int):
        return v
    return float(v)


def _jsonable_value(v):
    """Echoed inputs must serialize: complex values become their ``str``,
    numpy containers their lists, and anything else falls back to ``str``."""
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, float):
        return float(v)
    if isinstance(v, complex):
        return str(v)
    if hasattr(v, "tolist"):
        return _jsonable_value(v.tolist())
    if isinstance(v, (list, tuple)):
        return [_jsonable_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable_value(x) for k, x in v.items()}
    return str(v)


def record_to_dict(rec: ReportRecord) -> dict:
    return {
        "command": rec.command,
        "input_id": rec.input_id,
        "inputs": rec.inputs,
        "quantities": rec.quantities,
        "margins": rec.margins,
        "tolerances": rec.tolerances,
        "passed": rec.passed,
        "primary": rec.primary,
        "provenance": rec.provenance,
        "wall_time_s": rec.wall_time_s,
        "library_version": rec.library_version,
        "config_hash": rec.config_hash,
        "cached": rec.cached,
    }


def record_from_dict(d: dict) -> ReportRecord:
    return ReportRecord(**d)


# ---------------------------------------------------------------------------
# Config hashing
# ---------------------------------------------------------------------------

_HASH_EXCLUDED = {"outdir", "cache"}


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON of the config.

    The output directory and the cache toggle never change results, so they
    are excluded: the hash identifies the computation, not its destination.
    """
    core = {k: v for k, v in config.items() if k not in _HASH_EXCLUDED}
    canon = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_json_report(path: str, config: dict, records: list[ReportRecord]) -> None:
    payload = {
        "config": config,
        "library_version": __version__,
        "records": [record_to_dict(r) for r in records],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _binding_margin(rec: ReportRecord) -> tuple[str, str]:
    """(margin, tol) strings for the CSV row: the binding (smallest) margin."""
    if not rec.margins:
        return "", ""
    key = min(rec.margins, key=lambda k: rec.margins[k] + rec.tolerances[k])
    return repr(float(rec.margins[key])), repr(float(rec.tolerances[key]))


def csv_summary_text(records: list[ReportRecord]) -> str:
    """Deterministic CSV text: fixed columns, repr floats, no timestamps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        value = rec.quantities[rec.primary]
        if isinstance(value, list):  # complex stored as [re, im]
            value_str = f"{value[0]!r}+{value[1]!r}j"
        else:
            value_str = repr(float(value))
        margin, tol = _binding_margin(rec)
        writer.writerow(
            [
                rec.command,
                rec.input_id,
                rec.primary,
                value_str,
                margin,
                tol,
                str(rec.passed),
            ]
        )
    return buf.getvalue()


def write_csv_summary(path: str, records: list[ReportRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_summary_text(records))


def write_plot_data(path: str, xs, ys, header: str = "") -> None:
    """Two-column numeric text (x y per line), optional # header."""
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r} {float(y)!r}\n")


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def _cache_path(outdir: str, key: str) -> str:
    return os.path.join(outdir, "cache", f"{key}.json")


def cache_store(outdir: str, key: str, records: list[ReportRecord]) -> None:
    path = _cache_path(outdir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump([record_to_dict(r) for r in records], fh)


def cache_load(outdir: str, key: str) -> list[ReportRecord] | None:
    """Return cached records flagged ``cached=True``, or None on miss.

    Corrupt entries are ignored with a warning (the caller recomputes);
    the cache never affects pass/fail logic.
    """
    path = _cache_path(outdir, key)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        records = [record_from_dict(d) for d in data]
    except Exception as exc:  # corrupt cache: recompute
        warnings.warn(f"ignoring corrupt cache entry {path}: {exc}", RuntimeWarning)
        return None
    return [replace(r, cached=True) for r in records]
