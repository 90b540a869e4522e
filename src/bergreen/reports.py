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
import functools
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, replace

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
    return asdict(rec)


def record_from_dict(d: dict) -> ReportRecord:
    return ReportRecord(**d)


# ---------------------------------------------------------------------------
# Config hashing
# ---------------------------------------------------------------------------

_HASH_EXCLUDED = {"outdir", "cache"}


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON of the config, the package source and
    the content of every ``jordan:<path>`` file the config references.

    The output directory and the cache toggle never change results, so they
    are excluded: the hash identifies the computation, not its destination.
    A code change or an edited coefficient file gives a new key, so the
    cache never serves a record the current inputs would not produce.
    """
    core = {k: v for k, v in config.items() if k not in _HASH_EXCLUDED}
    canon = json.dumps(
        {"config": core, "source": _source_digest(), "files": _file_digests(core)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's ``.py`` files, computed once per process."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _file_digests(config: dict) -> dict:
    """Content digest of each file named by a ``jordan:<path>`` value."""
    digests = {}
    for value in config.values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, str) and item.startswith("jordan:"):
                path = item[len("jordan:"):]
                try:
                    with open(path, "rb") as fh:
                        digests[path] = hashlib.sha256(fh.read()).hexdigest()
                except OSError:
                    digests[path] = "unreadable"
    return digests


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def _strict_json(v):
    """``v`` with each non-finite float replaced by its ``repr`` string
    (``"nan"``, ``"inf"``, ``"-inf"``), which strict JSON can carry."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict_json(x) for x in v]
    return v


def write_json_report(path: str, config: dict, records: list[ReportRecord]) -> None:
    """Full records as strict JSON: non-finite floats are written as the
    strings ``"nan"``, ``"inf"`` and ``"-inf"``."""
    payload = {
        "config": config,
        "library_version": __version__,
        "records": [record_to_dict(r) for r in records],
    }
    with open(path, "w") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
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
    """Write the entry to a temporary file, then rename it into place, so a
    reader never sees a partly written entry."""
    path = _cache_path(outdir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump([record_to_dict(r) for r in records], fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
