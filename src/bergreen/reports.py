"""Report records, deterministic summaries, and the content-addressed cache.

Every check in the toolkit returns a :class:`ReportRecord` built by
:func:`make_record` from named computed quantities and gates, with a pass
flag that is recomputable from the record (``passed`` if and only if every
margin is at least ``-tolerance``).  The check does not name its record:
the command, the input id, the echoed inputs and the wall time are stamped
on it by the one caller that runs checks, ``cli._unit``.

A gate is one ``(margin, tolerance)`` pair, in one of two shapes:
  - a deviation held below its gate, ``dev <= gate`` (an equality
    ``value == target`` has ``dev = |value - target|``): ``(-dev, gate)``.
    The gate is the tolerance, never written inside the margin as
    ``(gate - dev, 0.0)``;
  - a one-sided inequality ``value >= bound``: ``(value - bound, slack)``,
    at the slack it may be overshot by; 0.0 for a sign such as positivity.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import ConfigError

__all__ = [
    "ReportRecord",
    "make_record",
    "finite_margin",
    "min_margin",
    "primary_text",
    "record_to_dict",
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
    each quantity name to the operation that produced it.  ``command``,
    ``input_id`` and ``inputs`` (the echoed inputs) name the case that the
    record answers.
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


def make_record(quantities: dict, gates: dict, primary: str, provenance: dict) -> ReportRecord:
    """Build a record from ``gates = {name: (margin, tolerance)}``, in the
    module's two gate shapes (a deviation is ``(-dev, gate)``); the pairs
    are split into the record's ``margins`` and ``tolerances``, and the
    pass flag is derived from them.

    Every container is copied, quantities become Python numbers (complex
    values ``[re, im]`` pairs), and margins and tolerances Python floats, so
    the record serializes as it stands.  The command, input id and echoed
    inputs are left empty, and the wall time 0: ``cli._unit`` stamps them.
    """
    if primary not in quantities:
        raise ConfigError(f"primary quantity {primary!r} missing from quantities")
    quantities = {k: _jsonable_number(v) for k, v in quantities.items()}
    margins = {k: float(m) for k, (m, _) in gates.items()}
    tolerances = {k: float(tol) for k, (_, tol) in gates.items()}
    passed = all(margins[k] >= -tolerances[k] for k in margins)
    return ReportRecord(
        command="",
        input_id="",
        inputs={},
        quantities=quantities,
        margins=margins,
        tolerances=tolerances,
        passed=passed,
        primary=primary,
        provenance=dict(provenance),
    )


def finite_margin(*values) -> float:
    """Margin of a record with no inequality to gate, at tolerance 0.0:
    0.0 if every headline value is finite and -1.0 if not, so a NaN or inf
    never passes (shaped like the error record's ``module_error``)."""
    return 0.0 if all(math.isfinite(v) for v in values) else -1.0


def min_margin(values) -> float:
    """The smallest of ``values`` as a margin: NaN if any value is NaN
    (Python's ``min`` skips a NaN unless it comes first), 0.0 when there
    are no values."""
    return float(np.min(values)) if len(values) else 0.0


def primary_text(rec: ReportRecord) -> str:
    """The record's primary value as text: ``repr`` of the float, or
    ``re+imj`` for a complex value stored as ``[re, im]``."""
    value = rec.quantities[rec.primary]
    if isinstance(value, list):
        return f"{value[0]!r}+{value[1]!r}j"
    return repr(float(value))


def _jsonable_number(v):
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, bool) or isinstance(v, int):
        return v
    return float(v)


_FIELDS = tuple(f.name for f in fields(ReportRecord))


def record_to_dict(rec: ReportRecord) -> dict:
    """The record's fields as a shallow dict, in field order, for
    serializing only: its containers are the record's own (copied and
    normalized by :func:`make_record`), so the result must not be mutated."""
    return {name: getattr(rec, name) for name in _FIELDS}


# ---------------------------------------------------------------------------
# Config hashing
# ---------------------------------------------------------------------------

_HASH_EXCLUDED = {"outdir", "cache"}


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON of the config, the package source with
    the numpy and BLAS it runs on, and the content of every
    ``jordan:<path>`` file the config references.

    The output directory and the cache toggle never change results, so they
    are excluded: the hash identifies the computation, not its destination.
    A code change, a numpy or BLAS upgrade or an edited coefficient file
    gives a new key, so the cache never serves a record the current inputs
    would not produce.
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
    """sha256 over the package's ``.py`` files and the name and version of
    numpy and of its BLAS, which may move results by rounding, computed
    once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 names no BLAS here
        blas = {}
    stack = f"numpy {np.__version__}\0{blas.get('name')} {blas.get('version')}\0"
    h = hashlib.sha256(stack.encode())
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
    """Full records as one line of strict JSON: non-finite floats are
    written as the strings ``"nan"``, ``"inf"`` and ``"-inf"``.  The text is
    serialized whole before the file is opened, so a value JSON cannot
    encode leaves no partial report.

    Without ``indent`` json uses its C encoder; the payload is walked by
    :func:`_strict_json` only when that encoder meets a non-finite float."""
    payload = {
        "config": config,
        "library_version": __version__,
        "records": [record_to_dict(r) for r in records],
    }
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_strict_json(payload), sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _binding_margin(rec: ReportRecord) -> tuple[str, str]:
    """(margin, tol) strings for the CSV row: the binding (smallest) margin,
    or the first NaN margin if there is one."""
    if not rec.margins:
        return "", ""

    def slack(k):
        s = rec.margins[k] + rec.tolerances[k]
        return -math.inf if math.isnan(s) else s

    key = min(rec.margins, key=slack)
    return repr(float(rec.margins[key])), repr(float(rec.tolerances[key]))


def csv_summary_text(records: list[ReportRecord]) -> str:
    """Deterministic CSV text: fixed columns, repr floats, no timestamps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        margin, tol = _binding_margin(rec)
        writer.writerow(
            [rec.command, rec.input_id, rec.primary, primary_text(rec), margin, tol, str(rec.passed)]
        )
    return buf.getvalue()


def write_csv_summary(path: str, records: list[ReportRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_summary_text(records))


def write_plot_data(path: str, xs, ys, header: str) -> None:
    """Two-column numeric text (x y per line) under a # header line."""
    rows = "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in zip(xs, ys))
    with open(path, "w") as fh:
        fh.write(f"# {header}\n" + rows)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def _cache_path(outdir: str, key: str) -> str:
    return os.path.join(outdir, "cache", f"{key}.json")


def cache_store(outdir: str, key: str, records: list[ReportRecord]) -> None:
    """Serialize the entry, write it to a temporary file, then rename it
    into place, so a reader never sees a partly written entry."""
    text = json.dumps([record_to_dict(r) for r in records])
    path = _cache_path(outdir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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
        records = [ReportRecord(**d) for d in data]
    except Exception as exc:  # corrupt cache: recompute
        warnings.warn(f"ignoring corrupt cache entry {path}: {exc}", RuntimeWarning)
        return None
    return [replace(r, cached=True) for r in records]
