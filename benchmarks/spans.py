"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: each public function of a layer
is replaced, in every ``bergreen`` module namespace that bound it, by a
wrapper that records one span (name, start, end, parent span, ``main``
call id) and, for a few functions, exact work counts derived from the call
arguments and result.  :func:`traced` installs the wrappers and restores
the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self.call = -1

    def wrap(self, name: str, fn, count=None, root: bool = False):
        """``fn`` wrapped to record a span; ``count(recorder, name, args,
        result)`` runs after the span closes, so its cost is not in it."""
        sig = inspect.signature(fn) if count is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root:
                self.call += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, name, bound.arguments, result)
            return result

        return wrapper

    def add(self, name: str, counter: str, value: float) -> None:
        self.counts[name][counter] += value

    def repeat(self, name: str, key) -> None:
        """Count a call whose key was already seen in this run."""
        seen = self._seen[name]
        self.add(name, "repeats", float(key in seen))
        seen.add(key)

    def layer_metrics(self) -> dict[str, float]:
        """``<name>.calls``, ``.s`` (inclusive) and ``.self_s`` (inclusive
        minus direct children) per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float, dict.fromkeys(COUNTED, 0.0))
        for name, *_ in TARGETS:
            for stat in ("calls", "s", "self_s"):
                out[f"{name}.{stat}"] = 0.0
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        for name, counters in self.counts.items():
            for counter, value in counters.items():
                out[f"{name}.{counter}"] += value
        for name in self._seen:
            out[f"{name}.repeat_share"] = out[f"{name}.repeats"] / out[f"{name}.calls"]
        loads = out["reports.cache_load.calls"]
        out["reports.cache_hit_ratio"] = out["reports.cache_load.hits"] / loads if loads else 0.0
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"], "spans": self.spans}, fh)


def _key(value) -> str:
    # a Jordan domain's repr omits its boundary, so key it by its coefficients
    return repr(getattr(value, "coeffs", value))


def _theta_terms(rec, name, args, result):
    points = int(np.size(args["z"]))
    rec.add(name, "points", points)
    rec.add(name, "term_evals", points * int(args["terms"]))


def _gram_entries(rec, name, args, result):
    rec.add(name, "entries", int(result.shape[0]) ** 2)
    rec.repeat(name, tuple(_key(args[k]) for k in ("domain", "weight", "basis", "gram_tol", "quad_start")))


def _nystrom_unknowns(rec, name, args, result):
    matrix = getattr(getattr(result, "_solver", None), "matrix", None)
    rec.add(name, "nystrom_unknowns", 0 if matrix is None else matrix.shape[0])


def _green_key(rec, name, args, result):
    rec.repeat(name, (_key(args["spec"]), args["normalization"]))


def _mass_key(rec, name, args, result):
    rec.repeat(name, (_key(args["green"]), args["t"]))


def _cache_hit(rec, name, args, result):
    rec.add(name, "hits", float(result is not None))


def _bytes_written(rec, name, args, result):
    # CSV summaries and plot data are byte-deterministic; JSON reports and
    # cache entries carry wall times, so their sizes are not exact counts
    rec.add("reports", "bytes_written", os.path.getsize(args["path"]))


# metrics the counters produce; zero where the layer is idle
COUNTED = (
    "torus.theta1.points",
    "torus.theta1.term_evals",
    "torus.arakelov_green.repeat_share",
    "torus.residual_mass.repeat_share",
    "bergman.gram_matrix.entries",
    "bergman.gram_matrix.repeat_share",
    "domains.green_evaluator.nystrom_unknowns",
    "reports.cache_hit_ratio",
    "reports.bytes_written",
)

# (span name, module, attribute, counter); "Class.method" patches the class
TARGETS = (
    ("cli.resolve_config", "bergreen.cli", "resolve_config", None),
    ("cli.run", "bergreen.cli", "run", None),
    ("reports.config_hash", "bergreen.reports", "config_hash", None),
    ("reports.cache_load", "bergreen.reports", "cache_load", _cache_hit),
    ("reports.cache_store", "bergreen.reports", "cache_store", None),
    ("reports.write_json_report", "bergreen.reports", "write_json_report", None),
    ("reports.write_csv_summary", "bergreen.reports", "write_csv_summary", _bytes_written),
    ("reports.write_plot_data", "bergreen.reports", "write_plot_data", _bytes_written),
    ("reports.make_record", "bergreen.reports", "make_record", None),
    ("domains.Jordan", "bergreen.domains", "Jordan.__init__", None),
    ("domains.green_evaluator", "bergreen.domains", "green_evaluator", _nystrom_unknowns),
    ("domains.capacity", "bergreen.domains", "capacity", None),
    ("domains.GreenEvaluator.remainder", "bergreen.domains", "GreenEvaluator.remainder", None),
    ("bergman.gram_matrix", "bergreen.bergman", "gram_matrix", _gram_entries),
    ("bergman.kernel_diag", "bergreen.bergman", "kernel_diag", None),
    ("bergman.suita_ratio", "bergreen.bergman", "suita_ratio", None),
    ("bergman.extended_suita_check", "bergreen.bergman", "extended_suita_check", None),
    ("bergman.least_norm_extension", "bergreen.bergman", "least_norm_extension", None),
    ("extension.residual_measure", "bergreen.extension", "residual_measure", None),
    ("extension.optimal_constant_experiment", "bergreen.extension", "optimal_constant_experiment", None),
    ("extension.ode_residual", "bergreen.extension", "ode_residual", None),
    ("extension.cutoff_limit_check", "bergreen.extension", "cutoff_limit_check", None),
    ("squeezing.sandwich_check", "bergreen.squeezing", "sandwich_check", None),
    ("squeezing.boundary_trend_check", "bergreen.squeezing", "boundary_trend_check", None),
    ("fuchsian.inequality_check", "bergreen.fuchsian", "inequality_check", None),
    ("torus.theta1", "bergreen.torus", "theta1", _theta_terms),
    ("torus.arakelov_green", "bergreen.torus", "arakelov_green", _green_key),
    ("torus.residual_mass", "bergreen.torus", "residual_mass", _mass_key),
    ("torus.torus_gram", "bergreen.torus", "torus_gram", None),
    ("torus.torus_bergman", "bergreen.torus", "torus_bergman", None),
    ("torus.torus_capacity", "bergreen.torus", "torus_capacity", None),
    ("torus.laplacian_deviation", "bergreen.torus", "laplacian_deviation", None),
    ("torus.curvature_coefficients", "bergreen.torus", "curvature_coefficients", None),
    ("torus.arak1_check", "bergreen.torus", "arak1_check", None),
    ("numpy.leggauss", "numpy.polynomial.legendre", "leggauss", None),
    ("numpy.cond", "numpy.linalg", "cond", None),
)


def _owners(home):
    """The module that defines a name and every bergreen module that may
    have bound it by import."""
    yield home
    for modname, module in list(sys.modules.items()):
        if module is not home and (modname == "bergreen" or modname.startswith("bergreen.")):
            yield module


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Install every wrapper; returns (owner, attribute, original) patches."""
    patches = []
    try:
        for name, modname, attr, count in TARGETS:
            home = importlib.import_module(modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, rec.wrap(name, original, count))
                continue
            original = getattr(home, attr)
            wrapper = rec.wrap(name, original, count)
            for owner in _owners(home):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


@contextlib.contextmanager
def traced(rec: Recorder):
    patches = install(rec)
    try:
        yield
    finally:
        uninstall(patches)
