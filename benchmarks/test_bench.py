"""Tests of the benchmark itself: ``python -m pytest benchmarks``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bergreen.cli as cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seeded(name):
    gen = workloads.WORKLOADS[name]
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)
    assert gen(3) and all(call.records >= 1 for call in gen(3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_argv_resolves(name, seed, tmp_path, monkeypatch):
    resolved = []
    monkeypatch.setattr(cli, "run", lambda config: resolved.append(config) or 0)
    calls = workloads.WORKLOADS[name](seed)
    for call in calls:
        assert cli.main([*call.argv, f"--outdir={tmp_path}"]) == 0, call.argv
    assert [c["command"] for c in resolved] == [call.argv[0] for call in calls]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90)
    assert sum(1 for i in range(100) if i > value) == 10


def _bindings():
    """Every attribute of the bergreen modules, the patched classes and the
    patched numpy modules, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "bergreen" or n.startswith("bergreen.")]
    owners += [np.polynomial.legendre, np.linalg]
    snapshot = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    for _, modname, attr, _ in spans.TARGETS:
        if "." in attr:
            cls = getattr(sys.modules[modname], attr.split(".")[0])
            snapshot.update({(id(cls), k): v for k, v in vars(cls).items()})
    return snapshot


def test_traced_run_restores_originals_and_repeats_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    calls = [
        Call(("capacity", "--domain=ellipse:1.2:0.7", "--z=(0.1+0.2j)"), 1),
        Call(("suita-check", "--domain=disc", "--zs=0.1,0.3j"), 2),
        Call(("green", "--domain=annulus:0.2", "--method=nystrom", "--xi=0.5", "--z=-0.4j"), 1),
    ]
    before = _bindings()
    runner = run.Runner(cli.main, calls, "test")
    try:
        values, _ = run.per_layer(runner, "test", 0)
    finally:
        runner.close()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert runner.errors == [] and runner.failed == 0 and len(runner.digests) == 1
    assert values["domains.Jordan.calls"] == 3  # two parses cold, one warm
    assert values["domains.green_evaluator.nystrom_unknowns"] == 256 + 2 * 256 + 1
    assert values["numpy.cond.calls"] == 2
    assert values["reports.cache_hit_ratio"] == 0.5
    assert values["bergman.kernel_diag.calls"] == 2
    assert values["domains.capacity.self_s"] > 0.0
    trace = json.loads((tmp_path / "trace-test-seed0.json").read_text())
    roots = [s for s in trace["spans"] if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * 6 and [s[4] for s in roots] == list(range(6))


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    rec = spans.Recorder()
    known = set(rec.layer_metrics()) | {"tracing_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= known
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units.items() <= run.E2E_UNITS.items() and "setup_s" in units


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "torus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
