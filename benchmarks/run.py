#!/usr/bin/env python3
"""Seeded benchmark of the bergreen CLI, end to end and per layer.

    python3 benchmarks/run.py --workload torus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The seed generates the workload's ``bergreen`` argv lists
(``benchmarks/workloads.py``), which are driven through
``bergreen.cli.main(argv)`` in this process as a closed loop with one
client, one call at a time, with BLAS threads capped at the core count.

``--trace 0`` measures with tracing off, in cold passes that repeat for
about ``--seconds`` (at least two).  A cold pass runs every call against an
empty cache directory; after each call come warm replays of it against the
cache it filled and, every tenth of ``--seconds``, one fresh interpreter
importing ``bergreen.cli``, so that each metric samples the whole run:

* ``wall_s``: median cold pass (sum of its call latencies);
* ``call_p50_s`` and ``call_tail_s``: per-call latency pooled over the cold
  passes; the tail is the highest percentile with at least ten samples
  beyond it (the maximum when there are fewer);
* ``warm_s``: sum over calls of the median warm replay;
* ``peak_rss_mb``: peak RSS of this process;
* ``setup_s``: median import time.

``--trace 1`` runs a traced round (cold pass and one warm replay), an
untraced cold pass and a second traced round, and reports the second
round's per-layer metrics named in ``BENCHMARK.json`` (module ``spans``);
the exact work counts must repeat across the two rounds.  Spans are
written to ``.bench_work/``.

Every record must pass, and every pass of a run must give the same sha256
of the concatenated CSV summaries.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only if the run is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# A shared host's speed drifts by tens of percent over windows of seconds,
# so every metric is sampled throughout the run rather than in one burst.
MIN_PASSES = 2
SETUP_SAMPLES = 10  # fresh imports per --seconds
WARM_SHARE = 0.1  # of each cold call's time, spent replaying it warm
TAIL_BEYOND = 10
# every end-to-end metric is printed; BENCHMARK.json gates those that are
# steady on a shared host
E2E_UNITS = {
    "wall_s": "s", "call_p50_s": "s", "call_tail_s": "s",
    "warm_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def time_import() -> float:
    """Wall time of a fresh interpreter importing ``bergreen.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import bergreen.cli"],
        env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile that has at least
    ``TAIL_BEYOND`` samples above it; the maximum if there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    k = n - TAIL_BEYOND - 1
    return xs[k], math.floor(100 * (k + 1) / n)


@dataclass
class Outcome:
    """One checked ``main`` call."""

    seconds: float
    csv: bytes
    records: int
    failed: int
    cached: int


def invoke(main, argv: list[str]):
    """Exit code of ``main(argv)``, or the name of the exception that
    escaped it; the CLI's own printout is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except (Exception, SystemExit) as exc:
        return type(exc).__name__


def run_context(workload: str, seed: int, calls) -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    # a checkout that is not itself a repository reports no sha
    inside = git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = git("rev-parse", "HEAD") if inside else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "calls": len(calls),
        "records": sum(c.records for c in calls),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


class Runner:
    """Runs and checks one workload's calls in this process, each call with
    its own output directory under ``WORK``."""

    def __init__(self, main, calls, tag: str):
        self.main, self.calls = main, calls
        self.base = WORK / f"{tag}-{os.getpid()}"
        self.count = 0
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()

    def call(self, i: int, outdir: Path, main=None) -> Outcome:
        """Run call ``i`` once and check what it wrote."""
        call = self.calls[i]
        for path in [*outdir.glob("*_report.json"), *outdir.glob("*_summary.csv")]:
            path.unlink()  # a stale report must not stand in for a missing one
        start = time.perf_counter()
        code = invoke(main or self.main, [*call.argv, f"--outdir={outdir}"])
        seconds = time.perf_counter() - start
        reports = sorted(outdir.glob("*_report.json"))
        summaries = sorted(outdir.glob("*_summary.csv"))
        if code not in (0, 1) or len(reports) != 1 or len(summaries) != 1:
            outcome = Outcome(seconds, b"", call.records, call.records, 0)
            self.errors.append(f"{' '.join(call.argv)}: {code}")
        else:
            records = json.loads(reports[0].read_text())["records"]
            passed = sum(1 for r in records if r["passed"])
            attempted = max(call.records, len(records))
            cached = sum(1 for r in records if r["cached"])
            outcome = Outcome(seconds, summaries[0].read_bytes(), attempted, attempted - passed, cached)
            if passed < call.records:
                self.errors.append(f"{' '.join(call.argv)}: {passed}/{call.records} records passed")
        self.attempted += outcome.records
        self.failed += outcome.failed
        return outcome

    def run_pass(self, dirs=None, main=None, after=None) -> tuple[list[Path], list[Outcome]]:
        """Every call once, in order: cold into fresh directories, or warm
        replayed into ``dirs``; ``after(i, outdir, outcome)`` runs between
        calls, untimed."""
        if dirs is None:
            self.count += 1
            dirs = [self.base / f"pass{self.count}" / f"{i:03d}" for i in range(len(self.calls))]
        outcomes = []
        for i, outdir in enumerate(dirs):
            outcomes.append(self.call(i, outdir, main))
            if after is not None:
                after(i, outdir, outcomes[-1])
        self.digests.add(hashlib.sha256(b"".join(o.csv for o in outcomes)).hexdigest())
        return dirs, outcomes

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[str]]:
    time_import()  # untimed: writes the bytecode cache
    setup: list[float] = []
    warm: dict[int, list[float]] = {i: [] for i in range(len(runner.calls))}
    walls, latencies, passes = [], [], []
    last_import = -math.inf
    served = replayed = 0

    def after(i, outdir, cold):
        nonlocal last_import, served, replayed
        deadline = time.perf_counter() + WARM_SHARE * cold.seconds
        while True:
            again = runner.call(i, outdir)
            warm[i].append(again.seconds)
            served, replayed = served + again.cached, replayed + again.records
            if again.csv != cold.csv:
                runner.errors.append(f"{' '.join(runner.calls[i].argv)}: warm CSV differs from cold")
            if time.perf_counter() >= deadline:
                break
        if time.perf_counter() - last_import >= seconds / SETUP_SAMPLES:
            setup.append(time_import())
            last_import = time.perf_counter()

    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(passes) <= seconds
    ):
        begin = time.perf_counter()
        dirs, outcomes = runner.run_pass(after=after)
        shutil.rmtree(dirs[0].parent)
        walls.append(sum(o.seconds for o in outcomes))
        latencies += [o.seconds for o in outcomes]
        passes.append(time.perf_counter() - begin)
    tail_value, tail_pct = tail(latencies)
    values = {
        "wall_s": statistics.median(walls),
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail_value,
        "warm_s": sum(statistics.median(w) for w in warm.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"wall_s: median of {len(walls)} cold passes",
        f"call_p50_s, call_tail_s: p50 and p{tail_pct} of {len(latencies)} calls",
        f"warm_s: sum over calls of the median of {min(map(len, warm.values()))} or more replays; "
        f"{served} of {replayed} records from cache",
        f"setup_s: median of {len(setup)} fresh imports",
    ]
    return values, notes


def per_layer(runner: Runner, workload: str, seed: int) -> tuple[dict, list[str]]:
    import spans

    def traced_round():
        rec = spans.Recorder()
        with spans.traced(rec):
            main = rec.wrap("cli.main", runner.main, root=True)
            dirs, cold = runner.run_pass(main=main)
            runner.run_pass(dirs, main=main)
        return rec, sum(o.seconds for o in cold)

    # the first round also absorbs lazy imports; the second is reported
    first, _ = traced_round()
    _, untraced = runner.run_pass()
    rec, traced_wall = traced_round()
    again, values = first.layer_metrics(), rec.layer_metrics()
    values["tracing_overhead_s"] = traced_wall - sum(o.seconds for o in untraced)
    # the per-layer counts are exact: they must repeat across the rounds
    timed = ("_s", ".s")
    moved = sorted(
        k for k in again if not k.endswith(timed) and values[k] != again[k]
    )
    if moved:
        runner.errors.append(f"work counts differ between two traced rounds: {', '.join(moved)}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.json"
    rec.dump(path)
    return values, [f"tracing_overhead_s: traced minus untraced cold pass; spans in {path}"]


def metric_spec(trace_on: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace_on else "end_to_end"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads(nproc())
    if not (SRC / "bergreen").is_dir():
        print(f"no bergreen sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from bergreen.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r} (use {' | '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = metric_spec(bool(args.trace))
    calls = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(cli_main, calls, f"{args.workload}-seed{args.seed}")
    try:
        if args.trace:
            values, notes = per_layer(runner, args.workload, args.seed)
        else:
            values, notes = end_to_end(runner, args.seconds)
    finally:
        runner.close()

    correct = runner.failed == 0 and not runner.errors and len(runner.digests) == 1
    print("context: " + json.dumps(run_context(args.workload, args.seed, calls), sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec} if args.trace else E2E_UNITS
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(note)
    share = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"failed_share = {share:.6g} ({runner.failed} of {runner.attempted} records)")
    print(f"csv_sha256 = {' '.join(sorted(runner.digests))}")
    for error in runner.errors:
        print(f"error: {error}")
    if len(runner.digests) > 1:
        print("error: passes with one seed gave different CSV digests")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
