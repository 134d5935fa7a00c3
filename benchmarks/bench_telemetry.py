"""Telemetry overhead — what does the flight recorder cost the hot loop?

The recorder (docs/observability.md) is wired into the incremental
annealer's step loop behind a hoisted ``recorder.enabled`` guard, so a
run that never asks for a trace should pay nothing measurable, and a
sampled trace (one ``anneal.sample`` event every 256 steps plus a
per-chunk summary) should stay within a few percent.  Two timings on
the same random-net problem as ``bench_perf_kernel.py``:

* **off** — :class:`IncrementalAnnealer` with the default null
  recorder; the budget is <=1% against the most recent perf-kernel
  trajectory entry of the same mode (``overhead_disabled_pct``).
* **sampled** — the same walk with a :class:`TraceRecorder` attached
  at the default sample interval, writing JSONL into a scratch
  directory; the within-run budget is <=3%
  (``overhead_sampled_pct``).

Both walks must land the exact same best cost: telemetry is pure
observation, it draws nothing from the rng.

Results are **appended** to ``BENCH_perf_kernel.json`` as
``mode: "telemetry"`` entries; ``incremental_steps_per_sec`` per row
lets ``check_regression`` gate telemetry entries against each other.

Run standalone:   python benchmarks/bench_telemetry.py [--quick] [--no-write]
Run under pytest: pytest benchmarks/bench_telemetry.py -q
"""

from __future__ import annotations

import argparse
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from bench_perf_kernel import (
    JSON_PATH,
    load_trajectory,
    problem,
    record_trajectory_entry,
)

from repro.anneal import IncrementalAnnealer
from repro.bstar import BStarPlacerConfig
from repro.perf import IncrementalBStarEngine
from repro.telemetry import DEFAULT_SAMPLE_INTERVAL, TraceRecorder

#: disabled telemetry vs the perf-kernel trajectory baseline
DISABLED_BUDGET_PCT = 1.0
#: sampled telemetry vs the disabled walk, measured within one run
SAMPLED_BUDGET_PCT = 3.0


def measure(
    n: int, config: BStarPlacerConfig, repeats: int, trace_dir: Path
) -> dict:
    """Steps/sec with telemetry off and sampled on.

    Rounds interleave the two walks and the sampled overhead is the
    *median of the per-round off/traced ratios*, so slow machine drift
    hits both sides of each ratio equally instead of whichever walk
    happened to run during the quiet moment.  The absolute steps/s
    columns stay best-of-``repeats`` (the usual noise-floor estimator).
    """
    modules, nets = problem(n)
    schedule = config.schedule()

    def run_once(recorder) -> tuple[float, float]:
        rng = random.Random(config.seed)
        engine = IncrementalBStarEngine(modules, nets, (), config)
        engine.reset(engine.initial_state(rng))
        annealer = IncrementalAnnealer(engine, schedule, rng)
        annealer.set_recorder(recorder)
        t0 = time.perf_counter()
        outcome = annealer.run()
        elapsed = time.perf_counter() - t0
        return outcome.stats.steps / elapsed, outcome.best_cost

    recorder = TraceRecorder(
        str(trace_dir / f"n{n}"), sample_interval=DEFAULT_SAMPLE_INTERVAL
    )
    off_sps = traced_sps = 0.0
    off_best = traced_best = None
    ratios = []
    for _ in range(repeats):
        off_round, off_best = run_once(None)
        off_sps = max(off_sps, off_round)
        traced_round, traced_best = run_once(
            recorder.bind(walk=0, engine="bstar", chunk_start=0)
        )
        traced_sps = max(traced_sps, traced_round)
        ratios.append(off_round / traced_round)
    recorder.close()

    assert off_best == traced_best, (
        f"telemetry perturbed the walk: {off_best} vs {traced_best}"
    )
    return {
        "modules": n,
        "nets": len(nets),
        "incremental_steps_per_sec": round(off_sps, 1),
        "traced_steps_per_sec": round(traced_sps, 1),
        "overhead_sampled_pct": round(100.0 * (statistics.median(ratios) - 1.0), 2),
        "best_cost_identical": True,
    }


def disabled_overhead(runs: list[dict], mode: str, trajectory: list[dict]) -> None:
    """Fill ``overhead_disabled_pct`` per row against the most recent
    perf-kernel entry of the same schedule ``mode`` and module count.

    Cross-entry wall-clock only means something on the tracked machine,
    so rows without a comparable baseline keep ``None``.
    """
    for row in runs:
        baseline = None
        for old in reversed(trajectory):
            if old.get("mode") != mode:
                continue
            for old_run in old.get("runs", []):
                if old_run.get("modules") == row["modules"]:
                    baseline = old_run.get("incremental_steps_per_sec")
                    break
            if baseline:
                break
        row["overhead_disabled_pct"] = (
            round(100.0 * (baseline / row["incremental_steps_per_sec"] - 1.0), 2)
            if baseline
            else None
        )


def run(fast: bool = False, write: bool = False) -> dict:
    """Measure both sizes; optionally append a ``mode: telemetry`` entry."""
    if fast:
        # same schedule as bench_perf_kernel's fast tier so the
        # disabled-overhead diff compares like against like
        config = BStarPlacerConfig(seed=0, alpha=0.85, t_final=1e-3)
        sizes, repeats = (30, 100), 5
    else:
        config = BStarPlacerConfig(seed=0)
        sizes, repeats = (50, 100), 5

    trace_dir = Path(tempfile.mkdtemp(prefix="bench-telemetry-"))
    try:
        runs = [measure(n, config, repeats, trace_dir) for n in sizes]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    disabled_overhead(
        runs, "fast" if fast else "full", load_trajectory()["trajectory"]
    )

    recorded = record_trajectory_entry(
        "telemetry",
        {
            "sample_interval": DEFAULT_SAMPLE_INTERVAL,
            "runs": runs,
        },
        write=write,
        gate=True,
    )
    entry = recorded["entry"]

    lines = [
        f"{'modules':>8} {'off/s':>10} {'sampled/s':>10} "
        f"{'sampled oh':>11} {'disabled oh':>12}"
    ]
    for row in entry["runs"]:
        disabled = (
            f"{row['overhead_disabled_pct']:>+11.2f}%"
            if row["overhead_disabled_pct"] is not None
            else f"{'—':>12}"
        )
        lines.append(
            f"{row['modules']:>8} {row['incremental_steps_per_sec']:>10,.0f} "
            f"{row['traced_steps_per_sec']:>10,.0f} "
            f"{row['overhead_sampled_pct']:>+10.2f}% {disabled}"
        )

    return {
        "benchmark": "telemetry_overhead",
        "mode": entry["mode"],
        "runs": entry["runs"],
        "entry": entry,
        "appended": recorded["appended"],
        "regressions": recorded["regressions"],
        "table": "\n".join(lines),
    }


def test_telemetry_overhead(emit, benchmark):
    """Smoke tier: sampled telemetry must stay cheap and change nothing.
    The within-run bound is doubled under pytest — CI boxes jitter —
    while the recorded trajectory entry carries the honest number."""
    results = benchmark.pedantic(lambda: run(fast=True), rounds=1, iterations=1)
    emit("telemetry_overhead", results["table"])
    for row in results["runs"]:
        assert row["best_cost_identical"]
        assert row["overhead_sampled_pct"] < 2 * SAMPLED_BUDGET_PCT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="perf-kernel fast schedule (for CI)"
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and report only; do not append to BENCH_perf_kernel.json",
    )
    args = parser.parse_args(argv)
    outcome = run(fast=args.quick, write=not args.no_write)
    print(outcome["table"])
    if outcome["appended"]:
        print(f"\nappended trajectory entry: {JSON_PATH}")
    for problem_msg in outcome["regressions"]:
        print(f"REGRESSION (entry not appended): {problem_msg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
