"""Fault-tolerance overhead — what does supervision cost when nothing fails?

The fault machinery (chunk supervisor, retry accounting, fault-plan
arming, failure bookkeeping — see docs/parallel.md#fault-tolerance)
sits on the hot path of *every* portfolio run, so its fault-free cost
must be measured.  Three timings on ``miller_opamp``, serial, warm
caches, best of ``ROUNDS``:

* **raw** — the minimal chunk loop: the same specs and chunk sizes the
  runner would use, driven straight through ``_execute`` with no
  supervisor, no retry bookkeeping, no leaderboard.  The floor.
* **supervised** — ``PortfolioRunner.run()``, fault-free.  The delta
  against *raw* is the supervision overhead (acceptance: < 2%).
* **persisted** — the same run with a ``run_dir``: adds one atomic
  checkpoint write (pickle + fsync + rename) per chunk, reported
  separately because durability is opt-in.

A recovery check then injects a deterministic chunk failure and
asserts the run degrades to the survivors' exact fault-free rows.

Results are **appended** to ``BENCH_perf_kernel.json`` as
``mode: "faults"`` entries (the regression guard in ``run_all.py``
only compares entries of equal mode).

Run standalone:   python benchmarks/bench_faults.py [--quick] [--no-write]
Run under pytest: pytest benchmarks/bench_faults.py -q
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import tempfile
import time
from math import ceil

from bench_perf_kernel import JSON_PATH, record_trajectory_entry

from repro.cost import reference_model
from repro.parallel import (
    Fault,
    FaultPlan,
    PortfolioRunner,
    WalkSpec,
    build_placer_by_name,
    walk_total_steps,
)
from repro.parallel.jobs import ChunkTask
from repro.parallel.runner import _DEFAULT_ROUNDS, _execute
from repro.workloads import resolve_workload

CIRCUIT = "miller_opamp"
ENGINES = ("bstar", "hbtree")
STARTS = 4
OVERRIDES = (("alpha", 0.8), ("t_final", 1e-2))
ROUNDS = 12


def _specs() -> list[WalkSpec]:
    return [
        WalkSpec(i, CIRCUIT, ENGINES[i % len(ENGINES)], i, OVERRIDES)
        for i in range(STARTS)
    ]


def _raw_run() -> int:
    """The un-supervised floor: every walk's chunks straight through
    ``_execute``, plus the per-walk finalize + reference scoring the
    runner has always done — identical work, none of the fault
    machinery (no supervisor, no retry accounting, no failure
    bookkeeping)."""
    ref = reference_model(resolve_workload(CIRCUIT))
    steps = 0
    board = []
    for spec in _specs():
        total = walk_total_steps(spec)
        chunk = max(1, ceil(total / _DEFAULT_ROUNDS))
        checkpoint = None
        while checkpoint is None or not checkpoint.finished:
            result = _execute(ChunkTask(spec=spec, checkpoint=checkpoint, max_steps=chunk))
            checkpoint = result.checkpoint
        placement = build_placer_by_name(spec).finalize(checkpoint.best_state)
        board.append((ref.evaluate_placement(placement), spec.walk_id))
        steps += checkpoint.step
    board.sort()
    return steps


def _supervised_run(run_dir: str | None = None) -> int:
    result = PortfolioRunner(
        CIRCUIT, ENGINES, starts=STARTS, overrides=OVERRIDES, run_dir=run_dir
    ).run()
    assert not result.failures
    return result.total_steps


def _paired_timings(fns: dict, rounds: int) -> tuple[dict, dict]:
    """``({name: (steps, fastest elapsed)}, {name: overhead ratio})``.

    Scheduler jitter on a small container (±10% on a ~0.3s run) dwarfs
    the few-percent effect being measured, so block timings lie.  Two
    defenses: variants are *interleaved* within each round, with the
    order rotated per round so no variant always rides the same cache /
    scheduling position, and the overhead versus the first variant is
    the **median of per-round ratios** — pairing cancels the slow drift
    a best-of comparison across variants cannot."""
    names = list(fns)
    best = {name: (0, float("inf")) for name in names}
    samples: dict = {name: [] for name in names}
    for round_index in range(rounds):
        order = names[round_index % len(names):] + names[:round_index % len(names)]
        for name in order:
            started = time.perf_counter()
            steps = fns[name]()
            elapsed = time.perf_counter() - started
            samples[name].append(elapsed)
            if elapsed < best[name][1]:
                best[name] = (steps, elapsed)
    baseline = samples[names[0]]
    ratios = {
        name: statistics.median(t / b for t, b in zip(samples[name], baseline))
        for name in names[1:]
    }
    return best, ratios


def _recovery_check() -> dict:
    """Degraded-run correctness: one deterministically failing walk must
    quarantine while every survivor keeps its fault-free row."""

    def rows(result):
        return [
            (o.spec.walk_id, o.best_cost, o.ref_cost, o.status)
            for o in result.leaderboard
        ]

    base = PortfolioRunner(CIRCUIT, ENGINES, starts=STARTS, overrides=OVERRIDES).run()
    faulted = PortfolioRunner(
        CIRCUIT,
        ENGINES,
        starts=STARTS,
        overrides=OVERRIDES,
        fault_plan=FaultPlan([Fault(1, 1, "raise", attempts=None)]),
    ).run()
    assert [f.spec.walk_id for f in faulted.failures] == [1]
    assert rows(faulted) == [row for row in rows(base) if row[0] != 1]
    return {"quarantined": 1, "survivors_identical": True}


def run(fast: bool = False, write: bool = False) -> dict:
    """Measure; optionally append a ``mode: faults`` trajectory entry."""
    rounds = 1 if fast else ROUNDS
    _supervised_run()  # warm the per-process circuit/placer caches

    def persisted() -> int:
        run_dir = tempfile.mkdtemp(prefix="bench_faults_")
        try:
            return _supervised_run(run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    timings, ratios = _paired_timings(
        {"raw": _raw_run, "supervised": _supervised_run, "persisted": persisted},
        rounds,
    )
    raw_steps, raw_s = timings["raw"]
    sup_steps, sup_s = timings["supervised"]
    per_steps, per_s = timings["persisted"]

    raw_sps = raw_steps / raw_s
    sup_sps = sup_steps / sup_s
    per_sps = per_steps / per_s
    overhead_pct = 100.0 * (ratios["supervised"] - 1.0)
    persist_pct = 100.0 * (ratios["persisted"] - 1.0)

    results = {
        "circuit": CIRCUIT,
        "raw_steps_per_sec": round(raw_sps, 1),
        "supervised_steps_per_sec": round(sup_sps, 1),
        "persisted_steps_per_sec": round(per_sps, 1),
        "supervision_overhead_pct": round(overhead_pct, 2),
        "persistence_overhead_pct": round(persist_pct, 2),
        "recovery": _recovery_check(),
    }

    recorded = record_trajectory_entry(
        "faults",
        {
            "circuit": CIRCUIT,
            "engines": list(ENGINES),
            "starts": STARTS,
            "steps": sup_steps,
            "runs": [
                {
                    "variant": "raw",
                    "steps": raw_steps,
                    "steps_per_sec": results["raw_steps_per_sec"],
                },
                {
                    "variant": "supervised",
                    "steps": sup_steps,
                    "steps_per_sec": results["supervised_steps_per_sec"],
                },
                {
                    "variant": "persisted",
                    "steps": per_steps,
                    "steps_per_sec": results["persisted_steps_per_sec"],
                },
            ],
            "supervision_overhead_pct": results["supervision_overhead_pct"],
            "persistence_overhead_pct": results["persistence_overhead_pct"],
        },
        write=write,
    )

    results["entry"] = recorded["entry"]
    results["appended"] = recorded["appended"]
    results["table"] = table(results)
    return results


def table(results: dict) -> str:
    lines = [
        f"fault-tolerance overhead on {results['circuit']} (serial, fault-free)",
        f"{'variant':<12} {'steps/s':>10} {'vs raw':>8}",
        f"{'raw':<12} {results['raw_steps_per_sec']:>10,.0f} {'—':>8}",
        f"{'supervised':<12} {results['supervised_steps_per_sec']:>10,.0f} "
        f"{results['supervision_overhead_pct']:>+7.2f}%",
        f"{'persisted':<12} {results['persisted_steps_per_sec']:>10,.0f} "
        f"{results['persistence_overhead_pct']:>+7.2f}%",
        "recovery: 1 walk quarantined, survivors byte-identical",
    ]
    return "\n".join(lines)


def test_fault_overhead_report(emit, benchmark):
    """Smoke tier: supervision must be cheap and recovery exact.  The
    bound is looser than the tracked acceptance (< 2%) because CI boxes
    are noisy; the trajectory entry records the real number."""
    results = benchmark.pedantic(lambda: run(fast=True), rounds=1, iterations=1)
    emit("fault_overhead", results["table"])
    assert results["recovery"]["survivors_identical"]
    assert results["supervision_overhead_pct"] < 10.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="single timed round (for CI)"
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
