"""Vector tier — windowed-walk annealing steps/sec vs the incremental engine.

PR-3's incremental engine made each step proportional to what a move
changed; the vector tier (:class:`repro.perf.VectorBStarEngine` driven
by :class:`repro.anneal.BatchedAnnealer`) runs the same in-place step
(dirty-suffix repack, delta cost, wirelength kept in numpy arrays on
large designs) over windowed multi-scale moves, whose log-uniform
suffix windows make most repacks short.  This benchmark measures what
that buys, and proves the tier's evaluation changes nothing else:

* drives the vector engine and the incremental engine through the same
  walk API (begin/advance — the portfolio execution path) and reports
  steps/sec for both plus the ratio;
* replays the *identical* vector-tier walk (same seed, same batched
  driver) with the engine's **scalar oracle** evaluator — a full
  plain-float evaluation of every candidate through the unified
  :class:`~repro.cost.CostModel` — and asserts the best costs are
  byte-identical: the delta path is an equal-answers fast path, not a
  different algorithm;
* the full tier measures 1,000 modules end to end (the ``>= 5x``
  acceptance point) and a step-capped 10,000-module run, past the
  2,000-module wall where the scalar tiers stop being usable.

The two engines draw different move families (windowed vs global), so
vector-vs-incremental best costs are **not** compared — quality is
tracked separately by the ``bstar-vector`` cell in the quality matrix
(see ``docs/perf.md`` for the measured tradeoff).

Results are **appended** to ``BENCH_perf_kernel.json`` as
``mode: "vector"`` entries; ``check_regression`` gates
``vector_steps_per_sec`` / ``incremental_steps_per_sec`` against the
most recent comparable entry exactly like the other tracked modes.

Run standalone:   python benchmarks/bench_vector.py [--quick]
Run under pytest: pytest benchmarks/bench_vector.py -q
"""

from __future__ import annotations

import argparse
import random
import time

from bench_perf_kernel import JSON_PATH, problem, record_trajectory_entry

from repro.anneal import BatchedAnnealer, IncrementalAnnealer
from repro.bstar import BStarPlacerConfig
from repro.perf import IncrementalBStarEngine, VectorBStarEngine, vector

#: acceptance bar: vector vs incremental steps/s at 1000 modules (full)
VECTOR_TARGET = 5.0

#: step caps per size — the big points measure throughput scaling; an
#: uncapped 10k-module incremental walk would run for many minutes
STEP_CAPS = {10000: 300}


def _drive(engine, annealer, max_steps: int | None):
    """Warmup + timed annealing via the checkpoint API.

    Returns (elapsed seconds of the annealing phase, steps, best cost).
    """
    checkpoint = annealer.begin()
    t0 = time.perf_counter()
    checkpoint = annealer.advance(checkpoint, max_steps, _engine_synced=True)
    elapsed = time.perf_counter() - t0
    return elapsed, checkpoint.step, checkpoint.best_cost


def _run_vector(modules, nets, config, max_steps, *, evaluator="vector"):
    rng = random.Random(config.seed)
    engine = VectorBStarEngine(modules, nets, (), config, evaluator=evaluator)
    engine.reset(engine.initial_state(rng))
    annealer = BatchedAnnealer(engine, config.schedule(), rng)
    return _drive(engine, annealer, max_steps)


def _run_incremental(modules, nets, config, max_steps):
    rng = random.Random(config.seed)
    engine = IncrementalBStarEngine(modules, nets, (), config)
    engine.reset(engine.initial_state(rng))
    annealer = IncrementalAnnealer(engine, config.schedule(), rng)
    return _drive(engine, annealer, max_steps)


def measure(
    n: int,
    config: BStarPlacerConfig,
    repeats: int = 2,
    max_steps: int | None = None,
) -> dict:
    """Best-of-``repeats`` steps/sec, vector vs incremental, plus the
    scalar-oracle identity check on the vector walk."""
    modules, nets = problem(n)

    vector_sps = incremental_sps = 0.0
    vector_best = incremental_best = None
    steps = 0
    for _ in range(repeats):
        elapsed, steps, vector_best = _run_vector(modules, nets, config, max_steps)
        vector_sps = max(vector_sps, steps / elapsed)
        elapsed, inc_steps, incremental_best = _run_incremental(
            modules, nets, config, max_steps
        )
        incremental_sps = max(incremental_sps, inc_steps / elapsed)
    # one scalar-oracle replay of the vector walk: same seed, same
    # batched driver, plain-float evaluation — byte-identical or bust
    _, _, oracle_best = _run_vector(
        modules, nets, config, max_steps, evaluator="scalar"
    )
    assert vector_best == oracle_best, (
        f"vector evaluator diverged from the scalar oracle at {n} modules: "
        f"{vector_best!r} vs {oracle_best!r}"
    )
    return {
        "modules": n,
        "nets": len(nets),
        "steps": steps,
        "vector_steps_per_sec": round(vector_sps, 1),
        "incremental_steps_per_sec": round(incremental_sps, 1),
        "vector_speedup": round(vector_sps / incremental_sps, 2),
        "vector_best_cost": vector_best,
        "incremental_best_cost": incremental_best,
        "oracle_identical": True,
    }


def run(fast: bool = False, write: bool = False) -> dict:
    """Measure every size; optionally append a ``mode: "vector"`` entry."""
    if fast:
        # CI smoke: one mid-sized point, short schedule, capped steps —
        # seconds end to end, but the oracle identity assert still runs
        config = BStarPlacerConfig(seed=0, alpha=0.85, t_final=1e-3)
        points = [(200, 1, 800)]
    else:
        config = BStarPlacerConfig(seed=0)
        points = [
            (1000, 2, None),
            (10000, 1, STEP_CAPS[10000]),
        ]

    recorded = record_trajectory_entry(
        "vector",
        {
            # the tier's fixed batch cap and window floor, as run
            "batch_max": BatchedAnnealer.__init__.__kwdefaults__["batch_max"],
            "window_min": vector._WINDOW_MIN,
            "runs": [
                measure(n, config, repeats, max_steps)
                for n, repeats, max_steps in points
            ],
        },
        write=write,
        gate=True,
    )
    entry = recorded["entry"]
    regressions = recorded["regressions"]
    appended = recorded["appended"]

    lines = [
        f"{'modules':>8} {'steps':>7} {'vector/s':>10} {'incr/s':>10} {'vector x':>9}"
    ]
    for row in entry["runs"]:
        lines.append(
            f"{row['modules']:>8} {row['steps']:>7} "
            f"{row['vector_steps_per_sec']:>10,.0f} "
            f"{row['incremental_steps_per_sec']:>10,.0f} "
            f"{row['vector_speedup']:>8.2f}x"
        )
    return {
        "benchmark": "vector_tier_steps_per_sec",
        "mode": entry["mode"],
        "runs": entry["runs"],
        "entry": entry,
        "regressions": regressions,
        "appended": appended,
        "table": "\n".join(lines),
    }


def test_vector_report(emit, benchmark):
    """Smoke tier: the vector walk matches its scalar oracle byte for
    byte and beats the incremental engine even at the small smoke size."""
    results = benchmark.pedantic(lambda: run(fast=True), rounds=1, iterations=1)
    emit("vector_tier", results["table"])
    for row in results["runs"]:
        assert row["oracle_identical"]
        # the full-mode bar is VECTOR_TARGET at 1000 modules; the smoke
        # point is small and single-repeat, so the floor only guards
        # against the vector tier falling behind the scalar engine
        assert row["vector_speedup"] >= 1.2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small point with a short schedule (seconds, for CI)",
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
    if not args.quick:
        at_1000 = next(r for r in outcome["runs"] if r["modules"] == 1000)
        status = "MET" if at_1000["vector_speedup"] >= VECTOR_TARGET else "MISSED"
        print(
            f"vector target >={VECTOR_TARGET:.0f}x at 1000 modules: "
            f"{status} ({at_1000['vector_speedup']:.2f}x)"
        )
    return 1 if outcome["regressions"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
