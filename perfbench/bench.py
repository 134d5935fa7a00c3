"""Workloads, jobs, checks and metrics of the time-to-quality benchmark.

Imported by ``run.py`` once the program's ``src/`` is on ``sys.path``.
``workloads.json`` (next to this file) declares every workload: its
inputs as functions of ``--seed``, its budget, the frozen quality
target of its time-to-quality job, and which layers it stresses and
bypasses.  ``BENCHMARK.json`` at the repository root declares the
metrics; the smoke mode checks that every one of them is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.analysis import load_trace
from repro.anneal import checkpoint_payload
from repro.cost import reference_model
from repro.parallel import PortfolioRunner
from repro.parallel.engines import build_config, build_placer, compress_overrides
from repro.parallel.jobs import WalkSpec
from repro.perf import VectorBStarEngine
from repro.workloads import clear_workload_cache, resolve_workload

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: run artefacts (span dumps, portfolio run and trace directories)
OUT = ROOT / ".perfbench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
clock = time.perf_counter

#: smoke-mode budgets: tiny, yet every code path and check runs
SMOKE = {"steps_per_epoch": 6, "chunks": 4, "oracle_prefix": 40, "budget": 2048}


# -- jobs ---------------------------------------------------------------------


@dataclass
class Job:
    """One placement: an annealing walk (serial) or a portfolio run."""

    label: str
    circuit: str
    walk_seed: int
    overrides: tuple[tuple[str, object], ...] = ()
    #: quality target as a share of the job's initial reference cost
    #: (serial time-to-quality job only)
    ratio: float | None = None


@dataclass
class Outcome:
    """What one execution of a job measured and checked."""

    label: str
    setup_s: float = 0.0
    job_s: float = 0.0
    #: wall time of each advance() chunk, then of finalize
    chunk_s: list[float] = field(default_factory=list)
    #: chunks advanced when the quality target was first met
    ttq_chunks: int = 0
    ttq_s: float | None = None
    steps_to_target: int = 0
    steps: int = 0
    accepted: int = 0
    improved: int = 0
    best_cost: float = math.nan
    #: best cost when the quality target was first met
    best_at_target: float = math.nan
    ref_cost: float = math.nan
    violations: int = 0
    failures: list[str] = field(default_factory=list)
    #: traced executions: span seconds, and call/tally deltas of advance()
    spans: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    tally: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def overrides_of(cfg: dict, smoke: bool, *extra: dict) -> tuple[tuple[str, object], ...]:
    overrides = dict(cfg.get("overrides", {}))
    for more in extra:
        overrides.update(more)
    if smoke:
        overrides["steps_per_epoch"] = SMOKE["steps_per_epoch"]
    return tuple(overrides.items())


def serial_jobs(cfg: dict, seed: int, smoke: bool) -> list[Job]:
    """The frozen time-to-quality instance, then the seed's own walk."""
    ttq = cfg["ttq"]
    return [
        Job("ttq", cfg["circuit"].format(seed=ttq["circuit_seed"]), ttq["walk_seed"],
            overrides_of(cfg, smoke, ttq.get("overrides", {})),
            1.0 if smoke else ttq["ratio"]),
        Job(f"s{seed}", cfg["circuit"].format(seed=seed), seed + 1,
            overrides_of(cfg, smoke)),
    ]


def run_walk(cfg: dict, job: Job, chunks: int, ledger=None,
             target_chunk: int | None = None) -> Outcome:
    """One annealing walk through the walk API, checked.

    Untraced (``ledger is None``): the walk advances in ``chunks``
    equal chunks, each timed; the time-to-quality job probes its best
    state between chunks until its target is met.  A repeat of it is
    not probed: ``target_chunk`` is the chunk that met the target in
    pass 1.  Traced: one monolithic ``advance()`` under the installed
    probes, with spans around every coarse phase.
    """
    out = Outcome(job.label)
    spans = ledger if ledger is not None else probes.NoSpans()
    t0 = clock()
    with spans.span("job", label=job.label):
        with spans.span("resolve"):
            clear_workload_cache()
            circuit = resolve_workload(job.circuit)
        with spans.span("build"):
            placer = build_placer(
                circuit, WalkSpec(0, job.circuit, cfg["engine"], job.walk_seed, job.overrides)
            )
            engine = placer.engine()
        rng = random.Random(job.walk_seed)
        state = placer.initial_state(rng)
        with spans.span("reset"):
            engine.reset(state)
        annealer = placer.annealer(engine, rng)
        with spans.span("begin"):
            checkpoint = annealer.begin()
        out.setup_s = clock() - t0

        ref = reference_model(circuit)
        constraints = circuit.constraints()
        probing = job.ratio is not None and ledger is None and target_chunk is None
        if probing:
            initial = ref.evaluate_placement(placer.finalize(checkpoint.best_state))
        if ledger is not None:
            if hasattr(engine, "collect_stats"):
                # the vector engine publishes per-candidate move stats
                # only while this flag is up (observation only)
                engine.collect_stats = True
            mark = ledger.mark()
        step = None if ledger is not None else -(-checkpoint.total_steps // chunks)
        probed = None
        while not checkpoint.finished:
            with spans.span("advance"):
                t = clock()
                # the engine already holds the checkpoint's state between
                # chunks (probes never touch it), exactly as in run()
                checkpoint = annealer.advance(checkpoint, step, _engine_synced=True)
                out.chunk_s.append(clock() - t)
            if len(out.chunk_s) == target_chunk:
                out.ttq_chunks, out.ttq_s = target_chunk, sum(out.chunk_s)
                out.steps_to_target = checkpoint.step
                out.best_at_target = checkpoint.best_cost
            if probing and out.ttq_s is None and checkpoint.best_cost != probed:
                # probe, off the clock: the best state's reference cost
                probed = checkpoint.best_cost
                placement = placer.finalize(checkpoint.best_state)
                # the same arithmetic calibrate() froze the ratio with
                if (
                    ref.evaluate_placement(placement) / initial <= job.ratio
                    and not constraints.violations(placement)
                ):
                    out.ttq_chunks = len(out.chunk_s)
                    out.ttq_s = sum(out.chunk_s)
                    out.steps_to_target = checkpoint.step
                    out.best_at_target = checkpoint.best_cost
        if ledger is not None:
            out.calls, out.tally = ledger.since(mark)
        with spans.span("finalize"):
            t = clock()
            placement = placer.finalize(checkpoint.best_state)
            out.chunk_s.append(clock() - t)
        out.job_s = sum(out.chunk_s)
        with spans.span("score"):
            out.ref_cost = ref.evaluate_placement(placement)

    out.steps = checkpoint.step
    out.accepted = checkpoint.stats.accepted
    out.improved = checkpoint.stats.improved
    out.best_cost = checkpoint.best_cost
    if placer.cost(checkpoint.best_state) != checkpoint.best_cost:
        out.failures.append("best cost differs from a from-scratch recomputation")
    if not placement.is_overlap_free():
        out.failures.append("final placement overlaps")
    out.violations = len(constraints.violations(placement))
    if out.violations:
        out.failures.append(f"{out.violations} constraint violations")
    if probing and out.ttq_s is None:
        out.failures.append("never reached its quality target")
    return out


def begin_walk(circuit_name: str, engine_name: str, walk_seed: int, overrides,
               engine=None):
    """Placer, annealer and step-0 checkpoint of a walk (``engine``
    defaults to the placer's own)."""
    circuit = resolve_workload(circuit_name)
    placer = build_placer(
        circuit, WalkSpec(0, circuit_name, engine_name, walk_seed, overrides)
    )
    engine = engine if engine is not None else placer.engine()
    rng = random.Random(walk_seed)
    engine.reset(placer.initial_state(rng))
    annealer = placer.annealer(engine, rng)
    return placer, annealer, annealer.begin()


def vector_oracle(cfg: dict, job: Job, prefix: int) -> tuple[float, float]:
    """Best costs of a walk prefix: vector evaluator vs its scalar oracle."""
    circuit = resolve_workload(job.circuit)
    config = build_config(cfg["engine"], job.walk_seed, job.overrides)
    bests = []
    for engine in (None, VectorBStarEngine(circuit.modules(), circuit.nets, (),
                                           config, evaluator="scalar")):
        _, annealer, checkpoint = begin_walk(
            job.circuit, cfg["engine"], job.walk_seed, job.overrides, engine
        )
        bests.append(annealer.advance(checkpoint, prefix, _engine_synced=True).best_cost)
    return bests[0], bests[1]


def portfolio_base_seed(cfg: dict, seed: int) -> int:
    """Walk seeds of one portfolio job are ``base + i``, disjoint per seed."""
    return cfg["starts"] * seed


def leaderboard_key(result) -> tuple:
    return tuple(
        (row.spec.walk_id, row.spec.engine, row.spec.seed, row.steps,
         row.best_cost, row.ref_cost, row.status)
        for row in result.leaderboard
    )


def run_portfolio(cfg: dict, seed: int, smoke: bool, tmp: Path, k: int,
                  trace_dir: Path | None = None) -> Outcome:
    """One ``PortfolioRunner.run()``, checked; workers are joined on return."""
    out = Outcome(f"p{seed}.{k}")
    times: list[float] = []
    budget = SMOKE["budget"] if smoke else cfg["budget"]
    run_dir = tmp / f"run-{k}"
    t0 = clock()
    runner = PortfolioRunner(
        cfg["circuit"], tuple(cfg["engines"]), starts=cfg["starts"],
        workers=cfg["workers"], base_seed=portfolio_base_seed(cfg, seed),
        budget=budget, run_dir=run_dir,
        on_event=lambda event: times.append(clock()),
        trace=None if trace_dir is None else str(trace_dir),
    )
    t1 = clock()
    result = runner.run()
    t2 = clock()
    out.setup_s = times[0] - t0
    out.job_s = t2 - times[0]
    out.steps = result.total_steps
    out.accepted = sum(row.stats.accepted for row in result.leaderboard if row.stats)
    out.best_cost = result.cost
    out.ref_cost = result.cost
    circuit = resolve_workload(cfg["circuit"])
    out.violations = len(circuit.constraints().violations(result.placement))
    if not out.violations:
        # the returned result is the first placement a caller receives
        out.ttq_s = t2 - t0
    if reference_model(circuit).evaluate_placement(result.placement) != result.cost:
        out.failures.append("result.cost differs from a fresh reference evaluation")
    if not result.placement.is_overlap_free():
        out.failures.append("result placement overlaps")
    if out.violations:
        out.failures.append(f"{out.violations} constraint violations")
    out.extra = {
        "leaderboard": leaderboard_key(result),
        "events": len(times),
        "run_s": t2 - t1,
        "busy_s": sum(row.elapsed_s for row in result.leaderboard),
        "workers": result.workers,
        "retries": result.retries,
        "respawns": result.respawns,
        "failed_walks": len(result.failures),
        "persist_bytes": sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()),
    }
    return out


def guarded(label: str, fn, *args, **kwargs) -> Outcome:
    """Run one job; an exception fails the job, never the benchmark."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        out = Outcome(label)
        out.failures.append("raised:\n" + traceback.format_exc())
        return out



def first_chunk_bytes(engine_name: str, job: Job) -> int:
    """Pickled size of a walk's first chunk checkpoint envelope, as the
    runner persists and ships it (its default chunk is a quarter walk)."""
    _, annealer, checkpoint = begin_walk(job.circuit, engine_name, job.walk_seed, job.overrides)
    checkpoint = annealer.advance(
        checkpoint, -(-checkpoint.total_steps // 4), _engine_synced=True
    )
    return len(pickle.dumps(checkpoint_payload(checkpoint)))


# -- measurement --------------------------------------------------------------


def chunk_minima(runs: list[Outcome], chunks: int | None = None) -> float:
    """Summed over a walk's chunk positions (finalize last), the fastest
    execution's wall time of that chunk.  Every execution does the same
    deterministic work, and a shared machine only ever adds time to it,
    so the minimum is the steadiest estimate of what the work costs."""
    if chunks is None:
        chunks = len(runs[0].chunk_s)
    return sum(min(r.chunk_s[c] for r in runs) for c in range(chunks))


def measure_serial(cfg: dict, seed: int, seconds: float, smoke: bool):
    """Untraced jobs while ``seconds`` last.

    Pass 1 runs the frozen time-to-quality job (probed) and the seed's
    walk, and fixes the exact results.  The frozen job then repeats,
    unprobed, while another execution still fits in the window; every
    repeat must reproduce pass 1 exactly.
    """
    jobs = serial_jobs(cfg, seed, smoke)
    chunks = SMOKE["chunks"] if smoke else cfg["chunks"]
    deadline = clock() + seconds
    first = [guarded(job.label, run_walk, cfg, job, chunks) for job in jobs]
    runs = list(first)
    ttq = first[0]
    took = ttq.setup_s + ttq.job_s
    while not ttq.failures and clock() + took <= deadline:
        t = clock()
        out = guarded(ttq.label, run_walk, cfg, jobs[0], chunks,
                      target_chunk=ttq.ttq_chunks)
        took = clock() - t
        if not out.failures and (out.best_cost, out.best_at_target) != (
            ttq.best_cost, ttq.best_at_target
        ):
            out.failures.append("repeat diverged from pass 1")
        runs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "oracle_prefix" in cfg:
        prefix = SMOKE["oracle_prefix"] if smoke else cfg["oracle_prefix"]
        vector, scalar = vector_oracle(cfg, jobs[0], prefix)
        print(f"scalar-oracle replay, {prefix} steps of job {jobs[0].label}: "
              f"vector {vector!r}, scalar {scalar!r}")
        if vector != scalar:
            ttq.failures.append("vector evaluator diverged from its scalar oracle")
    timed = [r for r in runs if r.label == ttq.label and not r.failures]
    metrics = {
        "ttq_s": (chunk_minima(timed, ttq.ttq_chunks) if timed else math.inf, "s"),
        "job_s": (chunk_minima(timed) if timed else math.inf, "s"),
        "setup_s": (min((r.setup_s for r in timed), default=math.inf), "s"),
        # the frozen instance's final quality: exact, the same for every seed
        "ref_cost": (ttq.ref_cost, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return runs, metrics


def measure_portfolio(cfg: dict, seed: int, seconds: float, smoke: bool, tmp: Path):
    """Portfolio jobs, one after another, while ``seconds`` last."""
    deadline = clock() + seconds
    runs: list[Outcome] = []
    while True:
        t = clock()
        label = f"p{seed}.{len(runs)}"
        out = guarded(label, run_portfolio, cfg, seed, smoke, tmp, len(runs))
        took = clock() - t
        if runs and not (out.failures or runs[0].failures) and \
                out.extra["leaderboard"] != runs[0].extra["leaderboard"]:
            out.failures.append("leaderboard differs from the first run's")
        runs.append(out)
        if clock() + took > deadline:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # workers have exited: RUSAGE_CHILDREN holds the largest one's peak
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # fastest execution of identical work, as for the serial workloads
    timed = [r for r in runs if not r.failures]
    metrics = {
        "ttq_s": (min((r.ttq_s for r in timed), default=math.inf), "s"),
        "job_s": (min((r.job_s for r in timed), default=math.inf), "s"),
        "setup_s": (min((r.setup_s for r in timed), default=math.inf), "s"),
        "ref_cost": (runs[0].ref_cost, "1"),
        "peak_rss_mb": ((own + cfg["workers"] * worker) / 1024.0, "MB"),
    }
    return runs, metrics


def _traced_walk(cfg: dict, job: Job, ledger: probes.Ledger) -> Outcome:
    start = len(ledger.spans)
    out = run_walk(cfg, job, 1, ledger)
    for span in ledger.spans[start + 1:]:
        out.spans[span["name"]] = out.spans.get(span["name"], 0.0) + span["end"] - span["start"]
    return out


def serial_layers(traced: list[Outcome], whole: dict) -> dict:
    """Per-layer metrics of traced walks; ``whole`` holds the calls that
    count outside ``advance()`` (final scoring and finalize)."""
    adv = sum(r.spans["advance"] for r in traced)
    calls: dict[str, list] = {}
    tally: dict[str, int] = {}
    for r in traced:
        for k, (n, s) in r.calls.items():
            slot = calls.setdefault(k, [0, 0.0])
            slot[0] += n
            slot[1] += s
        for k, v in r.tally.items():
            tally[k] = tally.get(k, 0) + v

    def ratio(a, b):
        return a / b if b else 0.0

    def sec(name):
        return calls.get(name, (0, 0.0))[1]

    def count(name):
        return calls.get(name, (0, 0.0))[0]

    def per_call_us(name):
        return 1e6 * ratio(sec(name), count(name))

    def per_whole_call(name):
        n, s = whole.get(name, (0, 0.0))
        return ratio(s, n)

    def median_span(name):
        return statistics.median(r.spans[name] for r in traced)

    steps = sum(r.steps for r in traced)
    # repeated executions of a job count once in the exact totals
    unique = list({r.label: r for r in traced}.values())
    engine_s = sum(sec(f"engine.{k}") for k in ("propose", "commit", "rollback", "snapshot"))
    batched = tally.get("batch.width", 0) > 0
    if count("pack.level"):
        pack_s = sec("pack.level")
    else:
        pack_s = sec("engine.propose") - sec("move.draw") - sec("cost.propose") - sec("cost.batch")
    proposals = tally.get("proposals", 0)
    return {
        "workloads.resolve_s": (median_span("resolve"), "s"),
        "placer.build_s": (median_span("build"), "s"),
        "engine.reset_s": (median_span("reset"), "s"),
        "anneal.warmup_s": (median_span("begin"), "s"),
        "anneal.self_share": (ratio(adv - engine_s, adv), "1"),
        "anneal.accept_ratio": (ratio(sum(r.accepted for r in traced), steps), "1"),
        "anneal.improved": (sum(r.improved for r in unique), "count"),
        "anneal.snapshot_share": (ratio(sec("engine.snapshot"), adv), "1"),
        "engine.propose_us": (per_call_us("engine.propose"), "us"),
        "engine.commit_us": (per_call_us("engine.commit"), "us"),
        "engine.rollback_us": (per_call_us("engine.rollback"), "us"),
        "move.draw_share": (ratio(sec("move.draw"), adv), "1"),
        "pack.share": (ratio(pack_s, adv), "1"),
        "pack.bounding_share": (ratio(sec("bounding_of"), adv), "1"),
        "repack.len_mean": (ratio(tally.get("repack.len", 0), proposals), "count"),
        "move.wasted_share": (ratio(tally.get("wasted", 0), proposals), "1"),
        "cost.share": (ratio(sec("cost.propose"), adv), "1"),
        "cost.propose_us": (per_call_us("cost.propose"), "us"),
        "cost.proximity_share": (ratio(sec("cost.proximity"), adv), "1"),
        "cost.moved_mean": (ratio(tally.get("cost.moved", 0), count("cost.propose")), "count"),
        "cost.batch_share": (ratio(sec("cost.batch"), adv), "1"),
        "batch.width_mean": (ratio(tally.get("batch.width", 0), count("engine.propose")) if batched else 0.0, "count"),
        "batch.useful_ratio": (ratio(steps, tally.get("batch.width", 0)), "1"),
        "vector.accept_share": (ratio(sec("engine.commit"), adv) if batched else 0.0, "1"),
        "score.ref_s": (per_whole_call("score.ref"), "s"),
        "placer.finalize_s": (per_whole_call("placer.finalize"), "s"),
        "violations": (sum(r.violations for r in unique), "count"),
    }


#: layers only the portfolio exercises (0 on the serial workloads)
PARALLEL_LAYERS = {
    "parallel.chunks": "count", "parallel.efficiency": "1",
    "parallel.roundtrip_ms": "ms", "parallel.queue_wait_s": "s",
    "parallel.polish_s": "s", "parallel.checkpoint_bytes": "bytes",
    "persist.bytes": "bytes", "parallel.retries": "count",
    "parallel.respawns": "count", "parallel.failed_walks": "count",
}


def overhead(pairs: list[tuple[Outcome, Outcome]]) -> float:
    """Median over (untraced, traced) pairs of the job_s ratio, minus one."""
    return statistics.median(t.job_s / p.job_s for p, t in pairs) - 1.0


def trace_serial(cfg: dict, seed: int, smoke: bool):
    """Each job alternates an untraced execution (probed chunks) with a
    traced one (monolithic ``advance()`` under the probes)."""
    jobs = serial_jobs(cfg, seed, smoke)
    chunks = SMOKE["chunks"] if smoke else cfg["chunks"]
    ledger = probes.Ledger()
    pairs = []
    for job in jobs:
        plain = guarded(job.label, run_walk, cfg, job, chunks)
        with probes.installed(ledger):
            traced = guarded(job.label, _traced_walk, cfg, job, ledger)
        if not (plain.failures or traced.failures) and traced.best_cost != plain.best_cost:
            traced.failures.append(
                f"traced best cost {traced.best_cost!r} != untraced {plain.best_cost!r}")
        pairs.append((plain, traced))
    runs = [r for pair in pairs for r in pair]
    if any(r.failures for r in runs):
        return runs, {}, ledger
    metrics = serial_layers([t for _, t in pairs], ledger.calls)
    metrics["anneal.steps_to_target"] = (pairs[0][0].steps_to_target, "count")
    metrics["trace.overhead"] = (overhead(pairs), "1")
    metrics.update({name: (0, unit) for name, unit in PARALLEL_LAYERS.items()})
    return runs, metrics, ledger


def trace_portfolio(cfg: dict, seed: int, smoke: bool, tmp: Path):
    """An untraced run, then a run with the probes installed and the
    program's own ``repro/trace-v1`` telemetry on, then an in-process
    replay of walk 0 for the layers inside the workers."""
    ledger = probes.Ledger()
    plain = guarded("plain", run_portfolio, cfg, seed, smoke, tmp, 0)
    with probes.installed(ledger):
        traced = guarded("traced", run_portfolio, cfg, seed, smoke, tmp, 1, tmp / "trace")
    plain.label, traced.label = "plain", "traced"
    coordinator = {k: tuple(v) for k, v in ledger.calls.items()}
    budget = SMOKE["budget"] if smoke else cfg["budget"]
    engine_name = cfg["engines"][0]
    overrides = compress_overrides(engine_name, (), budget // cfg["starts"])
    walk0 = Job("replay", cfg["circuit"], portfolio_base_seed(cfg, seed), overrides)
    with probes.installed(ledger):
        replay = guarded("replay", _traced_walk, {"engine": engine_name}, walk0, ledger)
    runs = [plain, traced, replay]
    if not (plain.failures or traced.failures) and \
            traced.extra["leaderboard"] != plain.extra["leaderboard"]:
        traced.failures.append("traced leaderboard differs from the untraced one")
    if any(r.failures for r in runs):
        return runs, {}, ledger
    metrics = serial_layers([replay], coordinator)
    metrics["anneal.steps_to_target"] = (0, "count")
    metrics["trace.overhead"] = (overhead([(plain, traced)]), "1")
    trace = load_trace(tmp / "trace")
    chunk_walls = [e["wall"] for e in trace.named("executor.chunk")]
    extra = traced.extra
    metrics.update({
        "parallel.chunks": (extra["events"], "count"),
        "parallel.efficiency": (extra["busy_s"] / (extra["workers"] * extra["run_s"]), "1"),
        "parallel.roundtrip_ms": (
            1e3 * statistics.fmean(w["total_s"] - w["exec_s"] for w in chunk_walls), "ms"),
        "parallel.queue_wait_s": (sum(w["queue_wait_s"] for w in chunk_walls), "s"),
        "parallel.polish_s": (
            sum(e["wall"]["elapsed_s"] for e in trace.named("portfolio.polish")), "s"),
        "parallel.checkpoint_bytes": (first_chunk_bytes(engine_name, walk0), "bytes"),
        "persist.bytes": (extra["persist_bytes"], "bytes"),
        "parallel.retries": (extra["retries"], "count"),
        "parallel.respawns": (extra["respawns"], "count"),
        "parallel.failed_walks": (extra["failed_walks"], "count"),
    })
    return runs, metrics, ledger


# -- reporting ----------------------------------------------------------------


def _number(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def print_runs(runs: list[Outcome]) -> None:
    print(f"{'job':<10} {'setup_s':>8} {'job_s':>8} {'ttq_s':>8} {'steps':>7} "
          f"{'accept':>7} {'ref_cost':>10}  status")
    for r in runs:
        ttq = "-" if r.ttq_s is None else f"{r.ttq_s:.3f}"
        accept = r.accepted / r.steps if r.steps else 0.0
        status = "ok" if not r.failures else "FAILED: " + "; ".join(r.failures)
        print(f"{r.label:<10} {r.setup_s:>8.3f} {r.job_s:>8.3f} {ttq:>8} {r.steps:>7} "
              f"{accept:>7.3f} {r.ref_cost:>10.4f}  {status}")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<26} {shown:>14} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """One workload, one mode; the last stdout line is the JSON result."""
    cfg = WORKLOADS[name]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    print(f"perfbench {name}: seed {seed}, {'traced' if trace else f'untraced, {seconds:g} s'}"
          f"{', smoke' if smoke else ''}")
    try:
        if trace and cfg["kind"] == "portfolio":
            runs, metrics, ledger = trace_portfolio(cfg, seed, smoke, tmp)
        elif trace:
            runs, metrics, ledger = trace_serial(cfg, seed, smoke)
        elif cfg["kind"] == "portfolio":
            runs, metrics = measure_portfolio(cfg, seed, seconds, smoke, tmp)
        else:
            runs, metrics = measure_serial(cfg, seed, seconds, smoke)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print_runs(runs)
    failed = sum(1 for r in runs if r.failures)
    if trace:
        ledger.write(OUT / f"spans-{name}-{seed}.json")
        if metrics:
            print(f"tracing overhead ({name}): {metrics['trace.overhead'][0]:+.2%} "
                  "(traced job_s / untraced job_s - 1)")
            print_metrics(f"per-layer metrics ({name}, traced):", metrics)
    else:
        print_metrics(f"end-to-end metrics ({name}):", metrics)
    print(f"jobs attempted {len(runs)}, failed {failed}")
    correct = failed == 0
    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"declared metrics not measured: {', '.join(missing)}")
        correct = False
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m: {"value": _number(metrics[m][0]), "unit": metrics[m][1]}
            for m in wanted if m in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                cmd.append("--smoke")
            # a run exits non-zero on a failed check or an unprinted metric
            if subprocess.run(cmd, cwd=ROOT, timeout=900).returncode != 0:
                print(f"FAILED: {name} (trace {trace})")
                status = 1
    if smoke and status == 0:
        print("smoke: every check passed and every declared metric was printed")
    return status


def calibrate(name: str) -> int:
    """Print the quality target to freeze in workloads.json: the
    time-to-quality instance's best/initial reference-cost ratio at
    ``at_budget`` of its schedule."""
    cfg = WORKLOADS.get(name, {})
    if cfg.get("kind") != "serial":
        print(f"--calibrate needs a serial workload, not {name!r}", file=sys.stderr)
        return 2
    ttq = cfg["ttq"]
    job = serial_jobs(cfg, ttq["circuit_seed"], False)[0]
    placer, annealer, checkpoint = begin_walk(
        job.circuit, cfg["engine"], job.walk_seed, job.overrides
    )
    ref = reference_model(resolve_workload(job.circuit))
    initial = ref.evaluate_placement(placer.finalize(checkpoint.best_state))
    step = -(-checkpoint.total_steps // cfg["chunks"])
    ratio = None
    while not checkpoint.finished:
        checkpoint = annealer.advance(checkpoint, step, _engine_synced=True)
        share = checkpoint.step / checkpoint.total_steps
        now = ref.evaluate_placement(placer.finalize(checkpoint.best_state)) / initial
        if ratio is None and share >= ttq["at_budget"]:
            ratio = now
        print(f"  step {checkpoint.step:>6} ({share:6.1%}): best/initial {now:.6f}")
    print(f"{name}: best/initial reference-cost ratio at {ttq['at_budget']:.0%} "
          f"of the budget: {ratio!r}")
    return 0


def main(argv: list[str]) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="placement time-to-quality benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets: every check, every metric name (seconds)")
    parser.add_argument("--calibrate", action="store_true",
                        help="print the quality target to freeze for --workload")
    args = parser.parse_args(argv)
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.calibrate:
        return calibrate(args.workload)
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, args.smoke)
    return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
