"""Telemetry is pure observation: traced runs are byte-identical.

The flight recorder (docs/observability.md) draws nothing from the
rng and perturbs no float — so for every execution tier a run with
``--trace`` armed must land the exact leaderboard of the untraced
run.  This file locks that for serial, 2-worker local-pool, and
loopback-remote portfolios, and pins the null recorder's zero-cost
contract: with telemetry off the hot loop makes *zero* recorder
calls per step.
"""

from __future__ import annotations

import pickle
import random
import threading

import pytest

from repro.analysis.trace import load_trace, worker_utilization
from repro.anneal import GeometricSchedule, IncrementalAnnealer
from repro.bstar import BStarPlacerConfig
from repro.parallel import PortfolioRunner, WorkerClient
from repro.perf import IncrementalBStarEngine
from repro.telemetry import DEFAULT_SAMPLE_INTERVAL, NullRecorder

CIRCUIT = "gen:n=12,seed=1"
ENGINES = ("bstar", "hbtree")
STARTS = 4
FAST = (("alpha", 0.7), ("steps_per_epoch", 20), ("t_final", 1e-2))
JOIN_S = 120.0


def board(result):
    return [
        (o.spec.walk_id, o.best_cost, o.ref_cost, o.status)
        for o in result.leaderboard
    ]


def _run(**kwargs):
    return PortfolioRunner(
        CIRCUIT, ENGINES, starts=STARTS, overrides=FAST, **kwargs
    ).run()


@pytest.fixture(scope="module")
def untraced():
    return _run()


class TestTracedRunsAreByteIdentical:
    def test_serial(self, untraced, tmp_path):
        traced = _run(trace=tmp_path / "t")
        assert board(traced) == board(untraced)
        assert traced.cost == untraced.cost
        assert pickle.dumps(traced.placement) == pickle.dumps(untraced.placement)

    def test_two_workers(self, untraced, tmp_path):
        traced = _run(workers=2, trace=tmp_path / "t")
        assert board(traced) == board(untraced)
        assert pickle.dumps(traced.placement) == pickle.dumps(untraced.placement)

    def test_two_workers_utilization_rows(self, tmp_path):
        # default schedules: the run outlasts the later worker's join,
        # so both local slots execute chunks
        PortfolioRunner(
            CIRCUIT, ENGINES, starts=STARTS, workers=2, trace=tmp_path
        ).run()
        trace = load_trace(tmp_path)
        rows = worker_utilization(trace)
        assert set(rows) == {"local-0", "local-1"}
        assert sum(row["chunks"] for row in rows.values()) == len(
            trace.named("executor.chunk")
        )

    def test_loopback_remote(self, untraced, tmp_path):
        threads: list[threading.Thread] = []

        def on_listen(address) -> None:
            for i in range(2):
                thread = threading.Thread(
                    target=WorkerClient(address, name=f"trace-w{i}").run,
                    daemon=True,
                )
                thread.start()
                threads.append(thread)

        traced = _run(
            listen=("127.0.0.1", 0), on_listen=on_listen, trace=tmp_path / "t"
        )
        for thread in threads:
            thread.join(timeout=JOIN_S)
            assert not thread.is_alive(), "loopback worker failed to exit"
        assert board(traced) == board(untraced)
        assert pickle.dumps(traced.placement) == pickle.dumps(untraced.placement)

    def test_traced_summary_reports_rates_and_health(self, tmp_path):
        result = _run(trace=tmp_path / "t")
        summary = result.summary()
        assert "steps/s" in summary  # per-walk rate column
        # clean run: the health suffix (chunk retries / respawns) stays
        # out of the banner because both counters are zero
        assert result.retries == 0 and result.respawns == 0
        assert "retr" not in summary
        import dataclasses

        noisy = dataclasses.replace(result, retries=2, respawns=1)
        assert "2 chunk retries, 1 respawn" in noisy.summary()


class _CountingRecorder(NullRecorder):
    """Null recorder that tallies every probe it receives."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def count(self, name, value=1, **fields):
        self.calls += 1

    def gauge(self, name, value, **fields):
        self.calls += 1

    def observe(self, name, value, **fields):
        self.calls += 1

    def event(self, name, wall=None, **fields):
        self.calls += 1


class _EnabledCountingRecorder(_CountingRecorder):
    """Same tally, but advertises itself as collecting."""

    __slots__ = ()
    enabled = True
    sample_interval = DEFAULT_SAMPLE_INTERVAL


def _annealer(recorder):
    config = BStarPlacerConfig(seed=0, alpha=0.85, t_final=1e-2)
    rng = random.Random(config.seed)
    modules, nets = _problem(24)
    engine = IncrementalBStarEngine(modules, nets, (), config)
    engine.reset(engine.initial_state(rng))
    schedule = GeometricSchedule(
        t_initial=config.t_initial,
        t_final=config.t_final,
        alpha=config.alpha,
        steps_per_epoch=config.steps_per_epoch,
    )
    annealer = IncrementalAnnealer(engine, schedule, rng)
    annealer.set_recorder(recorder)
    return annealer


def _problem(n, seed=0):
    from repro.geometry import Module, ModuleSet, Net

    rng = random.Random(seed)
    modules = ModuleSet.of(
        [Module.hard(f"m{i}", rng.uniform(1, 10), rng.uniform(1, 10)) for i in range(n)]
    )
    names = modules.names()
    nets = []
    for i in range(n):
        a, b = names[rng.randrange(n)], names[rng.randrange(n)]
        if a != b:
            nets.append(Net(f"n{i}", (a, b)))
    return modules, tuple(nets)


class TestNullRecorderCost:
    def test_disabled_recorder_sees_zero_probes(self):
        """With telemetry off the step loop must never touch the
        recorder: the ``enabled`` flag is hoisted once per chunk and
        every per-step probe sits behind it."""
        recorder = _CountingRecorder()
        annealer = _annealer(recorder)
        outcome = annealer.run()
        assert outcome.stats.steps > 0
        assert recorder.calls == 0

    def test_enabled_recorder_probe_count_is_sampled_not_per_step(self):
        """Collection costs O(steps / sample_interval) probes plus one
        chunk summary — never O(steps)."""
        recorder = _EnabledCountingRecorder()
        annealer = _annealer(recorder)
        outcome = annealer.run()
        steps = outcome.stats.steps
        assert steps > DEFAULT_SAMPLE_INTERVAL
        # sampled events + chunk summaries; far below one per step
        budget = steps // DEFAULT_SAMPLE_INTERVAL + 2
        assert 0 < recorder.calls <= budget
