"""Fault-tolerant execution: retry, quarantine, supervision, timeouts.

Every failure mode is injected deterministically through a
:class:`FaultPlan` (see ``repro/parallel/faults.py``), so the retry /
quarantine / respawn machinery is exercised bit-reproducibly.  The
load-bearing invariants:

* a *transient* fault (retry succeeds) leaves the result byte-identical
  to a fault-free run — re-running a chunk is a pure function replay;
* a *deterministic* fault quarantines its walk and the survivors'
  leaderboard rows match the fault-free run's rows exactly;
* worker death (``die``), wedged workers (``hang`` + timeout) and an
  externally SIGKILLed lease holder all end in a finished run, never a
  hang.

Process-pool cases run under ``workers=2`` (the minimum that exercises
supervision); everything else runs inline for speed.
"""

import os
import signal
import socket
import stat
import threading
import time

import pytest

from repro.parallel import (
    FAILED,
    PROTOCOL_VERSION,
    PortfolioRunner,
    ChunkTask,
    Fault,
    FaultInjected,
    FaultPlan,
    RemoteExecutor,
    WalkSpec,
)
from repro.parallel.jobs import ChunkFailure, ChunkResult
from repro.parallel.net import MessageStream, connect_socket
from repro.parallel.runner import _ChunkSupervisor, _execute

#: short schedules so a walk is a few hundred steps
FAST = (("alpha", 0.7), ("steps_per_epoch", 20), ("t_final", 1e-2))


def run_portfolio(**kwargs):
    kwargs.setdefault("overrides", FAST)
    return PortfolioRunner("miller_opamp", **kwargs).run()


def board(result):
    return [
        (o.spec.walk_id, o.spec.engine, o.spec.seed, o.best_cost, o.ref_cost, o.status)
        for o in result.leaderboard
    ]


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(0, 0, "explode")

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError, match="walk_id"):
            Fault(-1, 0, "raise")
        with pytest.raises(ValueError, match="chunk"):
            Fault(0, -1, "raise")
        with pytest.raises(ValueError, match="attempts"):
            Fault(0, 0, "raise", attempts=(-1,))

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault"):
            FaultPlan([Fault(0, 1, "raise"), Fault(0, 1, "die")])

    def test_fires_on_attempts(self):
        transient = Fault(0, 0, "raise")  # attempts defaults to (0,)
        assert transient.fires_on(0) and not transient.fires_on(1)
        always = Fault(0, 0, "raise", attempts=None)
        assert always.fires_on(0) and always.fires_on(7)
        plan = FaultPlan([Fault(2, 1, "raise", attempts=(1,))])
        assert plan.fault_for(2, 1, 0) is None
        assert plan.fault_for(2, 1, 1) == "raise"
        assert plan.fault_for(2, 0, 1) is None  # different chunk

    def test_needs_processes(self):
        assert not FaultPlan([Fault(0, 0, "raise")]).needs_processes
        assert FaultPlan([Fault(0, 0, "die")]).needs_processes
        assert FaultPlan([Fault(0, 0, "hang")]).needs_processes

    def test_needs_network(self):
        assert not FaultPlan([Fault(0, 0, "die")]).needs_network
        for kind in ("disconnect", "stall-heartbeat", "duplicate-result"):
            assert FaultPlan([Fault(0, 0, kind)]).needs_network

    def test_has_kind(self):
        plan = FaultPlan([Fault(0, 0, "die"), Fault(1, 0, "disconnect")])
        assert plan.has_kind("die") and plan.has_kind("disconnect")
        assert not plan.has_kind("hang")

    def test_hang_or_die_requires_workers(self):
        with pytest.raises(ValueError, match="workers > 1"):
            PortfolioRunner(
                "miller_opamp",
                overrides=FAST,
                fault_plan=FaultPlan([Fault(0, 0, "die")]),
            )

    def test_fault_past_last_chunk_rejected_at_run(self):
        plan = FaultPlan([Fault(0, 99, "raise")])
        plan.validate_chunks({1: 4})  # unknown walk ids are left alone
        with pytest.raises(ValueError, match="would never fire"):
            run_portfolio(starts=2, fault_plan=plan)


class TestRetryAndQuarantine:
    def test_transient_fault_is_byte_identical_to_fault_free(self):
        base = run_portfolio(starts=4)
        faulted = run_portfolio(
            starts=4, fault_plan=FaultPlan([Fault(1, 1, "raise")])
        )
        assert board(faulted) == board(base)
        assert not faulted.failures

    def test_serial_retry_is_accounted_like_a_worker_retry(self):
        """An inline retry raises the same ``retry`` incident as a
        worker-process one: the run, its events and the retried walk's
        row each count it once."""
        base = run_portfolio(starts=4)
        events = []
        faulted = run_portfolio(
            starts=4,
            on_event=events.append,
            fault_plan=FaultPlan([Fault(2, 0, "raise")]),
        )
        assert board(faulted) == board(base)
        assert faulted.retries == 1
        assert [e.walk_id for e in events if e.status == "retry"] == [2]
        assert [o.retries for o in faulted.leaderboard if o.spec.walk_id == 2] == [1]
        assert "1 chunk retry" in faulted.summary()

    def test_deterministic_fault_quarantines_the_walk(self):
        base = run_portfolio(starts=4)
        result = run_portfolio(
            starts=4,
            fault_plan=FaultPlan([Fault(1, 1, "raise", attempts=None)]),
        )
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.spec.walk_id == 1
        assert failure.reason == "error"
        assert failure.attempts == 3  # 1 + max_retries (default 2)
        assert "FaultInjected" in failure.detail
        assert failure.steps > 0  # chunk 1 failed, chunk 0 landed
        # the survivors' rows are exactly the fault-free rows
        assert board(result) == [row for row in board(base) if row[0] != 1]

    def test_failure_surfaces_in_summary_and_events(self):
        events = []
        result = run_portfolio(
            starts=4,
            on_event=events.append,
            fault_plan=FaultPlan([Fault(1, 0, "raise", attempts=None)]),
        )
        text = result.summary()
        assert "1 failed" in text
        assert "walk 1 [hbtree/1] FAILED (error)" in text
        failed = [e for e in events if e.status == FAILED]
        assert [e.walk_id for e in failed] == [1]

    def test_max_retries_zero_quarantines_first_failure(self):
        result = run_portfolio(
            starts=2,
            max_retries=0,
            fault_plan=FaultPlan([Fault(0, 0, "raise")]),  # transient!
        )
        # with no retries even a transient fault is terminal
        assert len(result.failures) == 1
        assert result.failures[0].attempts == 1

    def test_strict_reraises_the_original_exception_inline(self):
        with pytest.raises(FaultInjected):
            run_portfolio(
                starts=2,
                strict=True,
                fault_plan=FaultPlan([Fault(0, 0, "raise")]),
            )

    def test_every_walk_failing_raises(self):
        with pytest.raises(RuntimeError, match="every walk in the portfolio failed"):
            run_portfolio(
                starts=2,
                fault_plan=FaultPlan(
                    [
                        Fault(0, 0, "raise", attempts=None),
                        Fault(1, 0, "raise", attempts=None),
                    ]
                ),
            )

    def test_rebalance_budget_accounting_under_faults(self):
        """A failed walk forfeits its unspent budget: steps across the
        leaderboard plus steps the failed walks completed never exceed
        the budget, and the degraded run stays deterministic."""
        kwargs = dict(
            starts=4,
            budget=800,
            restart_policy="rebalance",
            fault_plan=FaultPlan([Fault(2, 1, "raise", attempts=None)]),
        )
        a = run_portfolio(**kwargs)
        b = run_portfolio(**kwargs)
        assert board(a) == board(b)
        assert [f.spec.walk_id for f in a.failures] == [2]
        spent = a.total_steps + sum(f.steps for f in a.failures)
        assert spent <= 800

    def test_polish_failure_keeps_the_winner(self):
        """The polish walk rides the fault machinery too: when it is
        quarantined the already-final winner stands."""
        base = run_portfolio(starts=3, budget=500)
        polish = [o for o in base.leaderboard if o.status == "polish"]
        assert polish, "config must leave slack for a polish walk"
        polish_id = polish[0].spec.walk_id
        result = run_portfolio(
            starts=3,
            budget=500,
            fault_plan=FaultPlan([Fault(polish_id, 0, "raise", attempts=None)]),
        )
        assert result.cost == base.cost
        assert [f.spec.walk_id for f in result.failures] == [polish_id]


class TestInvalidKnobs:
    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            PortfolioRunner("miller_opamp", max_retries=-1)

    def test_chunk_timeout_requires_processes(self):
        with pytest.raises(ValueError, match="workers > 1"):
            PortfolioRunner("miller_opamp", chunk_timeout=5.0)

    def test_non_positive_chunk_timeout_rejected(self):
        with pytest.raises(ValueError, match="chunk_timeout"):
            PortfolioRunner("miller_opamp", workers=2, chunk_timeout=0.0)

    def test_negative_max_respawns_rejected(self):
        with pytest.raises(ValueError, match="max_respawns"):
            PortfolioRunner("miller_opamp", workers=2, max_respawns=-1)


class TestProcessSupervision:
    """Spawn-pool failure modes: each test pays real process startup."""

    def test_worker_death_respawns_and_stays_byte_identical(self):
        base = run_portfolio(starts=4)
        faulted = run_portfolio(
            starts=4,
            workers=2,
            on_event=(events := []).append,
            fault_plan=FaultPlan([Fault(2, 0, "die")]),
        )
        assert board(faulted) == board(base)
        assert not faulted.failures
        # the lost chunk was retried (the retry incident is the visible
        # trace of death -> respawn -> re-dispatch)
        assert any(e.walk_id == 2 and e.status == "retry" for e in events)

    def test_hung_chunk_is_killed_by_the_timeout(self):
        base = run_portfolio(starts=4)
        result = run_portfolio(
            starts=4,
            workers=2,
            chunk_timeout=5.0,
            max_retries=0,
            fault_plan=FaultPlan([Fault(3, 0, "hang", attempts=None)]),
        )
        assert len(result.failures) == 1
        assert result.failures[0].reason == "timeout"
        assert result.failures[0].spec.walk_id == 3
        assert board(result) == [row for row in board(base) if row[0] != 3]

    def test_strict_process_failure_names_the_walk(self):
        with pytest.raises(RuntimeError, match="worker failed on walk 0"):
            run_portfolio(
                starts=2,
                workers=2,
                strict=True,
                fault_plan=FaultPlan([Fault(0, 0, "raise")]),
            )

    def test_sigkilled_task_holder_does_not_hang_collect(self):
        """Regression: some workers alive, the lease holder SIGKILLed.

        The coordinator must notice the death (socket EOF), respawn, and
        re-dispatch the lost chunk — ``collect`` historically span
        forever because liveness was only checked when *no* results
        were pending anywhere."""
        spec0 = WalkSpec(0, "miller_opamp", "bstar", 0, FAST)
        spec1 = WalkSpec(1, "miller_opamp", "hbtree", 1, FAST)
        supervisor = _ChunkSupervisor(
            max_retries=2,
            fault_plan=FaultPlan([Fault(0, 0, "hang")]),  # parks the holder
            strict=False,
        )
        executor = RemoteExecutor(None, supervisor, workers=2)
        try:
            executor.dispatch(ChunkTask(spec=spec0, checkpoint=None, max_steps=40))
            executor.dispatch(ChunkTask(spec=spec1, checkpoint=None, max_steps=40))
            first = _collect_with_deadline(executor)  # walk 1: healthy worker
            assert isinstance(first, ChunkResult) and first.walk_id == 1
            holder = next(
                lease.peer.name
                for lease in executor._leases.values()
                if lease.task.spec.walk_id == 0
            )
            os.kill(executor._local[holder].pid, signal.SIGKILL)
            second = _collect_with_deadline(executor)
            # the retry (attempt 1) is not armed, so the chunk lands
            assert isinstance(second, ChunkResult) and second.walk_id == 0
        finally:
            executor.close()

    def test_close_with_sigkilled_workers_does_not_deadlock(self):
        supervisor = _ChunkSupervisor(max_retries=0, fault_plan=None, strict=False)
        executor = RemoteExecutor(None, supervisor, workers=2)
        # the pool listens on a Unix socket in a private directory
        pool_dir = executor._pool_dir
        assert executor._listener.family == socket.AF_UNIX
        assert stat.S_IMODE(os.stat(pool_dir).st_mode) == 0o700
        for process in executor._local.values():
            process.join(timeout=0.1)  # let spawn finish starting
            os.kill(process.pid, signal.SIGKILL)
        started = time.monotonic()
        executor.close()
        assert time.monotonic() - started < 15
        assert not os.path.exists(pool_dir)

    def test_respawn_budget_exhaustion_raises_not_hangs(self):
        """Workers dying faster than the respawn cap must end in the
        all-workers-exited error, never a silent spin."""
        with pytest.raises(RuntimeError, match="all portfolio workers exited"):
            run_portfolio(
                starts=4,
                workers=2,
                max_respawns=1,
                max_retries=5,
                fault_plan=FaultPlan(
                    [
                        Fault(0, 0, "die", attempts=None),
                        Fault(1, 0, "die", attempts=None),
                        Fault(2, 0, "die", attempts=None),
                    ]
                ),
            )


class TestStaleResultEpoch:
    """Satellite regression: results from superseded attempts.

    A re-dispatched chunk (its predecessor timed out, or its worker was
    declared dead) can race the predecessor's late answer.  Every
    dispatch is stamped with its ``(task_id, attempt)`` epoch and the
    coordinator discards any result echoing a stale stamp — counting it
    would double-book the walk's progress and hand the *next* chunk a
    wrong checkpoint.
    """

    def _answer_twice(self, tmp_path, stale):
        """A coordinator on a Unix socket plus one hand-driven fake
        peer, which writes arbitrary (including stale) result frames
        into the exact socket ``collect`` reads: it takes its one lease,
        answers first with the coordinates ``stale(task_id, attempt)``
        and a bogus result, then genuinely.  Returns what ``collect``
        produced and the genuine result."""
        address = str(tmp_path / "c.sock")
        supervisor = _ChunkSupervisor(max_retries=2, fault_plan=None, strict=False)
        executor = RemoteExecutor(address, supervisor)
        box: dict = {}

        def fake_peer() -> None:
            stream = MessageStream(connect_socket(address, timeout=5.0))
            try:
                stream.send("hello", version=PROTOCOL_VERSION, name="fake")
                assert stream.recv(timeout=30.0)[0] == "welcome"
                kind, lease = stream.recv(timeout=30.0)
                assert kind == "task"
                task_id, attempt = lease["task_id"], lease["attempt"]
                bogus = ChunkResult(walk_id=0, checkpoint="NOT A CHECKPOINT")
                stale_id, stale_attempt = stale(task_id, attempt)
                stream.send(
                    "result", task_id=stale_id, walk_id=0,
                    chunk=lease["chunk"], attempt=stale_attempt, result=bogus,
                )
                box["genuine"] = _execute(lease["task"])
                stream.send(
                    "result", task_id=task_id, walk_id=0, chunk=lease["chunk"],
                    attempt=attempt, result=box["genuine"],
                )
            except BaseException as exc:  # surfaced below
                box["exc"] = exc
            finally:
                stream.close()

        peer = threading.Thread(target=fake_peer, daemon=True)
        peer.start()
        try:
            spec = WalkSpec(0, "miller_opamp", "bstar", 0, FAST)
            executor.dispatch(ChunkTask(spec=spec, checkpoint=None, max_steps=40))
            out = _collect_with_deadline(executor)
        finally:
            executor.close()
            peer.join(timeout=30)
        if "exc" in box:
            raise box["exc"]
        return out, box["genuine"]

    def test_stale_attempt_result_is_discarded(self, tmp_path):
        # the predecessor's late answer: same task, superseded epoch
        out, genuine = self._answer_twice(
            tmp_path, lambda task_id, attempt: (task_id, attempt + 1)
        )
        assert isinstance(out, ChunkResult)
        assert out.checkpoint.step == genuine.checkpoint.step
        assert out.checkpoint.best_cost == genuine.checkpoint.best_cost

    def test_stale_task_id_result_is_discarded(self, tmp_path):
        # an answer to a task that was never this dispatch at all
        out, genuine = self._answer_twice(
            tmp_path, lambda task_id, attempt: (task_id + 99, attempt)
        )
        assert isinstance(out, ChunkResult)
        assert out.checkpoint.step == genuine.checkpoint.step

    def test_supervisor_epoch_bookkeeping(self):
        supervisor = _ChunkSupervisor(max_retries=2, fault_plan=None, strict=False)
        chunk = supervisor.begin_chunk(5)
        assert supervisor.is_current(5, chunk, 0)
        assert not supervisor.is_current(5, chunk, 1)  # future attempt
        assert supervisor.record_failure(5)  # attempt 0 burned -> retry
        assert supervisor.is_current(5, chunk, 1)
        assert not supervisor.is_current(5, chunk, 0)  # superseded
        next_chunk = supervisor.begin_chunk(5)
        assert not supervisor.is_current(5, chunk, 1)  # old chunk
        assert supervisor.is_current(5, next_chunk, 0)


def _collect_with_deadline(executor, timeout_s: float = 90.0):
    """Run ``executor.collect()`` under a hard deadline so a supervision
    regression fails the test instead of hanging the suite."""
    box: list = []

    def run() -> None:
        try:
            box.append(executor.collect())
        except BaseException as exc:  # surfaced below
            box.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=timeout_s)
    assert box, f"collect() hung for {timeout_s}s"
    result = box[0]
    if isinstance(result, BaseException):
        raise result
    assert isinstance(result, (ChunkResult, ChunkFailure))
    return result
