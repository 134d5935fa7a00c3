"""Distributed execution tier (repro.parallel.remote).

The contract under test is the tentpole one: a loopback distributed
run — any number of workers, any injected network failure — produces a
leaderboard *byte-identical* to the fault-free serial run, and always
terminates (recovery is bounded by the lease deadline, so every join
here carries a hard timeout).

Two worker harnesses:

* **thread workers** — ``WorkerClient.run()`` on a daemon thread.
  Fast, and exactly the code path a remote process runs; used for the
  socket-level faults (``disconnect``, ``stall-heartbeat``,
  ``duplicate-result``).
* **process workers** — ``run_worker`` in a subprocess.  Required for
  ``die`` (``os._exit`` would take the test process down from a
  thread) and for killing a worker from outside mid-run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.parallel import (
    ChunkTask,
    Fault,
    FaultPlan,
    WalkSpec,
    WorkerClient,
)
from repro.parallel.net import (
    MessageStream,
    bound_address,
    connect_socket,
    format_address,
    listen_socket,
)
from repro.parallel.remote import RemoteExecutor
from repro.parallel.runner import PortfolioRunner, _ChunkSupervisor

CIRCUIT = "gen:n=12,seed=1"
ENGINES = ("bstar", "hbtree")
STARTS = 4
#: fast schedules: whole-portfolio serial run ~0.1s
FAST = (("alpha", 0.7), ("steps_per_epoch", 20), ("t_final", 1e-2))

#: short lease so stall/expiry tests stay fast; heartbeats well inside
LEASE_S = 1.5
#: hard cap on any distributed run in this file — a run that needs
#: longer has hung, which is itself the bug being tested for
JOIN_S = 120.0


def board(result):
    return [
        (o.spec.walk_id, o.best_cost, o.ref_cost, o.status)
        for o in result.leaderboard
    ]


@pytest.fixture(scope="module")
def serial_board():
    result = PortfolioRunner(
        CIRCUIT, ENGINES, starts=STARTS, overrides=FAST
    ).run()
    return board(result)


def _runner(**kwargs):
    return PortfolioRunner(
        CIRCUIT, ENGINES, starts=STARTS, overrides=FAST, **kwargs
    )


def _start_coordinator(listen=("127.0.0.1", 0), **kwargs):
    """Run a runner listening on ``listen`` on a thread; returns (bound
    address, result box, thread).  The box holds ``res`` or ``exc`` at
    join."""
    ready = threading.Event()
    box: dict = {}

    def on_listen(address) -> None:
        box["addr"] = address
        ready.set()

    runner = _runner(listen=listen, on_listen=on_listen, **kwargs)

    def drive() -> None:
        try:
            box["res"] = runner.run()
        except BaseException as exc:  # surfaced by the test at join
            box["exc"] = exc
            ready.set()

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    assert ready.wait(30), "coordinator never bound its socket"
    if "exc" in box:
        raise box["exc"]
    return box["addr"], box, thread


def _join(box, thread):
    thread.join(timeout=JOIN_S)
    assert not thread.is_alive(), "distributed run hung past the join cap"
    if "exc" in box:
        raise box["exc"]
    return box["res"]


def _thread_worker(address, name):
    thread = threading.Thread(
        target=WorkerClient(address, name=name).run, daemon=True
    )
    thread.start()
    return thread


def _spawn_worker(address, name) -> subprocess.Popen:
    """One real worker process (required for die/kill scenarios)."""
    code = (
        "import sys\n"
        "from repro.parallel.remote import run_worker\n"
        f"sys.exit(run_worker({format_address(address)!r}, name={name!r}))\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-c", code], env=env)


def _reap(procs) -> None:
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


class TestLoopbackIdentity:
    def test_two_thread_workers_match_serial(self, serial_board, tmp_path):
        # TCP loopback, and the text form of a Unix socket address
        for listen in (("127.0.0.1", 0), f"unix:{tmp_path / 'c.sock'}"):
            addr, box, thread = _start_coordinator(
                listen, lease_timeout=LEASE_S
            )
            for i in range(2):
                _thread_worker(addr, f"w{i}")
            assert board(_join(box, thread)) == serial_board

    def test_two_process_workers_match_serial(self, serial_board):
        addr, box, thread = _start_coordinator(lease_timeout=LEASE_S)
        procs = [_spawn_worker(addr, f"p{i}") for i in range(2)]
        try:
            result = _join(box, thread)
        finally:
            _reap(procs)
        assert board(result) == serial_board
        # orderly shutdown: both workers got the shutdown frame
        assert [p.returncode for p in procs] == [0, 0]

    def test_single_worker_matches_serial(self, serial_board):
        # worker count is scheduling, never arithmetic
        addr, box, thread = _start_coordinator(lease_timeout=LEASE_S)
        _thread_worker(addr, "solo")
        assert board(_join(box, thread)) == serial_board


class TestNetworkFaults:
    @pytest.mark.parametrize(
        "kind", ["disconnect", "stall-heartbeat", "duplicate-result"]
    )
    def test_fault_recovers_byte_identically(self, kind, serial_board):
        plan = FaultPlan([Fault(1, 1, kind)])
        addr, box, thread = _start_coordinator(
            lease_timeout=LEASE_S, fault_plan=plan
        )
        for i in range(2):
            _thread_worker(addr, f"w{i}")
        result = _join(box, thread)
        assert board(result) == serial_board
        # recovery, not quarantine: the retried chunk ran clean
        assert not result.failures

    def test_stall_heartbeat_recovery_is_lease_bounded(self, serial_board):
        # the lease must expire (and the chunk re-dispatch) while the
        # stalled worker is still silent — the run finishes well before
        # the staller would have answered on its own
        plan = FaultPlan([Fault(0, 1, "stall-heartbeat")])
        started = time.monotonic()
        addr, box, thread = _start_coordinator(
            lease_timeout=LEASE_S, fault_plan=plan
        )
        for i in range(2):
            _thread_worker(addr, f"w{i}")
        result = _join(box, thread)
        elapsed = time.monotonic() - started
        assert board(result) == serial_board
        # stall sleeps LEASE_S * 1.5 and the serial run is ~0.1s: a run
        # gated on the *lease* finishes around LEASE_S; one gated on
        # the staller could not finish before its sleep ends.  The cap
        # is loose (CI boxes are slow) but still excludes unbounded
        # waiting on a partitioned worker.
        assert elapsed < JOIN_S / 2

    def test_die_fault_under_process_workers(self, serial_board):
        # the worker holding walk 1 chunk 1 os._exit()s mid-lease; EOF
        # reclaims the lease and the survivor replays the chunk
        plan = FaultPlan([Fault(1, 1, "die")])
        addr, box, thread = _start_coordinator(
            lease_timeout=LEASE_S, fault_plan=plan
        )
        procs = [_spawn_worker(addr, f"p{i}") for i in range(2)]
        try:
            result = _join(box, thread)
        finally:
            _reap(procs)
        assert board(result) == serial_board
        assert not result.failures

    def test_random_fault_plans_always_converge(self, serial_board):
        """Property-style sweep: random mixes of die / disconnect /
        stall-heartbeat across a loopback 2-worker run never change the
        leaderboard.  Seeded, so a failure names its plan exactly."""
        import random as random_mod

        kinds = ("die", "disconnect", "stall-heartbeat")
        for seed in range(3):
            rng = random_mod.Random(seed)
            sites = rng.sample(
                [(w, c) for w in range(STARTS) for c in range(1, 4)],
                k=rng.randint(1, 3),
            )
            plan = FaultPlan(
                [Fault(w, c, rng.choice(kinds)) for w, c in sites]
            )
            addr, box, thread = _start_coordinator(
                lease_timeout=LEASE_S, fault_plan=plan
            )
            procs = [_spawn_worker(addr, f"p{i}") for i in range(2)]
            try:
                result = _join(box, thread)
            finally:
                _reap(procs)
            assert board(result) == serial_board, f"plan diverged: {plan!r}"
            assert not result.failures, f"plan quarantined a walk: {plan!r}"


class TestDegradation:
    def test_no_workers_degrades_to_inline(self, serial_board):
        # nobody ever connects: after the fallback grace the
        # coordinator executes every chunk itself — slower, never wrong
        result = _runner(listen=("127.0.0.1", 0), lease_timeout=0.3).run()
        assert board(result) == serial_board

    def test_killed_worker_mid_run_recovers(self, serial_board):
        # SIGKILL one of two workers once chunks are flowing: its lease
        # reclaims on EOF and the survivor finishes the run
        chunks_seen = threading.Event()
        events = []

        def on_event(event) -> None:
            events.append(event)
            if len(events) >= 2:
                chunks_seen.set()

        addr, box, thread = _start_coordinator(
            lease_timeout=LEASE_S, on_event=on_event
        )
        procs = [_spawn_worker(addr, f"p{i}") for i in range(2)]
        try:
            assert chunks_seen.wait(60), "no chunks completed"
            procs[0].send_signal(signal.SIGKILL)
            result = _join(box, thread)
        finally:
            _reap(procs)
        assert board(result) == serial_board
        assert not result.failures

    def test_sole_worker_killed_falls_back_inline(self, serial_board):
        # the only worker dies and never returns: the run must degrade
        # to coordinator-side execution rather than hang
        chunks_seen = threading.Event()

        def on_event(event) -> None:
            chunks_seen.set()

        addr, box, thread = _start_coordinator(
            lease_timeout=0.5, on_event=on_event
        )
        proc = _spawn_worker(addr, "doomed")
        try:
            assert chunks_seen.wait(60), "no chunks completed"
            proc.send_signal(signal.SIGKILL)
            result = _join(box, thread)
        finally:
            _reap([proc])
        assert board(result) == serial_board


class TestHandshake:
    def test_wrong_version_peer_is_rejected(self):
        """A peer speaking a different protocol version gets a reject
        frame at hello time, and the run proceeds without it."""
        supervisor = _ChunkSupervisor(2, None, False)
        executor = RemoteExecutor(
            ("127.0.0.1", 0), supervisor, lease_timeout=LEASE_S
        )
        try:
            address = bound_address(executor._listener)
            spec = WalkSpec(0, CIRCUIT, "bstar", 0, FAST)
            executor.dispatch(
                ChunkTask(spec=spec, checkpoint=None, max_steps=20)
            )
            box: dict = {}
            collector = threading.Thread(
                target=lambda: box.update(out=executor.collect()), daemon=True
            )
            collector.start()
            # the imposter: right framing, wrong version
            imposter = MessageStream(connect_socket(address, timeout=5.0))
            imposter.send("hello", version=9999, name="imposter")
            kind, payload = imposter.recv(timeout=10.0)
            assert kind == "reject"
            assert "9999" in payload["reason"]
            imposter.close()
            # a well-versioned worker still completes the chunk
            _thread_worker(address, "honest")
            collector.join(timeout=JOIN_S)
            assert not collector.is_alive()
            assert box["out"].walk_id == 0
        finally:
            executor.close()

    def test_rejected_client_exits_with_code_2(self):
        """A coordinator that rejects the handshake ends the client
        with the distinctive version-mismatch exit code."""
        server = listen_socket(("127.0.0.1", 0))

        def coordinator() -> None:
            sock, _ = server.accept()
            stream = MessageStream(sock)
            assert stream.recv(timeout=10.0)[0] == "hello"
            stream.send("reject", reason="protocol version mismatch")
            stream.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            client = WorkerClient(
                bound_address(server), name="old", max_reconnects=0
            )
            assert client.run() == 2
        finally:
            thread.join(timeout=10)
            server.close()


class TestValidation:
    def test_listen_excludes_local_workers(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            _runner(listen=("127.0.0.1", 0), workers=4)

    def test_network_faults_need_listen(self):
        plan = FaultPlan([Fault(0, 0, "disconnect")])
        with pytest.raises(ValueError, match="listen"):
            _runner(fault_plan=plan, workers=2)

    def test_remote_hang_needs_chunk_timeout(self):
        # a hung chunk still heartbeats, remote or local; only the hard
        # per-chunk deadline can revoke its lease
        plan = FaultPlan([Fault(0, 0, "hang")])
        for executor in (dict(listen=("127.0.0.1", 0)), dict(workers=2)):
            with pytest.raises(ValueError, match="chunk_timeout"):
                _runner(fault_plan=plan, **executor)

    def test_heartbeat_must_beat_the_lease(self):
        with pytest.raises(ValueError, match="shorter than lease_timeout"):
            _runner(
                listen=("127.0.0.1", 0),
                lease_timeout=1.0,
                heartbeat_interval=1.0,
            )

    def test_chunk_timeout_allowed_with_listen(self):
        # previously chunk_timeout required local workers; the remote
        # tier is the other executor that can preempt a chunk
        runner = _runner(listen=("127.0.0.1", 0), chunk_timeout=30.0)
        assert runner is not None

    def test_die_allowed_with_listen(self):
        plan = FaultPlan([Fault(0, 0, "die")])
        runner = _runner(fault_plan=plan, listen=("127.0.0.1", 0))
        assert runner is not None
