"""Multi-start placement portfolio across processes.

:class:`PortfolioRunner` fans one placement problem out over many
independent annealing walks — across engines, across seeds, across
worker processes — and returns the best placement plus a full
leaderboard.  The design constraints, in order:

**Spawn safety.**  Workers never unpickle a live placer.  A walk is a
:class:`~repro.parallel.jobs.WalkSpec` — ``(circuit name, engine name,
seed, config overrides)`` — and each worker rebuilds circuit + placer +
engine from the spec (memoized per process), then drives it through the
checkpoint API of :class:`~repro.anneal.IncrementalAnnealer`.

**Chunked walks.**  A walk executes as a chain of
:class:`~repro.parallel.jobs.ChunkTask`\\ s, each advancing the walk by
``checkpoint_every`` steps and freezing it into a pickled
:class:`~repro.anneal.WalkCheckpoint`.  Chunk completions stream back
to the coordinator as progress events; chunk boundaries never change
a trajectory (chunked == monolithic, bit for bit), so the runner can
slice walks for streaming and restart policies without touching the
answer.

**Determinism.**  A walk's trajectory depends only on its spec — never
on which worker ran it or when.  Restart decisions happen at round
barriers and rank walks by ``(best_cost, walk_id)``; the leaderboard is
sorted by the same total order.  Same specs -> same winner, regardless
of worker count or OS scheduling.

**Two executors.**  ``workers <= 1`` runs chunks in-process
(:class:`_InlineExecutor`, the serial reference every identity test
compares against).  Everything else runs under one supervision model,
:class:`~repro.parallel.remote.RemoteExecutor`: remote peers join a
``listen`` address, and ``workers > 1`` spawns that many local worker
processes onto a private Unix socket.  Either way each dispatched
chunk is a lease renewed by heartbeats and stamped with its
``(walk, chunk, attempt)`` epoch.

**Fault tolerance.**  Chunk execution is a pure function of
``(spec, checkpoint)``, so every failure is recoverable by re-running:
a worker's death or silence revokes its lease and re-dispatches the
chunk, and a dead local worker is respawned (up to a cap); a failing
chunk is retried up to ``max_retries`` and a chunk that fails
deterministically — or exceeds ``chunk_timeout`` wall-clock —
quarantines its walk (status ``failed``, reported in
:attr:`PortfolioResult.failures`) while the survivors finish the run.
``strict=True`` restores fail-fast semantics.  An optional ``run_dir``
snapshots every walk checkpoint plus the coordinator state (atomic
write-rename, versioned manifest — see :mod:`repro.parallel.persist`)
so :meth:`PortfolioRunner.resume` continues an interrupted run
bit-identically.  All of it is exercised
deterministically through :class:`~repro.parallel.faults.FaultPlan`.

**Restart policies.**

* ``independent`` — every start runs its full schedule; classic
  multi-start annealing.
* ``rebalance`` — at every checkpoint round the worst half of the
  active walks is killed and their *unspent* step budget is pooled and
  handed to fresh seeds (with schedules compressed to the new budget),
  so step budget chases the promising region of the portfolio instead
  of being buried with walks that started badly.
"""

from __future__ import annotations

import atexit
import os
import random
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from math import ceil
from typing import Callable, Iterable

from ..anneal import AnnealingStats, WalkCheckpoint
from ..circuit import Circuit
from ..cost import reference_model
from ..placers import ENGINE_NAMES, build_config, validate_engines
from ..workloads import resolve_workload
from .engines import (
    build_placer,
    compress_overrides,
    verify_walk_checkpoint,
    walk_chunk_count,
    walk_total_steps,
)
from .faults import DIE_EXIT_CODE, FaultInjected, FaultPlan
from .jobs import (
    FAILED,
    FINISHED,
    KILLED,
    ChunkFailure,
    ChunkResult,
    ChunkTask,
    PortfolioResult,
    ProgressEvent,
    WalkFailure,
    WalkOutcome,
    WalkSpec,
)
from .net import parse_address
from .persist import FailureRecord, RunDir, RunDirError, RunState, WalkRecord
from ..telemetry import NULL_RECORDER, TraceConfig, TraceRecorder

RESTART_POLICIES = ("independent", "rebalance")

#: checkpoint rounds per walk when ``checkpoint_every`` is not given
_DEFAULT_ROUNDS = 4

#: initial temperature of the budget-slack polish walk: cold enough to
#: refine rather than re-explore, warm enough to cross small barriers
_POLISH_T0 = 0.05

#: seed offset separating polish draws from every sweep seed
_POLISH_SEED_OFFSET = 100_003

#: how long a ``hang`` fault sleeps before giving up and raising (a
#: chunk timeout is expected to kill the worker long before this)
_HANG_FAULT_S = 3600.0

#: default seconds a chunk lease survives without a heartbeat
_DEFAULT_LEASE_TIMEOUT = 10.0


# -- worker side --------------------------------------------------------------
#
# Everything below runs identically in a worker process and in the
# in-process executor (workers <= 1), so parallel and serial runs
# share one execution path and one answer.

#: per-*thread* placer/engine memo: (circuit, engine, overrides) -> pair.
#: Thread-local because engines are mutable (``engine.reset`` per
#: chunk): loopback worker *threads* (the remote tier's test harness)
#: executing two walks of the same engine family through one shared
#: engine object would corrupt both trajectories.  Worker processes are
#: single-threaded, so for them this is exactly the old per-process
#: cache.
_BUILD_LOCAL = threading.local()


def _placer_engine_for(spec: WalkSpec):
    """Rebuild (memoized) the placer and incremental engine for a spec.

    The cache key drops the seed: a placer's walk API touches its
    config's seed nowhere (randomness comes from the RNG the walk
    carries), so walks differing only by seed share one rebuild.
    """
    cache = getattr(_BUILD_LOCAL, "cache", None)
    if cache is None:
        cache = _BUILD_LOCAL.cache = {}
    key = (spec.circuit, spec.engine, spec.overrides)
    pair = cache.get(key)
    if pair is None:
        circuit = _circuit_for(spec.circuit)
        placer = build_placer(circuit, spec)
        pair = (placer, placer.engine())
        cache[key] = pair
    return pair


_CIRCUIT_CACHE: dict[str, Circuit] = {}


def _circuit_for(name: str) -> Circuit:
    circuit = _CIRCUIT_CACHE.get(name)
    if circuit is None:
        circuit = _CIRCUIT_CACHE[name] = resolve_workload(name)
    return circuit


#: per-process trace recorders, one per (directory, sample_interval) —
#: every chunk this process executes for the same trace config appends
#: to the same ``worker-{pid}.jsonl`` stream (one header per file)
_TRACE_RECORDERS: dict[tuple[str, int], TraceRecorder] = {}
_TRACE_RECORDERS_LOCK = threading.Lock()


def _trace_recorder(config: TraceConfig) -> TraceRecorder:
    key = (config.directory, config.sample_interval)
    with _TRACE_RECORDERS_LOCK:
        recorder = _TRACE_RECORDERS.get(key)
        if recorder is None:
            recorder = _TRACE_RECORDERS[key] = TraceRecorder(
                config.directory, sample_interval=config.sample_interval
            )
        return recorder


@atexit.register
def _close_trace_recorders() -> None:
    # streams are line-buffered so nothing is lost either way; closing
    # at exit just releases the handles cleanly
    with _TRACE_RECORDERS_LOCK:
        for recorder in _TRACE_RECORDERS.values():
            recorder.close()
        _TRACE_RECORDERS.clear()


def _trigger_fault(task: ChunkTask) -> None:
    """Act out the fault the coordinator armed on this task."""
    if task.fault == "raise":
        raise FaultInjected(
            f"injected chunk failure on walk {task.spec.walk_id}"
        )
    if task.fault == "die":
        # the OOM-kill / segfault path: no exception, no cleanup — the
        # worker vanishes while owning the chunk
        os._exit(DIE_EXIT_CODE)
    if task.fault == "hang":
        time.sleep(_HANG_FAULT_S)
        raise FaultInjected(
            f"hang fault on walk {task.spec.walk_id} expired without a "
            "chunk timeout killing the worker"
        )
    raise ValueError(f"unknown fault kind {task.fault!r}")


def _execute(task: ChunkTask) -> ChunkResult:
    """Run one chunk of a walk (fresh or resumed) and freeze it again."""
    if task.fault is not None:
        _trigger_fault(task)
    spec = task.spec
    placer, engine = _placer_engine_for(spec)
    rng = random.Random(spec.seed)
    # the placer picks the driver matched to its engine tier (e.g. the
    # batched annealer for a vector_tier config); all drivers share the
    # IncrementalAnnealer checkpoint contract
    annealer = placer.annealer(engine, rng)
    if task.trace is not None:
        start_step = 0 if task.checkpoint is None else task.checkpoint.step
        annealer.set_recorder(
            _trace_recorder(task.trace).bind(
                walk=spec.walk_id, engine=spec.engine, chunk_start=start_step
            )
        )
    else:
        # engines are memoized per process: make sure a traced run in
        # this process earlier doesn't leave stats collection armed
        annealer.set_recorder(None)
    started = time.perf_counter()
    if task.checkpoint is None:
        # same draw order as a placer's own run(): initial state first,
        # then warmup — a 1-start portfolio walks the exact run() walk
        engine.reset(placer.initial_state(rng))
        checkpoint = annealer.begin()
        checkpoint = annealer.advance(
            checkpoint, task.max_steps, _engine_synced=True
        )
    else:
        checkpoint = annealer.advance(task.checkpoint, task.max_steps)
    elapsed = time.perf_counter() - started
    return ChunkResult(
        walk_id=spec.walk_id,
        checkpoint=checkpoint,
        elapsed_s=round(elapsed, 6),
    )


# -- supervision --------------------------------------------------------------


class _ChunkSupervisor:
    """Per-walk chunk/attempt bookkeeping shared by both executors.

    Tracks which chunk of each walk is in flight and how many attempts
    the current chunk has burned, arms :class:`FaultPlan` faults at
    dispatch time, and decides retry vs quarantine.  Purely
    coordinator-side: the worker protocol never sees any of it.
    """

    def __init__(
        self,
        max_retries: int,
        fault_plan: FaultPlan | None,
        strict: bool,
    ) -> None:
        self.strict = strict
        self.max_retries = 0 if strict else max_retries
        self._plan = fault_plan
        self._chunk: dict[int, int] = {}
        self._attempts: dict[int, int] = {}

    def begin_chunk(self, walk_id: int) -> int:
        """A new chunk of ``walk_id`` enters the executor; returns its
        0-based chunk index and resets the attempt counter."""
        index = self._chunk.get(walk_id, -1) + 1
        self._chunk[walk_id] = index
        self._attempts[walk_id] = 0
        return index

    def preset_chunks(self, walk_id: int, completed: int) -> None:
        """Seed the chunk counter for a walk restored mid-run, so fault
        plans keep addressing absolute chunk indices after a resume."""
        self._chunk[walk_id] = completed - 1

    def arm(self, task: ChunkTask, chunk_index: int) -> ChunkTask:
        """Attach the planned fault (if any) for this execution attempt."""
        if self._plan is None:
            return task
        kind = self._plan.fault_for(
            task.spec.walk_id, chunk_index, self._attempts[task.spec.walk_id]
        )
        return task if kind is None else replace(task, fault=kind)

    def record_failure(self, walk_id: int) -> bool:
        """Count one failed attempt; ``True`` means retry, ``False``
        means the chunk is out of retries (quarantine the walk)."""
        attempts = self._attempts.get(walk_id, 0) + 1
        self._attempts[walk_id] = attempts
        return attempts <= self.max_retries

    def attempts(self, walk_id: int) -> int:
        return self._attempts.get(walk_id, 0)

    def is_current(self, walk_id: int, chunk_index: int, attempt: int) -> bool:
        """Is ``(walk, chunk, attempt)`` the epoch currently in flight?

        A result stamped with any *other* epoch is stale — it belongs
        to an execution that was already superseded (retried, timed
        out, lease-revoked) — and must be discarded, never counted as
        progress.
        """
        return (
            self._chunk.get(walk_id) == chunk_index
            and self._attempts.get(walk_id, 0) == attempt
        )


def resolve_chunk_failure(
    supervisor: _ChunkSupervisor,
    task: ChunkTask,
    chunk_index: int,
    reason: str,
    detail: str,
    requeue: Callable[[ChunkTask, int], None],
    incident: Callable[[int | None, str, str], None],
) -> ChunkFailure | None:
    """One failed execution attempt, resolved the same way everywhere.

    Shared by both executors (inline and lease-supervised): under
    ``strict`` the original failure aborts the run; otherwise the
    attempt is counted and the chunk is either requeued for retry
    (``None``) or the walk is given its terminal :class:`ChunkFailure`.
    """
    walk_id = task.spec.walk_id
    if supervisor.strict:
        raise RuntimeError(f"worker failed on walk {walk_id}:\n{detail}")
    if supervisor.record_failure(walk_id):
        incident(walk_id, "retry", detail)
        requeue(task, chunk_index)
        return None
    return ChunkFailure(
        walk_id=walk_id,
        reason=reason,
        detail=detail,
        attempts=supervisor.attempts(walk_id),
    )


# -- executors ----------------------------------------------------------------


class _InlineExecutor:
    """Serial executor: dispatch enqueues, collect runs one task.

    FIFO order makes serial runs reproducible step for step; because
    trajectories are scheduling-independent anyway, its results are
    identical to the socket executor's.  A failed attempt resolves
    through :func:`resolve_chunk_failure`, as in worker processes
    (same retry and quarantine rules, same ``retry`` incidents);
    ``hang``/``die`` faults and chunk timeouts need a real process to
    kill, so the runner rejects them for in-process execution.
    """

    def __init__(
        self,
        supervisor: _ChunkSupervisor,
        incident: Callable[[int | None, str, str], None],
    ) -> None:
        self._supervisor = supervisor
        self._incident = incident
        self._queue: deque[tuple[ChunkTask, int]] = deque()

    def dispatch(self, task: ChunkTask) -> None:
        self._queue.append(
            (task, self._supervisor.begin_chunk(task.spec.walk_id))
        )

    def collect(self) -> ChunkResult | ChunkFailure:
        supervisor = self._supervisor
        while True:
            task, chunk_index = self._queue.popleft()
            try:
                return _execute(supervisor.arm(task, chunk_index))
            except Exception:
                if supervisor.strict:
                    raise  # today's fail-fast: the original traceback
                failure = resolve_chunk_failure(
                    supervisor, task, chunk_index, "error",
                    traceback.format_exc(), self._requeue, self._incident,
                )
                if failure is not None:
                    return failure

    def _requeue(self, task: ChunkTask, chunk_index: int) -> None:
        # the retry runs next, ahead of every other queued chunk
        self._queue.appendleft((task, chunk_index))

    def close(self) -> None:
        self._queue.clear()


# -- coordinator --------------------------------------------------------------


@dataclass
class _Walk:
    """Coordinator-side bookkeeping for one walk."""

    spec: WalkSpec
    total_steps: int
    chunk: int
    checkpoint: WalkCheckpoint | None = None
    #: finalized placement + reference cost of the best state, memoized
    #: per best_cost value (kill rounds rank walks every round; only
    #: walks whose best actually changed repack)
    ref_cost: float = float("inf")
    ref_placement: object = None
    _ref_at: float | None = None
    #: summed worker-measured chunk wall-clock (volatile; telemetry only)
    elapsed_s: float = 0.0
    #: chunk retry incidents this walk consumed
    retries: int = 0


class PortfolioRunner:
    """Fan a placement job out over a portfolio of annealing walks.

    Parameters
    ----------
    circuit:
        Workload *name* resolved through
        :func:`repro.workloads.resolve_workload` — a built-in
        (``miller_opamp``), a generated family (``gen:n=500,seed=7``)
        or an on-disk benchmark (``file:bench.blocks``).  A name, not
        an object, so the runner itself is spawn-safe: workers
        re-resolve the string.
    engines:
        Engine names to cycle starts over (default: all four of
        ``bstar`` / ``hbtree`` / ``seqpair`` / ``slicing``).
    starts:
        Number of walks; walk *i* runs ``engines[i % len(engines)]``
        with seed ``seeds[i]``.
    workers:
        ``<= 1`` runs in-process (deterministic serial execution, no
        multiprocessing); ``N > 1`` spawns ``N`` local worker processes,
        which join the run over a private Unix socket and execute
        chunks under the same leases as remote workers.
    seeds:
        Explicit seed sweep (defaults to ``base_seed + i``).  Restart
        policies draw fresh seeds after the sweep.
    budget:
        Total annealing steps across the whole portfolio.  When given,
        each start's schedule is compressed to ``budget // starts``
        steps; when ``None`` every start runs its engine's full
        schedule.  (Warmup sampling — 32 proposals per walk, exactly as
        in a single :meth:`run`-style anneal — is outside the budget.)
    restart_policy:
        ``"independent"`` or ``"rebalance"`` (see module docstring).
    checkpoint_every:
        Steps per chunk (progress granularity, and the kill/respawn
        cadence under ``rebalance``).  Default: a quarter of the walk's
        schedule.
    overrides:
        Config overrides applied to every walk (e.g. schedule knobs).
    on_event:
        Callback receiving a :class:`ProgressEvent` after every chunk,
        kill, spawn and supervision incident — the streamed per-worker
        progress feed.
    max_retries:
        Execution attempts a chunk gets beyond the first before its
        walk is quarantined (default 2; ignored under ``strict``).
    chunk_timeout:
        Wall-clock seconds a chunk may run before its lease is revoked
        (a local worker is killed and respawned) and the attempt counts
        as failed.  Requires ``workers > 1`` or a ``listen`` address
        (in-process execution cannot preempt itself).
    strict:
        Fail-fast semantics: the first chunk error aborts the whole
        run (no retries, no quarantine) exactly as before the
        fault-tolerant executor existed.
    max_respawns:
        Cap on local worker respawns per run (default ``2 * workers``).
    run_dir:
        Directory to snapshot the run into (see
        :mod:`repro.parallel.persist`); must not already hold a run.
        :meth:`resume` continues from it bit-identically.
    fault_plan:
        Deterministic fault injection for tests/CI (see
        :mod:`repro.parallel.faults`).  ``hang``/``die`` faults need
        ``workers > 1`` or a ``listen`` address, and ``hang`` also a
        ``chunk_timeout``; network faults need ``listen``.
    listen:
        Address to serve the distributed execution tier on —
        ``"host:port"`` / ``"unix:/path.sock"`` (or the parsed form).
        Remote workers started with ``repro worker --connect`` join the
        run and execute chunks under leases renewed by heartbeats (see
        :mod:`repro.parallel.remote`); the leaderboard stays
        byte-identical to a serial run.  Mutually exclusive with
        ``workers > 1`` — remote peers replace the local pool, and the
        coordinator degrades to executing chunks itself if every peer
        vanishes.
    lease_timeout:
        Seconds a dispatched chunk's lease survives without a
        heartbeat from its worker, local or remote, before it is
        revoked and the chunk is re-dispatched (default 10).
    heartbeat_interval:
        Seconds between worker heartbeats (default: a quarter of the
        lease timeout); must be shorter than ``lease_timeout``.
    on_listen:
        Callback receiving the bound listen address (host/port
        resolved, so ``port 0`` becomes the real ephemeral port; for a
        local pool, its private socket) the moment the coordinator
        starts serving — the handle workers need to connect.
    trace:
        Telemetry flight-recorder destination: a directory path (or a
        full :class:`~repro.telemetry.TraceConfig`) to write
        ``repro/trace-v1`` JSONL streams into — ``coordinator.jsonl``
        plus one ``worker-<pid>.jsonl`` per process that executes
        chunks, local or remote.  Pure observation: a traced run's
        trajectories, leaderboard and winner are byte-identical to an
        untraced run (read back with ``repro trace report``).  Default
        off.
    """

    def __init__(
        self,
        circuit: str,
        engines: Iterable[str] | None = None,
        *,
        starts: int = 8,
        workers: int = 0,
        base_seed: int = 0,
        seeds: Iterable[int] | None = None,
        budget: int | None = None,
        restart_policy: str = "independent",
        checkpoint_every: int | None = None,
        overrides: tuple[tuple[str, object], ...] = (),
        on_event: Callable[[ProgressEvent], None] | None = None,
        max_retries: int = 2,
        chunk_timeout: float | None = None,
        strict: bool = False,
        max_respawns: int | None = None,
        run_dir: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
        listen: "str | tuple[str, int] | None" = None,
        lease_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        on_listen: Callable[[object], None] | None = None,
        trace: "TraceConfig | str | os.PathLike | None" = None,
    ) -> None:
        if starts < 1:
            raise ValueError("starts must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if restart_policy not in RESTART_POLICIES:
            raise ValueError(
                f"unknown restart policy {restart_policy!r}; "
                f"try: {', '.join(RESTART_POLICIES)}"
            )
        if budget is not None and budget < starts:
            raise ValueError("budget must allow at least one step per start")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if isinstance(listen, str):
            listen = parse_address(listen)
        if listen is not None and workers > 1:
            raise ValueError(
                "listen and workers > 1 are mutually exclusive: remote "
                "peers replace the local worker pool"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (seconds)")
        if chunk_timeout is not None and workers <= 1 and listen is None:
            raise ValueError(
                "chunk_timeout requires workers > 1 or a listen address: "
                "in-process execution cannot preempt a running chunk"
            )
        if lease_timeout is None:
            lease_timeout = _DEFAULT_LEASE_TIMEOUT
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive (seconds)")
        if heartbeat_interval is None:
            heartbeat_interval = lease_timeout / 4.0
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (seconds)")
        if heartbeat_interval >= lease_timeout:
            raise ValueError(
                f"heartbeat_interval ({heartbeat_interval:g}s) must be "
                f"shorter than lease_timeout ({lease_timeout:g}s), or every "
                "lease expires between heartbeats"
            )
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if fault_plan is not None:
            if fault_plan.needs_processes and workers <= 1 and listen is None:
                raise ValueError(
                    "fault plans with 'hang' or 'die' faults need workers > 1 "
                    "or a listen address: there is no worker process to kill "
                    "in-process"
                )
            if fault_plan.needs_network and listen is None:
                raise ValueError(
                    "network fault plans (disconnect / stall-heartbeat / "
                    "duplicate-result) need a listen address: there is no "
                    "socket to abuse locally"
                )
            if fault_plan.has_kind("hang") and chunk_timeout is None:
                raise ValueError(
                    "a 'hang' fault needs a chunk_timeout: a hung worker "
                    "still heartbeats, so only the hard per-chunk deadline "
                    "can revoke its lease"
                )
        self._circuit_name = circuit
        # fail fast on unknown names; the coordinator cache keeps the
        # built circuit for run() (sized circuits cost ~1s to rebuild)
        _circuit_for(circuit)
        self._engines = validate_engines(
            tuple(engines) if engines is not None else ENGINE_NAMES
        )
        self._starts = starts
        self._workers = workers
        self._seeds = list(seeds) if seeds is not None else [
            base_seed + i for i in range(starts)
        ]
        if len(self._seeds) < starts:
            raise ValueError(f"need {starts} seeds, got {len(self._seeds)}")
        self._budget = budget
        self._policy = restart_policy
        self._checkpoint_every = checkpoint_every
        self._overrides = tuple(overrides)
        self._on_event = on_event
        self._max_retries = max_retries
        self._chunk_timeout = chunk_timeout
        self._strict = strict
        self._max_respawns = max_respawns
        self._run_dir = RunDir(run_dir) if run_dir is not None else None
        self._fault_plan = fault_plan
        self._listen = listen
        self._lease_timeout = lease_timeout
        self._heartbeat_interval = heartbeat_interval
        self._on_listen = on_listen
        if trace is not None and not isinstance(trace, TraceConfig):
            trace = TraceConfig(directory=os.fspath(trace))
        self._trace = trace
        #: the coordinator's own stream; a live TraceRecorder only
        #: inside run() when tracing is on
        self._recorder = NULL_RECORDER
        self._incident_counts: dict[str, int] = {}
        #: set by :meth:`resume` before run(); ``None`` for fresh runs
        self._resume_state: RunState | None = None
        self._failures: list[WalkFailure] = []
        self._run_state: RunState | None = None
        self._live_walks: dict[int, _Walk] = {}

    # -- public ---------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        run_dir: str | os.PathLike,
        *,
        workers: int | None = None,
        on_event: Callable[[ProgressEvent], None] | None = None,
        max_retries: int = 2,
        chunk_timeout: float | None = None,
        strict: bool = False,
        max_respawns: int | None = None,
        fault_plan: FaultPlan | None = None,
        listen: "str | tuple[str, int] | None" = None,
        lease_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        on_listen: Callable[[object], None] | None = None,
        allow_topology_change: bool = False,
        trace: "TraceConfig | str | os.PathLike | None" = None,
    ) -> "PortfolioRunner":
        """Rebuild a runner from a persisted run directory.

        The run configuration (circuit, engines, seeds, budget, policy,
        overrides) comes from the manifest; execution-only knobs
        (retries, timeouts, event callback) may be overridden — they
        cannot change any answer.  The executor *topology* (transport
        and worker count) is part of the manifest too, and a resume
        requesting a different one is rejected: continuing a run under
        a silently different topology is how "it resumed fine on my
        laptop" bugs are born.  Pass ``allow_topology_change=True`` to
        deliberately move a run (results stay bit-identical — topology
        never touches a trajectory — which is exactly why the switch
        must be explicit, not accidental).  Calling :meth:`run` on the
        result continues the interrupted run and produces a
        :class:`PortfolioResult` bit-identical to an uninterrupted run
        of the same configuration.
        """
        state = RunDir(run_dir).load()
        transport = "remote" if listen is not None else "local"
        if not allow_topology_change:
            if transport != state.transport:
                raise RunDirError(
                    f"run was recorded with transport {state.transport!r} "
                    f"but this resume requests {transport!r}; pass "
                    "allow_topology_change=True (--allow-topology-change) "
                    "to deliberately move it"
                )
            if workers is not None and workers != state.workers:
                raise RunDirError(
                    f"run was recorded with workers={state.workers} but "
                    f"this resume requests workers={workers}; pass "
                    "allow_topology_change=True (--allow-topology-change) "
                    "to deliberately change the topology"
                )
        runner = cls(
            state.circuit,
            state.engines,
            starts=state.starts,
            workers=(
                workers
                if workers is not None
                else (0 if listen is not None else state.workers)
            ),
            seeds=state.seeds,
            budget=state.budget,
            restart_policy=state.restart_policy,
            checkpoint_every=state.checkpoint_every,
            overrides=state.overrides,
            on_event=on_event,
            max_retries=max_retries,
            chunk_timeout=chunk_timeout,
            strict=strict,
            max_respawns=max_respawns,
            run_dir=run_dir,
            fault_plan=fault_plan,
            listen=listen,
            lease_timeout=lease_timeout,
            heartbeat_interval=heartbeat_interval,
            on_listen=on_listen,
            trace=trace,
        )
        runner._resume_state = state
        return runner

    def run(self) -> PortfolioResult:
        """Run the portfolio; returns the winner plus the leaderboard."""
        self._failures = []
        self._incident_counts = {}
        if self._trace is not None:
            self._recorder = TraceRecorder(
                self._trace.directory,
                sample_interval=self._trace.sample_interval,
                stream="coordinator",
            )
        if self._resume_state is None:
            walks = self._initial_walks()
            restored: list[tuple[_Walk, str]] = []
            policy_state: dict | None = None
            if self._fault_plan is not None:
                self._fault_plan.validate_chunks(
                    {
                        walk_id: walk_chunk_count(walk.spec, walk.chunk)
                        for walk_id, walk in walks.items()
                    }
                )
            if self._run_dir is not None:
                self._run_state = self._fresh_run_state(walks)
                self._run_dir.initialize(self._run_state)
        else:
            walks, restored, policy_state = self._restore(self._resume_state)
            self._run_state = self._resume_state
            # a deliberately moved run re-records its topology so the
            # *next* resume validates against reality, not history
            self._run_state.transport = (
                "remote" if self._listen is not None else "local"
            )
            self._run_state.workers = self._workers
        self._live_walks = walks
        self._recorder.event(
            "portfolio.config",
            circuit=self._circuit_name,
            engines=list(self._engines),
            starts=self._starts,
            walks=len(walks),
            budget=self._budget,
            policy=self._policy,
            workers=self._workers,
            resumed=self._resume_state is not None,
        )
        self._ref = reference_model(_circuit_for(self._circuit_name))
        supervisor = _ChunkSupervisor(
            self._max_retries, self._fault_plan, self._strict
        )
        for walk in walks.values():
            if walk.checkpoint is not None and walk.chunk:
                supervisor.preset_chunks(
                    walk.spec.walk_id, walk.checkpoint.step // walk.chunk
                )
        if self._listen is not None or self._workers > 1:
            # imported lazily: remote.py imports this module at load
            from .remote import RemoteExecutor

            # no listen address: the executor serves a private pool of
            # local workers under the same leases as remote peers
            executor = RemoteExecutor(
                self._listen,
                supervisor,
                workers=self._workers if self._listen is None else 0,
                max_respawns=self._max_respawns,
                lease_timeout=self._lease_timeout,
                heartbeat_interval=self._heartbeat_interval,
                chunk_timeout=self._chunk_timeout,
                on_incident=self._incident,
                on_listen=self._on_listen,
                recorder=self._recorder,
            )
        else:
            executor = _InlineExecutor(supervisor, self._incident)
        started = time.perf_counter()
        try:
            with self._recorder.span("portfolio.walks", policy=self._policy):
                if self._policy == "rebalance":
                    outcomes = self._run_rebalance(
                        walks, executor, restored, policy_state
                    )
                else:
                    outcomes = self._run_independent(walks, executor, restored)
            if not outcomes:
                # degrading to an empty leaderboard is not degrading —
                # it is failing, and it must say so loudly
                first = self._failures[0] if self._failures else None
                raise RuntimeError(
                    "every walk in the portfolio failed"
                    + (f"; first failure:\n{first.detail}" if first else "")
                )
            with self._recorder.span("portfolio.polish"):
                self._polish(outcomes, executor)
        finally:
            executor.close()
            self._recorder.flush()
        elapsed = time.perf_counter() - started

        # Deterministic aggregation: the leaderboard (and therefore the
        # winner) is a pure function of the walk results, totally
        # ordered by (ref_cost, walk_id) so ties cannot flip between
        # runs or scheduling orders.
        leaderboard = sorted(outcomes, key=lambda o: (o.ref_cost, o.spec.walk_id))
        winner = leaderboard[0]
        # per-term telemetry for the row people act on; the ranking
        # itself only ever needed the totals
        winner.ref_breakdown = self._ref.breakdown_placement(winner.placement)
        result = PortfolioResult(
            placement=winner.placement,
            cost=winner.ref_cost,
            winner=winner,
            leaderboard=leaderboard,
            total_steps=sum(o.steps for o in leaderboard),
            elapsed_s=elapsed,
            # remote runs report the distinct workers that actually
            # joined (1 = the coordinator went inline), not the local
            # pool size, which is always 0 under --listen
            workers=max(
                1,
                executor.peer_count
                if self._listen is not None
                else self._workers,
            ),
            failures=list(self._failures),
            retries=self._incident_counts.get("retry", 0),
            respawns=(
                self._incident_counts.get("respawn", 0)
                + self._incident_counts.get("timeout", 0)
            ),
        )
        self._recorder.event(
            "portfolio.result",
            cost=result.cost,
            winner=winner.spec.walk_id,
            walks=len(leaderboard),
            failed=len(result.failures),
            total_steps=result.total_steps,
            retries=result.retries,
            respawns=result.respawns,
            wall={"elapsed_s": round(elapsed, 6), "workers": result.workers},
        )
        self._recorder.close()
        self._recorder = NULL_RECORDER
        if self._run_dir is not None and self._run_state is not None:
            self._run_state.completed = True
            self._run_dir.save_manifest(self._run_state)
        return result

    # -- walk construction ----------------------------------------------------

    def _initial_walks(self) -> dict[int, _Walk]:
        per_walk = self._budget // self._starts if self._budget else None
        walks: dict[int, _Walk] = {}
        for i in range(self._starts):
            engine = self._engines[i % len(self._engines)]
            walks[i] = self._make_walk(i, engine, self._seeds[i], per_walk)
        return walks

    def _make_walk(
        self, walk_id: int, engine: str, seed: int, budget: int | None
    ) -> _Walk:
        overrides = self._overrides
        if budget is not None:
            overrides = compress_overrides(engine, overrides, budget)
        spec = WalkSpec(
            walk_id=walk_id,
            circuit=self._circuit_name,
            engine=engine,
            seed=seed,
            overrides=overrides,
        )
        total = walk_total_steps(spec)
        chunk = self._checkpoint_every or max(1, ceil(total / _DEFAULT_ROUNDS))
        return _Walk(spec=spec, total_steps=total, chunk=chunk)

    # -- persistence ----------------------------------------------------------

    def _fresh_run_state(self, walks: dict[int, _Walk]) -> RunState:
        return RunState(
            circuit=self._circuit_name,
            engines=self._engines,
            starts=self._starts,
            workers=self._workers,
            transport="remote" if self._listen is not None else "local",
            seeds=list(self._seeds),
            budget=self._budget,
            restart_policy=self._policy,
            checkpoint_every=self._checkpoint_every,
            overrides=self._overrides,
            walks={
                walk_id: self._walk_record(walk)
                for walk_id, walk in walks.items()
            },
        )

    @staticmethod
    def _walk_record(walk: _Walk, status: str = "active") -> WalkRecord:
        return WalkRecord(
            walk_id=walk.spec.walk_id,
            engine=walk.spec.engine,
            seed=walk.spec.seed,
            overrides=walk.spec.overrides,
            total_steps=walk.total_steps,
            chunk=walk.chunk,
            status=status,
            elapsed_s=walk.elapsed_s,
            retries=walk.retries,
        )

    def _persist_walk(
        self, walk: _Walk, status: str = "active", save_manifest: bool = True
    ) -> None:
        """Snapshot one walk's checkpoint + manifest record."""
        if self._run_dir is None or self._run_state is None:
            return
        record = self._run_state.walks.get(walk.spec.walk_id)
        if record is None:
            record = self._walk_record(walk)
            self._run_state.walks[walk.spec.walk_id] = record
        if walk.checkpoint is not None:
            record.checkpoint_file = self._run_dir.save_walk_checkpoint(
                walk.spec.walk_id, walk.checkpoint
            )
        record.status = status
        record.elapsed_s = walk.elapsed_s
        record.retries = walk.retries
        if save_manifest:
            self._run_dir.save_manifest(self._run_state)

    def _persist_round(
        self, active: dict[int, _Walk], policy_state: dict
    ) -> None:
        """Rebalance round barrier: snapshot every active walk at once.

        Mid-round snapshots would be inconsistent — the kill/respawn
        decision reads *every* active walk, so resuming with some walks
        a chunk ahead would replay into a different decision.  At the
        barrier the whole set is frozen together.
        """
        if self._run_dir is None or self._run_state is None:
            return
        for walk in active.values():
            self._persist_walk(walk, status="active", save_manifest=False)
        self._run_state.policy_state = policy_state
        self._run_dir.save_manifest(self._run_state)

    def _restore(
        self, state: RunState
    ) -> tuple[dict[int, _Walk], list[tuple[_Walk, str]], dict | None]:
        """Rebuild coordinator state from a persisted manifest."""
        walks: dict[int, _Walk] = {}
        restored: list[tuple[_Walk, str]] = []
        specs: dict[int, WalkSpec] = {}
        for walk_id in sorted(state.walks):
            record = state.walks[walk_id]
            spec = WalkSpec(
                walk_id=walk_id,
                circuit=self._circuit_name,
                engine=record.engine,
                seed=record.seed,
                overrides=record.overrides,
            )
            specs[walk_id] = spec
            walk = _Walk(
                spec=spec, total_steps=record.total_steps, chunk=record.chunk
            )
            walk.elapsed_s = record.elapsed_s
            walk.retries = record.retries
            checkpoint = self._run_dir.load_walk_checkpoint(record)
            if checkpoint is not None:
                verify_walk_checkpoint(spec, checkpoint)
                walk.checkpoint = checkpoint
            if record.status == "active":
                walks[walk_id] = walk
            elif record.status in (FINISHED, KILLED):
                if walk.checkpoint is None:
                    raise RunDirError(
                        f"walk {walk_id} is recorded {record.status} but has "
                        "no checkpoint to rebuild its leaderboard row from"
                    )
                restored.append((walk, record.status))
            # FAILED walks are rebuilt from the failure records below
        for failure in state.failures:
            spec = specs.get(failure.walk_id)
            if spec is None:
                raise RunDirError(
                    f"failure record for walk {failure.walk_id} has no "
                    "matching walk record"
                )
            self._failures.append(
                WalkFailure(
                    spec=spec,
                    reason=failure.reason,
                    detail=failure.detail,
                    attempts=failure.attempts,
                    steps=failure.steps,
                )
            )
        return walks, restored, state.policy_state

    # -- policies -------------------------------------------------------------

    def _run_independent(
        self,
        walks: dict[int, _Walk],
        executor,
        restored: list[tuple[_Walk, str]],
    ) -> list[WalkOutcome]:
        """Every walk runs its full schedule; chunks pipeline freely."""
        outcomes: list[WalkOutcome] = [
            self._outcome(walk, status) for walk, status in restored
        ]
        pending = 0
        for walk_id in sorted(walks):
            walk = walks[walk_id]
            if walk.checkpoint is not None and walk.checkpoint.finished:
                # a resumed manifest can hold a finished-but-still-active
                # walk if the run died between snapshot and status flip
                outcomes.append(self._outcome(walk, FINISHED))
                self._persist_walk(walk, status=FINISHED)
                continue
            executor.dispatch(self._next_task(walk))
            pending += 1
        while pending:
            result = executor.collect()
            if isinstance(result, ChunkFailure):
                self._quarantine(walks[result.walk_id], result)
                pending -= 1
                continue
            walk = walks[result.walk_id]
            self._note_chunk(walk, result)
            self._emit_progress(walk)
            if result.checkpoint.finished:
                outcomes.append(self._outcome(walk, FINISHED))
                self._persist_walk(walk, status=FINISHED)
                pending -= 1
            else:
                self._persist_walk(walk)
                executor.dispatch(self._next_task(walk))
        return outcomes

    def _run_rebalance(
        self,
        walks: dict[int, _Walk],
        executor,
        restored: list[tuple[_Walk, str]],
        policy_state: dict | None,
    ) -> list[WalkOutcome]:
        """Checkpoint rounds: advance all, kill the worst half, respawn.

        Each round is a barrier — every active walk reaches its next
        checkpoint before any decision — so the kill/respawn sequence
        depends only on walk results, never on worker scheduling.  A
        walk quarantined mid-round simply leaves the active set: its
        budget is spent (not pooled), and the ranking that follows sees
        only survivors.
        """
        outcomes: list[WalkOutcome] = [
            self._outcome(walk, status) for walk, status in restored
        ]
        active = dict(walks)
        if policy_state is not None:
            next_walk_id = int(policy_state["next_walk_id"])
            next_seed = int(policy_state["next_seed"])
            engine_cursor = int(policy_state["engine_cursor"])
        else:
            next_walk_id = (max(active) + 1) if active else self._starts
            next_seed = max(self._seeds) + 1
            engine_cursor = self._starts  # continue the round-robin
        while active:
            for walk_id in sorted(active):
                executor.dispatch(self._next_task(active[walk_id]))
            quarantined: list[int] = []
            for _ in range(len(active)):
                result = executor.collect()
                if isinstance(result, ChunkFailure):
                    self._quarantine(active[result.walk_id], result)
                    quarantined.append(result.walk_id)
                    continue
                walk = active[result.walk_id]
                self._note_chunk(walk, result)
                self._emit_progress(walk)
            for walk_id in quarantined:
                del active[walk_id]
            for walk_id in sorted(active):
                if active[walk_id].checkpoint.finished:
                    walk = active.pop(walk_id)
                    outcomes.append(self._outcome(walk, FINISHED))
                    self._persist_walk(walk, status=FINISHED, save_manifest=False)
            if len(active) >= 2:
                # rank by (reference cost of the best state, walk_id) —
                # the engines anneal different objectives, so kill
                # decisions use the shared yardstick; the worst half
                # dies and its unspent budget funds fresh seeds
                ranked = sorted(
                    active.values(),
                    key=lambda w: (self._walk_ref_cost(w), w.spec.walk_id),
                )
                victims = ranked[len(ranked) - len(ranked) // 2 :]
                pooled = 0
                for victim in victims:
                    pooled += victim.total_steps - victim.checkpoint.step
                    outcomes.append(self._outcome(victim, KILLED))
                    self._persist_walk(victim, status=KILLED, save_manifest=False)
                    del active[victim.spec.walk_id]
                    self._emit_progress(victim, status=KILLED)
                to_spawn = len(victims)
                while to_spawn and pooled:
                    engine = self._engines[engine_cursor % len(self._engines)]
                    share = pooled // to_spawn
                    try:
                        fresh = self._make_walk(
                            next_walk_id, engine, next_seed, share
                        )
                    except ValueError:
                        break  # share below one step per epoch: budget exhausted
                    active[next_walk_id] = fresh
                    self._live_walks[next_walk_id] = fresh
                    pooled -= fresh.total_steps
                    next_walk_id += 1
                    next_seed += 1
                    engine_cursor += 1
                    to_spawn -= 1
                    self._emit_progress(fresh, status="spawned")
            self._persist_round(
                active,
                {
                    "next_walk_id": next_walk_id,
                    "next_seed": next_seed,
                    "engine_cursor": engine_cursor,
                },
            )
        return outcomes

    def _polish(self, outcomes: list[WalkOutcome], executor) -> None:
        """Spend the budget's compression slack refining the winner.

        Splitting a budget into equal compressed schedules leaves
        ``budget - sum(walk totals)`` steps on the floor (epoch
        rounding).  When that slack covers at least one short cold
        schedule, it funds a *polish walk*: re-anneal the current
        winner's best state from a low initial temperature — iterated
        local search rather than a fresh start.  Deterministic like
        every other walk (fixed seed offset, fabricated step-0
        checkpoint), and free: the portfolio still never exceeds its
        budget.  A failed polish chunk is reported but never costs the
        already-final winner.
        """
        if self._budget is None or not outcomes:
            return
        # steps a quarantined walk completed before failing are spent
        # budget too — without charging them the polish walk would push
        # total work past the budget on degraded runs
        spent = sum(o.steps for o in outcomes) + sum(f.steps for f in self._failures)
        slack = self._budget - spent
        winner = min(outcomes, key=lambda o: (o.ref_cost, o.spec.walk_id))
        # stay a valid cooling schedule under any override set: the
        # polish start must sit strictly above the walk's t_final
        t_final = build_config(winner.spec.engine, 0, self._overrides).t_final
        polish_t0 = max(_POLISH_T0, 10.0 * t_final)
        overrides = self._overrides + (("t_initial", polish_t0),)
        try:
            overrides = compress_overrides(winner.spec.engine, overrides, slack)
        except ValueError:
            return  # slack below one step per epoch: nothing to spend
        used = {o.spec.walk_id for o in outcomes}
        used.update(f.spec.walk_id for f in self._failures)
        spec = WalkSpec(
            walk_id=max(used) + 1,
            circuit=self._circuit_name,
            engine=winner.spec.engine,
            seed=winner.spec.seed + _POLISH_SEED_OFFSET,
            overrides=overrides,
        )
        total = walk_total_steps(spec)
        stats = AnnealingStats(
            initial_cost=winner.best_cost, best_cost=winner.best_cost
        )
        checkpoint = WalkCheckpoint(
            step=0,
            total_steps=total,
            t_scale=1.0,  # the schedule is already cold: no warmup rescale
            state=winner.best_state,
            current_cost=winner.best_cost,
            best_state=winner.best_state,
            best_cost=winner.best_cost,
            rng_state=random.Random(spec.seed).getstate(),
            stats=stats,
        )
        walk = _Walk(spec=spec, total_steps=total, chunk=total, checkpoint=checkpoint)
        self._live_walks[spec.walk_id] = walk
        executor.dispatch(
            ChunkTask(
                spec=spec, checkpoint=checkpoint, max_steps=None,
                trace=self._trace,
            )
        )
        result = executor.collect()
        if isinstance(result, ChunkFailure):
            # the winner stands; the polish was a free refinement only
            self._quarantine(walk, result)
            return
        self._note_chunk(walk, result)
        self._emit_progress(walk, status="polish")
        outcomes.append(self._outcome(walk, "polish"))

    # -- helpers --------------------------------------------------------------

    def _next_task(self, walk: _Walk) -> ChunkTask:
        return ChunkTask(
            spec=walk.spec, checkpoint=walk.checkpoint, max_steps=walk.chunk,
            trace=self._trace,
        )

    def _note_chunk(self, walk: _Walk, result: ChunkResult) -> None:
        """Fold one collected chunk into the walk's bookkeeping and the
        coordinator trace stream."""
        walk.checkpoint = result.checkpoint
        walk.elapsed_s += result.elapsed_s
        self._recorder.event(
            "portfolio.chunk",
            walk=walk.spec.walk_id,
            step=result.checkpoint.step,
            best=result.checkpoint.best_cost,
            wall={"exec_s": result.elapsed_s},
        )

    def _quarantine(self, walk: _Walk, failure: ChunkFailure) -> None:
        """Record a walk the executor gave up on; the run degrades."""
        steps = walk.checkpoint.step if walk.checkpoint is not None else 0
        record = WalkFailure(
            spec=walk.spec,
            reason=failure.reason,
            detail=failure.detail,
            attempts=failure.attempts,
            steps=steps,
        )
        self._failures.append(record)
        self._incident_counts["quarantine"] = (
            self._incident_counts.get("quarantine", 0) + 1
        )
        self._recorder.count(
            "portfolio.quarantine", walk=walk.spec.walk_id, reason=failure.reason
        )
        self._emit_progress(walk, status=FAILED)
        if self._run_dir is not None and self._run_state is not None:
            self._persist_walk(walk, status=FAILED, save_manifest=False)
            self._run_state.failures.append(
                FailureRecord(
                    walk_id=walk.spec.walk_id,
                    reason=record.reason,
                    detail=record.detail,
                    attempts=record.attempts,
                    steps=record.steps,
                )
            )
            self._run_dir.save_manifest(self._run_state)

    def _incident(self, walk_id: int | None, kind: str, detail: str) -> None:
        """Executor supervision incidents -> counters + progress events."""
        self._incident_counts[kind] = self._incident_counts.get(kind, 0) + 1
        walk = self._live_walks.get(walk_id) if walk_id is not None else None
        if walk is not None and kind == "retry":
            walk.retries += 1
        self._recorder.count(
            "portfolio." + kind, walk=-1 if walk_id is None else walk_id
        )
        if self._on_event is None or walk is None:
            return
        self._emit_progress(walk, status=kind)

    def _walk_ref_cost(self, walk: _Walk) -> float:
        """Reference cost of the walk's best state (memoized: it only
        changes when the walk's best cost does)."""
        checkpoint = walk.checkpoint
        if walk._ref_at != checkpoint.best_cost:
            placer, _ = _placer_engine_for(walk.spec)
            walk.ref_placement = placer.finalize(checkpoint.best_state)
            walk.ref_cost = self._ref.evaluate_placement(walk.ref_placement)
            walk._ref_at = checkpoint.best_cost
        return walk.ref_cost

    def _outcome(self, walk: _Walk, status: str) -> WalkOutcome:
        checkpoint = walk.checkpoint
        self._walk_ref_cost(walk)  # memoized finalize + reference cost
        return WalkOutcome(
            spec=walk.spec,
            best_cost=checkpoint.best_cost,
            ref_cost=walk.ref_cost,
            placement=walk.ref_placement,
            steps=checkpoint.step,
            total_steps=walk.total_steps,
            status=status,
            stats=checkpoint.stats,
            best_state=checkpoint.best_state,
            elapsed_s=walk.elapsed_s,
            retries=walk.retries,
        )

    def _emit_progress(self, walk: _Walk, status: str = "running") -> None:
        if self._on_event is None:
            return
        checkpoint = walk.checkpoint
        self._on_event(
            ProgressEvent(
                walk_id=walk.spec.walk_id,
                engine=walk.spec.engine,
                seed=walk.spec.seed,
                step=checkpoint.step if checkpoint else 0,
                total_steps=walk.total_steps,
                best_cost=checkpoint.best_cost if checkpoint else float("inf"),
                status=status,
            )
        )
