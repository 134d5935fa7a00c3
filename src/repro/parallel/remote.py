"""Lease-supervised execution tier: workers over sockets.

:class:`RemoteExecutor` implements the same executor interface as the
serial in-process executor in :mod:`repro.parallel.runner`
(``dispatch`` / ``collect`` / ``close``), but hands chunks to worker
processes that joined over a socket.  It runs every multi-process
portfolio: remote workers started with ``repro worker --connect`` (on
this machine or any other), and the local pool of ``workers > 1``,
which it spawns itself onto a private Unix socket.  Because a chunk is
a pure function of ``(spec, checkpoint)`` and the leaderboard is
totally ordered by ``(ref_cost, walk_id)``, the answer is
byte-identical to the serial run's; the execution tier can only change
*when* chunks execute, never *what* they compute.

Robustness model
----------------

**Leases.**  A dispatched chunk is a *lease*: the worker owns it until
a deadline, renewed by every frame the worker sends (heartbeats tick at
``heartbeat_interval``).  A lease whose deadline passes — worker
partitioned, stalled, or silently gone — is revoked and its chunk
re-dispatched; re-execution is safe because replays are byte-identical.
A dropped connection (EOF) revokes the lease immediately rather than
waiting out the deadline.

**Epochs.**  Every dispatch is stamped with its ``(walk, chunk,
attempt)`` epoch and results echo the stamp.  A result arriving for a
revoked lease — the partitioned worker finishing late, a retransmitted
duplicate — carries a stale epoch and is discarded, never
double-counted.

**Reconnects.**  Workers reconnect with exponential backoff plus
jitter, re-handshaking each time; the coordinator treats a returning
worker as brand new (any chunk it held was already re-leased).

**Local pool.**  With ``workers=N`` the executor spawns ``N`` worker
processes that join over a Unix socket in a fresh ``0700`` directory,
removed at close.  It owns them: a local worker whose connection ends,
or whose process dies before it ever connects, is reaped and respawned
in its slot (same name) while ``max_respawns`` lasts; a chunk past
``chunk_timeout`` gets its process killed, not just disconnected.

**Degradation.**  If every remote peer vanishes and none returns within
a grace period, the coordinator executes the backlog *inline*, one
chunk per ``collect``, still polling the listener between chunks — a
run never hangs on an empty roster, and peers can rejoin
mid-degradation.  A local pool never falls back: once every local
worker has exited with no respawn left, ``collect`` raises.

**Hung chunks.**  A worker wedged *inside* a chunk still heartbeats
(the heartbeat thread is independent), so leases alone cannot bound a
``hang``; the optional ``chunk_timeout`` is the hard per-chunk deadline
that revokes the lease regardless of heartbeats.

.. warning::
   The transport pickles Python objects with no authentication (see
   :mod:`repro.parallel.net`); bind only on loopback, a private
   cluster fabric, or an SSH tunnel.  The local pool never listens on
   TCP, even loopback, where any local user could connect: its socket
   directory admits only this user, the boundary ``multiprocessing``
   pipes give.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import selectors
import shutil
import socket
import tempfile
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

from .faults import NETWORK_FAULT_KINDS
from .jobs import ChunkFailure, ChunkResult, ChunkTask
from .net import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameDecoder,
    MessageStream,
    ProtocolError,
    bound_address,
    connect_socket,
    format_address,
    listen_socket,
    pack_frame,
    parse_address,
)
from .runner import _ChunkSupervisor, _execute, resolve_chunk_failure
from ..telemetry import NULL_RECORDER

#: coordinator event-loop tick: the cadence of lease/timeout/liveness checks
_TICK_S = 0.05

#: default local-worker respawn cap per run: ``2 * workers``
_RESPAWNS_PER_WORKER = 2

#: how long close() waits for a local worker to exit before killing it
_CLOSE_GRACE_S = 10.0

#: worker-side default reconnect schedule: base * 2^n, jittered, capped
_RECONNECT_BASE_S = 0.25
_RECONNECT_CAP_S = 10.0

#: how long past its own lease a ``stall-heartbeat`` fault stays silent
#: before finishing: long enough that the lease is guaranteed revoked,
#: short enough that tests stay fast
_STALL_FACTOR = 1.5


# -- coordinator side ---------------------------------------------------------


@dataclass
class _Peer:
    """One connected worker as the coordinator tracks it."""

    sock: socket.socket
    address: str
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    name: str = "?"
    ready: bool = False  # handshake complete
    lease_id: "int | None" = None  # task_id of the lease it holds

    def send(self, kind: str, **payload) -> None:
        self.sock.sendall(pack_frame(kind, payload))


@dataclass
class _Lease:
    """One dispatched chunk: who holds it and until when."""

    task_id: int
    task: ChunkTask
    chunk_index: int
    attempt: int
    peer: "_Peer | None"
    started: float
    deadline: float


class RemoteExecutor:
    """Socket-served executor: leases, heartbeats, epochs, degradation.

    Same contract as the inline executor: ``dispatch`` enqueues a chunk
    (registering it with the shared :class:`_ChunkSupervisor`),
    ``collect`` blocks until one chunk resolves — a
    :class:`ChunkResult` on success, a :class:`ChunkFailure` once a
    walk is out of retries — and ``close`` tells every peer to shut
    down.  All socket work happens inside ``collect`` on the
    coordinator thread; there are no coordinator-side threads to race.

    ``listen`` is a parsed address (``(host, port)`` or a Unix socket
    path, see :func:`~repro.parallel.net.parse_address`) to serve
    remote peers on, or ``None`` to serve a private pool of ``workers``
    local processes (see the module docstring).
    """

    def __init__(
        self,
        listen: "tuple[str, int] | str | None",
        supervisor: _ChunkSupervisor,
        *,
        workers: int = 0,
        max_respawns: int | None = None,
        lease_timeout: float = 10.0,
        heartbeat_interval: float | None = None,
        chunk_timeout: float | None = None,
        fallback_grace: float | None = None,
        on_incident: Callable[[int | None, str, str], None] | None = None,
        on_listen: Callable[[object], None] | None = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self._supervisor = supervisor
        self._recorder = recorder
        self._lease_timeout = lease_timeout
        self._heartbeat_interval = (
            lease_timeout / 4.0 if heartbeat_interval is None else heartbeat_interval
        )
        self._chunk_timeout = chunk_timeout
        #: how long collect() waits for a peer (current or returning)
        #: before degrading to inline execution
        self._fallback_grace = (
            lease_timeout if fallback_grace is None else fallback_grace
        )
        self._on_incident = on_incident
        #: local pool: slot name -> its process, ``None`` once the slot
        #: died with no respawn left; empty when serving remote peers
        self._local: "dict[str, multiprocessing.process.BaseProcess | None]" = {}
        self._respawns_left = (
            _RESPAWNS_PER_WORKER * workers if max_respawns is None else max_respawns
        )
        self._pool_dir: "str | None" = None
        if listen is None:
            # mkdtemp creates the directory 0700: only this user can
            # reach the socket, and every frame a peer sends is unpickled
            self._pool_dir = tempfile.mkdtemp(prefix="repro-pool-")
            listen = os.path.join(self._pool_dir, "pool.sock")
        self._listener = listen_socket(listen)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._peers: "dict[socket.socket, _Peer]" = {}
        self._backlog: "deque[tuple[ChunkTask, int]]" = deque()
        self._leases: "dict[int, _Lease]" = {}
        self._results: "deque[ChunkResult | ChunkFailure]" = deque()
        self._next_task_id = 0
        #: distinct worker names that completed the handshake — the
        #: truthful worker count for the run banner (a reconnecting
        #: worker keeps its name and is not double-counted)
        self._peers_seen: set[str] = set()
        #: last moment any peer was connected (or the serve start):
        #: anchors the degradation grace period
        self._last_peer_seen = time.monotonic()
        if on_listen is not None:
            on_listen(bound_address(self._listener))
        try:
            for slot in range(workers):
                self._spawn_local(f"local-{slot}")
        except BaseException:
            self.close()
            raise

    # -- executor interface ---------------------------------------------------

    def dispatch(self, task: ChunkTask) -> None:
        self._backlog.append(
            (task, self._supervisor.begin_chunk(task.spec.walk_id))
        )
        self._pump()

    def collect(self) -> "ChunkResult | ChunkFailure":
        while True:
            if self._results:
                return self._results.popleft()
            if self._local and not any(self._local.values()):
                raise RuntimeError(
                    "all portfolio workers exited without producing results"
                )
            self._pump()
            for key, _ in self._selector.select(timeout=_TICK_S):
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._service_peer(self._peers.get(key.fileobj))
            self._expire_leases()
            self._reap_local()
            self._maybe_fallback()

    @property
    def peer_count(self) -> int:
        """Distinct workers that ever joined (0 if the run went inline)."""
        return len(self._peers_seen)

    def close(self) -> None:
        """Shut every peer down and reap the local pool, never hanging.

        A local worker still alive ``_CLOSE_GRACE_S`` after its
        shutdown frame is killed, and one warning names them all.
        """
        local, self._local = self._local, {}  # no respawns from here on
        for peer in list(self._peers.values()):
            try:
                peer.send("shutdown")
            except OSError:
                pass
            self._drop_peer(peer, reclaim=False)
        try:
            self._selector.unregister(self._listener)
        except KeyError:  # pragma: no cover - never registered twice
            pass
        self._selector.close()
        self._listener.close()
        if self._pool_dir is not None:
            # a worker still starting now fails to connect and exits
            shutil.rmtree(self._pool_dir, ignore_errors=True)
        stuck = []
        for name, process in local.items():
            if process is None:
                continue
            process.join(timeout=_CLOSE_GRACE_S)
            if process.is_alive():
                stuck.append(name)
                process.kill()
                process.join(timeout=5)
        if stuck:
            warnings.warn(
                f"portfolio worker(s) {stuck} did not exit cleanly and were "
                "killed",
                RuntimeWarning,
                stacklevel=2,
            )
        self._peers.clear()
        self._leases.clear()
        self._backlog.clear()

    # -- local pool -----------------------------------------------------------

    def _spawn_local(self, name: str) -> None:
        # spawn, never fork: a fresh interpreter inherits no locks and
        # no placer state, on every platform
        process = multiprocessing.get_context("spawn").Process(
            target=_local_worker,
            args=(bound_address(self._listener), name),
            name=name,
            daemon=True,
        )
        process.start()
        self._local[name] = process

    def _local_lost(
        self, name: str, kind: str = "respawn", walk_id: "int | None" = None
    ) -> None:
        """Reap a local worker the run has lost; respawn its slot under
        the same name while ``max_respawns`` lasts.  ``kind`` is the
        incident recorded: ``respawn`` after a death, ``timeout`` after
        a chunk overran ``chunk_timeout``."""
        process = self._local.get(name)
        if process is None:
            return
        process.kill()  # it may still be alive: hung, or only disconnected
        process.join(timeout=5)
        cause = (
            f"killed after exceeding the {self._chunk_timeout:g}s chunk timeout"
            if kind == "timeout"
            else f"exited (exit code {process.exitcode})"
        )
        if self._respawns_left > 0:
            self._respawns_left -= 1
            self._spawn_local(name)
            self._incident(
                walk_id, kind, f"worker {name!r} {cause}; respawned in its slot"
            )
        else:
            self._local[name] = None

    def _reap_local(self) -> None:
        """Liveness check: catch a local worker that died before it
        connected, or before its EOF was read."""
        for name, process in list(self._local.items()):
            if process is None or process.is_alive():
                continue
            peer = next(
                (p for p in self._peers.values() if p.name == name), None
            )
            if peer is not None:
                self._drop_peer(peer)
            else:
                self._local_lost(name)

    # -- incidents ------------------------------------------------------------

    def _incident(self, walk_id: "int | None", kind: str, detail: str) -> None:
        if self._on_incident is not None:
            self._on_incident(walk_id, kind, detail)

    # -- connection management ------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(True)
            peer = _Peer(sock=sock, address=str(addr))
            self._peers[sock] = peer
            self._selector.register(sock, selectors.EVENT_READ, None)
            self._last_peer_seen = time.monotonic()

    def _drop_peer(
        self,
        peer: _Peer,
        *,
        reclaim: bool = True,
        kind: str = "respawn",
        walk_id: "int | None" = None,
    ) -> None:
        """Forget a peer; optionally reclaim the lease it held.  A local
        worker is never left half-connected: its slot is reaped and
        respawned, recorded as incident ``kind`` (see
        :meth:`_local_lost`)."""
        self._peers.pop(peer.sock, None)
        try:
            self._selector.unregister(peer.sock)
        except (KeyError, ValueError):
            pass
        try:
            peer.sock.close()
        except OSError:
            pass
        if peer.name in self._local:
            self._local_lost(peer.name, kind, walk_id)
        if reclaim and peer.lease_id is not None:
            lease = self._leases.pop(peer.lease_id, None)
            if lease is not None:
                self._revoke(
                    lease,
                    "worker-death",
                    f"worker {peer.name!r} ({peer.address}) disconnected "
                    f"holding walk {lease.task.spec.walk_id} chunk "
                    f"{lease.chunk_index}",
                )

    def _service_peer(self, peer: "_Peer | None") -> None:
        """Read one readiness event's worth of bytes from a peer."""
        if peer is None:
            return
        try:
            data = peer.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._drop_peer(peer)
            return
        self._last_peer_seen = time.monotonic()
        try:
            messages = peer.decoder.feed(data)
        except ProtocolError as exc:
            self._incident(
                None, "protocol-error",
                f"dropping peer {peer.address}: {exc}",
            )
            self._drop_peer(peer)
            return
        for kind, payload in messages:
            self._handle_message(peer, kind, payload)
            if peer.sock not in self._peers:
                return  # the message got the peer dropped

    def _handle_message(self, peer: _Peer, kind: str, payload: dict) -> None:
        if kind == "hello":
            version = payload.get("version")
            if version != PROTOCOL_VERSION:
                try:
                    peer.send(
                        "reject",
                        reason=(
                            f"protocol version {version} != coordinator "
                            f"version {PROTOCOL_VERSION}"
                        ),
                    )
                except OSError:
                    pass
                self._drop_peer(peer, reclaim=False)
                return
            peer.name = str(payload.get("name", "?"))
            peer.ready = True
            rejoining = peer.name in self._peers_seen
            self._peers_seen.add(peer.name)
            # connection lifecycle is timing-dependent, so these events
            # carry wall-only payloads (empty deterministic fields)
            self._recorder.event(
                "remote.reconnect" if rejoining else "remote.join",
                wall={"worker": peer.name, "address": peer.address},
            )
            peer.send(
                "welcome",
                version=PROTOCOL_VERSION,
                heartbeat_interval=self._heartbeat_interval,
                lease_timeout=self._lease_timeout,
            )
            self._pump()
            return
        if not peer.ready:
            self._incident(
                None, "protocol-error",
                f"dropping peer {peer.address}: sent {kind!r} before hello",
            )
            self._drop_peer(peer)
            return
        if kind == "heartbeat":
            self._renew(peer)
            metrics = payload.get("metrics")
            if metrics and self._recorder.enabled:
                # worker-side counters piggybacked on the heartbeat
                # frame; whitelisted keys only (the payload is remote
                # input), and wall-only — heartbeat cadence is timing
                self._recorder.event(
                    "remote.worker",
                    wall={
                        "worker": peer.name,
                        **{
                            key: metrics[key]
                            for key in ("chunks", "steps", "exec_s")
                            if key in metrics
                        },
                    },
                )
            return
        if kind in ("result", "error"):
            self._renew(peer)
            self._finish(peer, kind, payload)
            return
        # unknown-but-framed kinds are ignored: a same-version peer may
        # legitimately send kinds added by a future minor revision

    def _renew(self, peer: _Peer) -> None:
        """Any frame from the leaseholder renews its lease deadline."""
        if peer.lease_id is None:
            return
        lease = self._leases.get(peer.lease_id)
        if lease is not None:
            lease.deadline = time.monotonic() + self._lease_timeout

    # -- leases ---------------------------------------------------------------

    def _idle_peers(self) -> "list[_Peer]":
        return [
            p for p in self._peers.values() if p.ready and p.lease_id is None
        ]

    def _pump(self) -> None:
        """Lease backlog chunks to idle ready peers (one chunk each)."""
        for peer in self._idle_peers():
            if not self._backlog:
                return
            task, chunk_index = self._backlog.popleft()
            task_id = self._next_task_id
            self._next_task_id += 1
            attempt = self._supervisor.attempts(task.spec.walk_id)
            armed = self._supervisor.arm(task, chunk_index)
            now = time.monotonic()
            lease = _Lease(
                task_id=task_id,
                task=task,
                chunk_index=chunk_index,
                attempt=attempt,
                peer=peer,
                started=now,
                deadline=now + self._lease_timeout,
            )
            try:
                peer.send(
                    "task",
                    task_id=task_id,
                    chunk=chunk_index,
                    attempt=attempt,
                    task=armed,
                )
            except OSError:
                # connection died between select and send: requeue the
                # chunk un-leased and drop the peer (no lease to reclaim)
                self._backlog.appendleft((task, chunk_index))
                self._drop_peer(peer, reclaim=False)
                continue
            self._leases[task_id] = lease
            peer.lease_id = task_id
            self._recorder.event(
                "remote.lease",
                wall={
                    "worker": peer.name,
                    "walk": task.spec.walk_id,
                    "chunk": chunk_index,
                    "attempt": attempt,
                },
            )

    def _revoke(self, lease: _Lease, reason: str, detail: str) -> None:
        """A lease failed: count the attempt, retry or quarantine."""
        self._recorder.event(
            "remote.revoke",
            wall={
                "reason": reason,
                "walk": lease.task.spec.walk_id,
                "chunk": lease.chunk_index,
                "attempt": lease.attempt,
            },
        )
        if lease.peer is not None:
            lease.peer.lease_id = None
            lease.peer = None
        self._chunk_failed(lease.task, lease.chunk_index, reason, detail)

    def _chunk_failed(
        self, task: ChunkTask, chunk_index: int, reason: str, detail: str
    ) -> None:
        def requeue(task: ChunkTask, chunk_index: int) -> None:
            self._backlog.append((task, chunk_index))
            self._pump()

        failure = resolve_chunk_failure(
            self._supervisor, task, chunk_index, reason, detail,
            requeue, self._incident,
        )
        if failure is not None:
            self._results.append(failure)

    def _finish(self, peer: _Peer, kind: str, payload: dict) -> None:
        """A result/error frame arrived; resolve it against its lease."""
        task_id = payload.get("task_id")
        attempt = payload.get("attempt")
        lease = self._leases.get(task_id)
        if (
            lease is None
            or lease.attempt != attempt
            or not self._supervisor.is_current(
                lease.task.spec.walk_id, lease.chunk_index, attempt
            )
        ):
            # stale or duplicate: the lease was revoked and re-issued
            # (or already answered); counting this would double-book
            # the walk's progress.  The sender goes back to idle if it
            # believed it held this lease.
            if peer.lease_id == task_id:
                peer.lease_id = None
                self._pump()
            return
        del self._leases[task_id]
        if lease.peer is not None:
            lease.peer.lease_id = None
        if kind == "result":
            result = payload.get("result")
            if isinstance(result, ChunkResult):
                if self._recorder.enabled:
                    total = time.monotonic() - lease.started
                    self._recorder.event(
                        "executor.chunk",
                        wall={
                            "worker": peer.name,
                            "walk": lease.task.spec.walk_id,
                            "chunk": lease.chunk_index,
                            "attempt": lease.attempt,
                            "exec_s": result.elapsed_s,
                            "total_s": round(total, 6),
                            "queue_wait_s": round(
                                max(0.0, total - result.elapsed_s), 6
                            ),
                        },
                    )
                self._results.append(result)
            else:
                self._chunk_failed(
                    lease.task, lease.chunk_index, "error",
                    f"worker {peer.name!r} returned "
                    f"{type(result).__name__} instead of a ChunkResult",
                )
        else:
            self._chunk_failed(
                lease.task, lease.chunk_index, "error",
                str(payload.get("detail", "worker reported an error")),
            )
        self._pump()

    def _expire_leases(self) -> None:
        """Revoke leases whose holders went silent or ran too long."""
        now = time.monotonic()
        for lease in list(self._leases.values()):
            if self._chunk_timeout is not None and (
                now - lease.started > self._chunk_timeout
            ):
                del self._leases[lease.task_id]
                # the worker is wedged inside the chunk: drop it (a local
                # one is killed) before the retry can be leased back to it
                peer = lease.peer
                if peer is not None and peer.sock in self._peers:
                    self._drop_peer(
                        peer, reclaim=False, kind="timeout",
                        walk_id=lease.task.spec.walk_id,
                    )
                self._revoke(
                    lease, "timeout",
                    f"chunk exceeded the {self._chunk_timeout:g}s wall-clock "
                    f"timeout (walk {lease.task.spec.walk_id}, chunk "
                    f"{lease.chunk_index})",
                )
                continue
            if now > lease.deadline:
                del self._leases[lease.task_id]
                self._revoke(
                    lease, "worker-death",
                    f"lease expired after {self._lease_timeout:g}s without a "
                    f"heartbeat (walk {lease.task.spec.walk_id}, chunk "
                    f"{lease.chunk_index})",
                )

    # -- degradation ----------------------------------------------------------

    def _maybe_fallback(self) -> None:
        """Execute one backlog chunk inline when all remote peers
        vanished (a local pool never falls back: ``collect`` raises).

        Armed with the same fault the worker would have received, but
        with worker-only kinds (``die``, ``hang``, network faults)
        converted to an ordinary injected *exception*: the coordinator
        must not ``os._exit`` or sleep an hour, yet the attempt
        accounting — fault fires, attempt burns, retry or quarantine —
        stays exactly what the remote path would have produced.
        """
        if self._local or not self._backlog:
            return
        if any(p.ready for p in self._peers.values()):
            return
        if time.monotonic() - self._last_peer_seen < self._fallback_grace:
            return
        task, chunk_index = self._backlog.popleft()
        self._incident(
            task.spec.walk_id, "fallback",
            "no remote workers available; executing chunk "
            f"{chunk_index} of walk {task.spec.walk_id} on the coordinator",
        )
        armed = self._supervisor.arm(task, chunk_index)
        if armed.fault in ("die", "hang") or armed.fault in NETWORK_FAULT_KINDS:
            self._chunk_failed(
                task, chunk_index, "error",
                f"injected {armed.fault!r} fault (converted to a failure "
                "in coordinator fallback: there is no worker to kill)",
            )
            return
        try:
            result = _execute(armed)
        except Exception:
            self._chunk_failed(
                task, chunk_index, "error", traceback.format_exc()
            )
            return
        self._results.append(result)


# -- worker side --------------------------------------------------------------


class WorkerClient:
    """One worker: connect, handshake, execute, heartbeat, retry.

    ``connect`` is a parsed address (see
    :func:`~repro.parallel.net.parse_address`).  The client owns two
    threads: the main loop (blocking ``recv`` for tasks, executes
    chunks, sends results) and a heartbeat ticker that shares the
    socket through :class:`MessageStream`'s send lock.  A
    lost connection tears both down and reconnects with exponential
    backoff plus jitter — full-jitter, so a fleet of workers orphaned
    by one coordinator restart does not reconnect in lockstep.

    Injected network faults (the coordinator arms them on the task)
    are acted out here: ``disconnect`` drops the socket mid-chunk,
    ``stall-heartbeat`` goes silent past the lease deadline and then
    sends the (now stale) result anyway, ``duplicate-result`` sends
    the result twice.  Each models a real network failure; the fault
    fires once per armed attempt, so the re-dispatched chunk runs
    clean.
    """

    def __init__(
        self,
        connect: "tuple[str, int] | str",
        *,
        name: str = "worker",
        max_reconnects: int = 8,
        reconnect_base: float = _RECONNECT_BASE_S,
        rng: "random.Random | None" = None,
    ) -> None:
        self._address = connect
        self._name = name
        self._max_reconnects = max_reconnects
        self._reconnect_base = reconnect_base
        self._rng = rng if rng is not None else random.Random()
        self._log: "Callable[[str], None] | None" = None
        #: lifetime worker counters, piggybacked on every heartbeat
        #: frame (the ticker thread reads them under the lock; old
        #: coordinators simply ignore the extra payload key)
        self._metrics = {"chunks": 0, "steps": 0, "exec_s": 0.0}
        self._metrics_lock = threading.Lock()

    def run(self, log: "Callable[[str], None] | None" = None) -> int:
        """Serve until the coordinator says shutdown (or vanishes).

        Returns a process exit code: 0 after an orderly shutdown or a
        coordinator that went away for good, 2 if the coordinator
        rejected this worker's protocol version.
        """
        self._log = log
        failures = 0
        while True:
            try:
                stream = self._connect()
            except _Rejected:
                return 2
            except OSError:
                # before a run the coordinator may not be up yet; after
                # an orderly one it is simply gone — retry either way
                stream = None
            if stream is None:
                failures += 1
                if failures > self._max_reconnects:
                    self._say("giving up: coordinator unreachable")
                    return 0
                self._sleep_backoff(failures)
                continue
            # a completed handshake proves the coordinator is healthy:
            # the backoff schedule starts over for the *next* outage
            failures = 0
            verdict = self._serve(stream)
            if verdict == "shutdown":
                return 0
            if verdict == "rejected":
                return 2
            # connection lost mid-run: back off and reconnect
            failures += 1
            if failures > self._max_reconnects:
                self._say("giving up: coordinator unreachable")
                return 0
            self._sleep_backoff(failures)

    # -- internals ------------------------------------------------------------

    def _say(self, text: str) -> None:
        if self._log is not None:
            self._log(text)

    def _sleep_backoff(self, failures: int) -> None:
        cap = min(
            _RECONNECT_CAP_S, self._reconnect_base * (2 ** (failures - 1))
        )
        delay = self._rng.uniform(0, cap)  # full jitter
        self._say(f"reconnecting in {delay:.2f}s (attempt {failures})")
        time.sleep(delay)

    def _connect(self) -> "MessageStream | None":
        sock = connect_socket(self._address, timeout=5.0)
        stream = MessageStream(sock)
        stream.send("hello", version=PROTOCOL_VERSION, name=self._name)
        try:
            message = stream.recv(timeout=5.0)
        except (ConnectionClosed, ProtocolError):
            stream.close()
            return None
        if message is None:
            stream.close()
            return None
        kind, payload = message
        if kind == "reject":
            self._say(f"rejected: {payload.get('reason')}")
            stream.close()
            raise _Rejected()
        if kind != "welcome":
            stream.close()
            return None
        self._heartbeat_interval = float(payload["heartbeat_interval"])
        self._lease_timeout = float(payload["lease_timeout"])
        self._say(
            f"connected to {format_address(self._address)} "
            f"(heartbeat {self._heartbeat_interval:g}s)"
        )
        return stream

    def _serve(self, stream: MessageStream) -> str:
        """One connection's lifetime; returns why it ended."""
        heartbeats = threading.Event()  # set = suppressed
        stop = threading.Event()

        def ticker() -> None:
            while not stop.wait(self._heartbeat_interval):
                if heartbeats.is_set():
                    continue
                with self._metrics_lock:
                    metrics = dict(self._metrics)
                try:
                    stream.send("heartbeat", metrics=metrics)
                except OSError:
                    return

        thread = threading.Thread(target=ticker, daemon=True)
        thread.start()
        try:
            while True:
                try:
                    message = stream.recv(timeout=1.0)
                except ConnectionClosed:
                    return "lost"
                except (ProtocolError, OSError):
                    return "lost"
                if message is None:
                    continue
                kind, payload = message
                if kind == "shutdown":
                    self._say("shutdown received")
                    return "shutdown"
                if kind == "reject":
                    return "rejected"
                if kind != "task":
                    continue
                outcome = self._run_task(stream, payload, heartbeats)
                if outcome is not None:
                    return outcome
        finally:
            stop.set()
            thread.join(timeout=2.0)
            stream.close()

    def _run_task(
        self, stream: MessageStream, payload: dict, heartbeats: threading.Event
    ) -> "str | None":
        """Execute one leased chunk; ``None`` keeps the connection."""
        task_id = payload["task_id"]
        attempt = payload["attempt"]
        task: ChunkTask = payload["task"]
        fault = task.fault if task.fault in NETWORK_FAULT_KINDS else None
        if fault is not None:
            # strip the network fault before executing: the chunk's
            # *computation* must stay byte-identical; only the
            # transport behavior around it is being sabotaged
            task = replace(task, fault=None)
        if fault == "disconnect":
            self._say(
                f"fault: disconnecting while holding walk "
                f"{task.spec.walk_id} chunk {payload['chunk']}"
            )
            return "lost"  # _serve closes the socket; run() reconnects
        if fault == "stall-heartbeat":
            heartbeats.set()  # go silent: the lease must expire
            self._say(
                f"fault: stalling heartbeats past the "
                f"{self._lease_timeout:g}s lease on walk {task.spec.walk_id}"
            )
            time.sleep(self._lease_timeout * _STALL_FACTOR)
        try:
            result = _execute(task)
        except Exception:  # includes FaultInjected: the ordinary error path
            return self._send_error(stream, payload, traceback.format_exc())
        finally:
            heartbeats.clear()
        started_at = 0 if task.checkpoint is None else task.checkpoint.step
        with self._metrics_lock:
            self._metrics["chunks"] += 1
            self._metrics["steps"] += result.checkpoint.step - started_at
            self._metrics["exec_s"] = round(
                self._metrics["exec_s"] + result.elapsed_s, 6
            )
        try:
            stream.send(
                "result",
                task_id=task_id,
                walk_id=task.spec.walk_id,
                chunk=payload["chunk"],
                attempt=attempt,
                result=result,
            )
            if fault == "duplicate-result":
                self._say(
                    f"fault: retransmitting result for walk "
                    f"{task.spec.walk_id} chunk {payload['chunk']}"
                )
                stream.send(
                    "result",
                    task_id=task_id,
                    walk_id=task.spec.walk_id,
                    chunk=payload["chunk"],
                    attempt=attempt,
                    result=result,
                )
        except OSError:
            return "lost"
        return None

    @staticmethod
    def _send_error(
        stream: MessageStream, payload: dict, detail: str
    ) -> "str | None":
        try:
            stream.send(
                "error",
                task_id=payload["task_id"],
                walk_id=payload["task"].spec.walk_id,
                chunk=payload["chunk"],
                attempt=payload["attempt"],
                detail=detail,
            )
        except OSError:
            return "lost"
        return None


class _Rejected(Exception):
    """Internal: the coordinator rejected our protocol version."""


def run_worker(
    connect: str,
    *,
    name: str = "worker",
    max_reconnects: int = 8,
    reconnect_base: float = _RECONNECT_BASE_S,
    log: "Callable[[str], None] | None" = None,
) -> int:
    """CLI entry point: serve one worker process, return its exit code.

    ``connect`` is the text form (``"host:port"`` / ``"unix:/path"``);
    :class:`WorkerClient` takes the parsed one.
    """
    client = WorkerClient(
        parse_address(connect),
        name=name,
        max_reconnects=max_reconnects,
        reconnect_base=reconnect_base,
    )
    try:
        return client.run(log=log)
    except _Rejected:
        return 2


def _local_worker(address: str, name: str) -> None:
    """Body of one local pool process: serve the coordinator's private
    socket until shutdown.  No reconnects: a local worker whose
    connection ends is lost to the coordinator, which respawns its
    slot."""
    WorkerClient(address, name=name, max_reconnects=0).run()
