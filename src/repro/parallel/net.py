"""Socket message framing for the distributed portfolio tier.

The wire format is deliberately boring: every message is one *frame* —
a 4-byte magic, a 4-byte big-endian payload length, and a pickled
``(kind, payload)`` tuple — over a stream socket (TCP or a Unix domain
socket).  Everything that crosses the wire is spawn-safe data
(:class:`~repro.parallel.jobs.WalkSpec`,
:class:`~repro.parallel.jobs.ChunkTask`,
:class:`~repro.anneal.WalkCheckpoint`): nothing live is ever pickled.

Connections open with a **version handshake**: the worker sends
``hello`` carrying :data:`PROTOCOL_VERSION`, the coordinator answers
``welcome`` (carrying the lease/heartbeat parameters the worker must
honor) or ``reject``.  A version mismatch therefore fails loudly at
connect time instead of corrupting a run halfway through.

.. warning::
   Frames are pickled Python objects, so the socket must only ever be
   exposed on a **trusted network** (loopback, a private cluster
   fabric, an SSH tunnel, or the local pool's private Unix socket).
   There is no authentication and no encryption — exactly like
   ``multiprocessing``'s own connection machinery, which this
   replaces.

Message kinds
-------------

====================  =========  ==========================================
kind                  direction  payload
====================  =========  ==========================================
``hello``             w -> c     ``version``, ``name``
``welcome``           c -> w     ``version``, ``heartbeat_interval``,
                                 ``lease_timeout``
``reject``            c -> w     ``reason``
``task``              c -> w     ``task_id``, ``chunk``, ``attempt``,
                                 ``task`` (a :class:`ChunkTask`)
``heartbeat``         w -> c     —
``result``            w -> c     ``task_id``, ``walk_id``, ``chunk``,
                                 ``attempt``, ``result`` (a
                                 :class:`ChunkResult`)
``error``             w -> c     ``task_id``, ``walk_id``, ``chunk``,
                                 ``attempt``, ``detail`` (traceback text)
``shutdown``          c -> w     —
====================  =========  ==========================================
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

#: bump on any incompatible change to the frame format or message set
PROTOCOL_VERSION = 1

#: frame preamble: magic + payload length (big-endian)
_MAGIC = b"RPP\x01"
_HEADER = struct.Struct("!4sI")

#: a frame longer than this is a corrupt stream, not a message (the
#: largest legitimate payload is one pickled walk checkpoint)
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: prefix selecting a Unix domain socket address (``unix:/path.sock``)
UNIX_PREFIX = "unix:"


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not this protocol."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF), possibly mid-frame."""


# -- addresses ----------------------------------------------------------------


def parse_address(text: str) -> "tuple[str, int] | str":
    """``"host:port"`` -> ``(host, port)``; ``"unix:/path"`` -> ``"/path"``.

    The TCP form splits on the *last* colon so IPv6 literals and
    ``host:0`` (ephemeral port) both parse.
    """
    if text.startswith(UNIX_PREFIX):
        path = text[len(UNIX_PREFIX):]
        if not path:
            raise ValueError(f"empty unix socket path in address {text!r}")
        return path
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad address {text!r}: expected HOST:PORT or {UNIX_PREFIX}PATH"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad port {port_text!r} in address {text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in address {text!r}")
    return (host.strip("[]"), port)


def format_address(address: "tuple[str, int] | str") -> str:
    """Inverse of :func:`parse_address` (modulo IPv6 brackets)."""
    if isinstance(address, str):
        return UNIX_PREFIX + address
    host, port = address[0], address[1]
    return f"{host}:{port}"


def listen_socket(address: "tuple[str, int] | str") -> socket.socket:
    """A listening TCP or Unix socket bound to ``address``."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(address)
            sock.listen()
        except OSError:
            sock.close()
            raise
        return sock
    return socket.create_server(address, reuse_port=False)


def connect_socket(
    address: "tuple[str, int] | str", timeout: float | None = None
) -> socket.socket:
    """A connected TCP or Unix socket to ``address``."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(address)
        except OSError:
            sock.close()
            raise
        return sock
    return socket.create_connection(address, timeout=timeout)


def bound_address(sock: socket.socket) -> "tuple[str, int] | str":
    """The address a listening socket actually bound (resolves port 0)."""
    name = sock.getsockname()
    if isinstance(name, str):
        return name
    return (name[0], name[1])


# -- frames -------------------------------------------------------------------


def pack_frame(kind: str, payload: dict) -> bytes:
    """One wire frame for ``(kind, payload)``."""
    blob = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(blob)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(_MAGIC, len(blob)) + blob


class FrameDecoder:
    """Incremental frame parser for the coordinator's event loop.

    Sockets deliver arbitrary byte runs; :meth:`feed` buffers them and
    returns every *complete* message, leaving partial frames buffered
    for the next readiness event.  A bad magic or an absurd length is a
    :class:`ProtocolError` — the stream is unrecoverable after either.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> "list[tuple[str, dict]]":
        self._buffer.extend(data)
        messages: list[tuple[str, dict]] = []
        while len(self._buffer) >= _HEADER.size:
            magic, length = _HEADER.unpack_from(self._buffer)
            if magic != _MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(magic)!r}: peer is not speaking "
                    "the portfolio protocol"
                )
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
                    "limit: corrupt stream"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            blob = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                kind, payload = pickle.loads(blob)
            except Exception as exc:
                raise ProtocolError(f"undecodable frame payload: {exc}") from None
            if not isinstance(kind, str) or not isinstance(payload, dict):
                raise ProtocolError(
                    f"malformed message (kind={type(kind).__name__}, "
                    f"payload={type(payload).__name__})"
                )
            messages.append((kind, payload))
        return messages


class MessageStream:
    """Blocking framed messaging over one socket — the worker side.

    ``send`` is serialized by a lock so the heartbeat thread and the
    task loop can share the connection; ``recv`` blocks up to
    ``timeout`` seconds and returns ``None`` on timeout (so callers can
    interleave liveness checks), raising :class:`ConnectionClosed` on
    EOF.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._pending: list[tuple[str, dict]] = []
        self._send_lock = threading.Lock()

    def send(self, kind: str, **payload) -> None:
        frame = pack_frame(kind, payload)
        with self._send_lock:
            self._sock.sendall(frame)

    def recv(self, timeout: float | None = None) -> "tuple[str, dict] | None":
        if self._pending:
            return self._pending.pop(0)
        self._sock.settimeout(timeout)
        while True:
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                return None
            if not data:
                raise ConnectionClosed("peer closed the connection")
            self._pending.extend(self._decoder.feed(data))
            if self._pending:
                return self._pending.pop(0)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
