"""Pooled, multiplexed client connections for the TCP transport.

A connection per frame would pay a dial (SYN/ACK + thread spawn) for
every hop, message, and directory report — the dominant agent-transfer
cost identified by the lightweight-MA literature.  This module keeps one
keepalive socket per destination URN and multiplexes many concurrent
request/reply exchanges over it:

- every wire message is length-prefixed, and its envelope is one ``struct``
  header over length-prefixed UTF-8 strings, nothing a peer must unpickle
  (DESIGN.md §6.2).  A request is ``(tag, flags, correlation id, header
  pairs, segments)``, then the frame's kind, source, dest and header
  pairs as strings, each out-of-band segment's size, and the payload; a
  frame without buffers has zero segments.  The segments (pickle protocol
  5 buffers of a naplet image, DESIGN.md §6.7) follow the envelope raw:
  envelope and segments leave in one vectored write straight from the
  buffer memory, and the server reads each announced size back as one
  ``bytes``, small ones a run at a time.  A reply is ``(tag, status,
  correlation id)`` and the handler's reply bytes, or, with status
  ``FAILED``, the text of why the handler answered nothing;
- a :class:`PooledConnection` owns the socket: senders serialize on a write
  lock, a single reader thread demultiplexes replies by correlation id to
  per-request waiters, each parked on a bare lock, so N threads can have N
  requests in flight at once;
- the :class:`ConnectionPool` keeps at most one live connection per
  destination, transparently redials when a kept-alive peer went away, and
  reports opens and reuses to the transport's telemetry through callbacks.
  Bytes are the transport's business: it books the frame it sent, not the
  envelope that carried it.

Retry semantics: a request that dies on a *reused* connection (stale
keepalive — the peer restarted or idled us out) is retried once on a fresh
connection.  A failure on a freshly dialed connection, a timeout, or a
remote handler error is never retried.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
from typing import Callable

from repro.core.errors import NapletCommunicationError
from repro.core.strings import pack_strings, unpack_strings
from repro.transport.base import Frame

__all__ = ["ConnectionPool", "PooledConnection", "ConnectionClosedError"]

_LEN_SIZE = 4
MAX_FRAME = 64 * 1024 * 1024
COALESCE_MAX = 64 * 1024  # a run of segments up to this is read in one recv
_IOV_MAX = 1024  # most buffers one sendmsg takes (Linux UIO_MAXIOV)

# Envelope headers: a request's (tag, flags, correlation id, header pairs,
# segments) and a reply's (tag, status, correlation id).
_REQUEST = struct.Struct("!BBQBH")
_REPLY = struct.Struct("!BBQ")
REQUEST, REPLY = 1, 2  # tags; a pickle starts 0x80 and is neither
EXPECTS_REPLY = 1  # the one request flag
OK, FAILED = 0, 1  # reply status


class ConnectionClosedError(NapletCommunicationError):
    """The pooled connection died before (or while) a reply arrived."""


def _nbytes(segment) -> int:
    return segment.nbytes if isinstance(segment, memoryview) else len(segment)


def send_blob_segments(sock: socket.socket, blob: bytes, segments: tuple = ()) -> int:
    """Write ``blob`` (length-prefixed) and each raw segment in one
    vectored ``sendmsg``: one syscall per frame however many segments.

    The segments go to the socket straight from their backing memory —
    memoryviews from ``PickleBuffer.raw()`` are never concatenated into a
    userspace copy.  Returns the total bytes written past the prefix.
    """
    sizes = [_nbytes(segment) for segment in segments]
    if len(blob) > MAX_FRAME:
        raise NapletCommunicationError(f"frame too large: {len(blob)} bytes")
    if sizes and max(sizes) > MAX_FRAME:
        raise NapletCommunicationError(f"frame segment too large: {max(sizes)} bytes")
    total = len(blob) + sum(sizes)
    parts = [len(blob).to_bytes(_LEN_SIZE, "big") + blob, *segments]
    left = total + _LEN_SIZE
    while True:
        sent = sock.sendmsg(parts[:_IOV_MAX])
        left -= sent
        if not left:
            return total
        # Short write (signal, socket timeout, more than IOV_MAX parts):
        # drop what went out and send the rest.
        first = 0
        while sent >= _nbytes(parts[first]):
            sent -= _nbytes(parts[first])
            first += 1
        parts = parts[first:]
        if sent:
            parts[0] = memoryview(parts[0]).cast("B")[sent:]


send_blob = send_blob_segments  # a frame without segments is the same one write


def encode_request(frame: Frame, cid: int, expects_reply: bool) -> bytes:
    """The request envelope of *frame*: all of it but its buffers, whose
    sizes it announces."""
    strings = [frame.kind, frame.source, frame.dest]
    for pair in frame.headers.items():
        strings += pair
    sizes = [_nbytes(buffer) for buffer in frame.buffers]
    try:
        head = _REQUEST.pack(REQUEST, expects_reply, cid, len(frame.headers), len(sizes))
        announced = struct.pack(f"!{len(sizes)}I", *sizes)
    except struct.error as exc:
        raise NapletCommunicationError(f"frame does not fit the envelope: {exc}") from None
    return b"".join((head, pack_strings(strings), announced, frame.payload))


def decode_request(blob: bytes) -> tuple[int, bool, Frame, tuple[int, ...]]:
    """``(correlation id, expects_reply, frame, segment sizes)`` of a request
    envelope; any other blob raises :class:`NapletCommunicationError`."""
    try:
        tag, flags, cid, pairs, count = _REQUEST.unpack_from(blob)
    except struct.error:
        tag = None
    if tag != REQUEST or flags > EXPECTS_REPLY:
        raise NapletCommunicationError(f"not a request envelope: {blob[:16]!r}")
    strings, offset = unpack_strings(blob, _REQUEST.size, 3 + 2 * pairs)
    end = offset + 4 * count
    if end > len(blob):
        raise NapletCommunicationError("not a request envelope: segment sizes cut short")
    sizes = struct.unpack_from(f"!{count}I", blob, offset)
    headers = dict(zip(strings[3::2], strings[4::2]))
    frame = Frame(strings[0], strings[1], strings[2], blob[end:], headers, cid)
    return cid, bool(flags), frame, sizes


def encode_reply(cid: int, ok: bool, body: bytes) -> bytes:
    return _REPLY.pack(REPLY, OK if ok else FAILED, cid) + body


def decode_reply(blob: bytes) -> tuple[int, bool, bytes]:
    """``(correlation id, ok, body)`` of a reply envelope; any other blob
    raises :class:`NapletCommunicationError`."""
    try:
        tag, status, cid = _REPLY.unpack_from(blob)
    except struct.error:
        tag = None
    if tag != REPLY or status not in (OK, FAILED):
        raise NapletCommunicationError(f"not a reply envelope: {blob[:16]!r}")
    return cid, status == OK, blob[_REPLY.size:]


def _recv_exact(sock: socket.socket, count: int, allow_eof: bool = False) -> bytes | None:
    # MSG_WAITALL fills a whole body in one recv, and joining one chunk
    # returns it as it is: the kernel's copy-out is then the only copy.
    # The loop finishes a read cut short by a signal or a socket timeout.
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining, socket.MSG_WAITALL)
        if not chunk:
            if allow_eof and remaining == count:
                return None  # clean close at a message boundary
            raise NapletCommunicationError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_blob(sock: socket.socket, allow_eof: bool = False) -> bytes | None:
    prefix = _recv_exact(sock, _LEN_SIZE, allow_eof=allow_eof)
    if prefix is None:
        return None
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME:
        raise NapletCommunicationError(f"frame too large: {length} bytes")
    return _recv_exact(sock, length)


def recv_segments(sock: socket.socket, sizes: list[int]) -> tuple:
    """Read the announced out-of-band segments, each as ``bytes``.

    A run of small segments (``COALESCE_MAX`` in total) is read in one
    recv and sliced; a larger segment is read alone, as the ``bytes`` it
    arrived in: the serializer caches it as it is and lands a raw field's
    segment as the value itself (a pickled field's value is a second copy).
    """
    if sizes and max(sizes) > MAX_FRAME:
        raise NapletCommunicationError(f"frame segment too large: {max(sizes)} bytes")
    segments: list[bytes] = []
    start = 0
    while start < len(sizes):
        end, total = start + 1, sizes[start]
        while end < len(sizes) and total + sizes[end] <= COALESCE_MAX:
            total += sizes[end]
            end += 1
        run, offset = _recv_exact(sock, total), 0
        for size in sizes[start:end]:
            # A segment read alone: the full slice is ``run`` itself, no copy.
            segments.append(run[offset:offset + size])
            offset += size
        start = end
    return tuple(segments)


class _Waiter:
    """Parking spot for one in-flight request's reply: the requester parks
    on ``latch``, a bare lock born held, and whoever takes the waiter out
    of ``_pending`` (the reader thread, or ``close``) releases it once."""

    __slots__ = ("latch", "payload", "error")

    def __init__(self) -> None:
        self.latch = threading.Lock()
        self.latch.acquire()
        self.payload: bytes | None = None
        self.error: str | None = None


class PooledConnection:
    """One keepalive socket to a destination, shared by many requests."""

    def __init__(self, sock: socket.socket, dest: str) -> None:
        # The dialer's connect timeout must not linger on the keepalive
        # socket: an idle reader would otherwise die of socket.timeout.
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.sock = sock
        self.dest = dest
        self._send_lock = threading.Lock()
        self._pending: dict[int, _Waiter] = {}
        self._pending_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._dead = False
        threading.Thread(
            target=self._read_loop, name=f"tcp-pool-reader-{dest}", daemon=True
        ).start()

    @property
    def alive(self) -> bool:
        return not self._dead

    # -- reader: demultiplex replies by correlation id --------------------- #

    def _read_loop(self) -> None:
        try:
            while True:
                blob = recv_blob(self.sock, allow_eof=True)
                if blob is None:
                    break
                cid, ok, body = decode_reply(blob)
                with self._pending_lock:
                    waiter = self._pending.pop(cid, None)
                if waiter is None:
                    continue  # request timed out and gave up; drop the reply
                if ok:
                    waiter.payload = body
                else:
                    waiter.error = body.decode(errors="replace")
                waiter.latch.release()
        except (NapletCommunicationError, OSError):
            pass  # a dead wire or a malformed reply kills the connection below
        finally:
            self.close()

    # -- wire operations ---------------------------------------------------- #

    def _post(self, frame: Frame, expects_reply: bool, cid: int) -> None:
        """Write one request: its envelope, then its buffers as raw
        segments from their own memory (zero-copy)."""
        if self._dead:
            raise ConnectionClosedError(f"pooled connection to {self.dest} is closed")
        blob = encode_request(frame, cid, expects_reply)
        try:
            with self._send_lock:
                send_blob_segments(self.sock, blob, frame.buffers)
        except OSError as exc:
            self.close()
            raise ConnectionClosedError(f"pooled connection to {self.dest} died: {exc}") from exc

    def send(self, frame: Frame) -> None:
        """Fire-and-forget delivery."""
        self._post(frame, False, next(self._ids))

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        """Send *frame* and block until its correlated reply arrives."""
        waiter = _Waiter()
        cid = next(self._ids)
        with self._pending_lock:
            self._pending[cid] = waiter
        try:
            self._post(frame, True, cid)
            if not waiter.latch.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                raise NapletCommunicationError(f"request to {frame.dest} timed out")
        except BaseException:
            with self._pending_lock:
                self._pending.pop(cid, None)  # a late reply is dropped by the reader
            raise
        if waiter.error is not None:
            if waiter.error == "connection closed":
                raise ConnectionClosedError(f"pooled connection to {self.dest} closed mid-request")
            raise NapletCommunicationError(
                f"request to {frame.dest} failed remotely: {waiter.error}"
            )
        assert waiter.payload is not None
        return waiter.payload

    def close(self) -> None:
        self._dead = True
        try:
            self.sock.close()
        except OSError:
            pass
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for waiter in pending:
            waiter.error = "connection closed"
            waiter.latch.release()


class ConnectionPool:
    """At most one live :class:`PooledConnection` per destination URN."""

    def __init__(
        self,
        dialer: Callable[[str], socket.socket],
        on_open: Callable[[str], None] | None = None,
        on_reuse: Callable[[str], None] | None = None,
    ) -> None:
        self._dialer = dialer
        self._on_open = on_open
        self._on_reuse = on_reuse
        self._conns: dict[str, PooledConnection] = {}
        self._lock = threading.Lock()
        self._dest_locks: dict[str, threading.Lock] = {}

    def _dest_lock(self, dest: str) -> threading.Lock:
        with self._lock:
            return self._dest_locks.setdefault(dest, threading.Lock())

    def _live(self, dest: str) -> PooledConnection | None:
        with self._lock:
            conn = self._conns.get(dest)
        if conn is None or not conn.alive:
            return None
        if self._on_reuse is not None:
            self._on_reuse(dest)
        return conn

    def _acquire(self, dest: str) -> tuple[PooledConnection, bool]:
        """Live connection for *dest*; second element is True when freshly dialed."""
        conn = self._live(dest)
        if conn is not None:
            return conn, False
        with self._dest_lock(dest):
            # Re-check under the per-destination lock: another thread may
            # have redialed while we waited.
            conn = self._live(dest)
            if conn is not None:
                return conn, False
            conn = PooledConnection(self._dialer(dest), dest)
            with self._lock:
                self._conns[dest] = conn
            if self._on_open is not None:
                self._on_open(dest)
            return conn, True

    def _invalidate(self, dest: str, conn: PooledConnection) -> None:
        conn.close()
        with self._lock:
            if self._conns.get(dest) is conn:
                del self._conns[dest]

    def _exchange(self, frame: Frame, timeout: float | None, expects_reply: bool) -> bytes | None:
        """One request or one-way send on the pooled connection to its dest.

        Stale keepalive (the peer closed while we were idle): a failure on
        a *reused* connection is retried once; a failure on a freshly
        dialed connection, or a second failure, propagates.
        """
        for retried in (False, True):
            conn, fresh = self._acquire(frame.dest)
            try:
                if expects_reply:
                    return conn.request(frame, timeout)
                conn.send(frame)
                return None
            except ConnectionClosedError:
                self._invalidate(frame.dest, conn)
                if fresh or retried:
                    raise

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        return self._exchange(frame, timeout, True)

    def send(self, frame: Frame) -> None:
        self._exchange(frame, None, False)

    def connection_to(self, dest: str) -> PooledConnection | None:
        """The live pooled connection toward *dest*, if any (test helper)."""
        with self._lock:
            return self._conns.get(dest)

    def live_destinations(self) -> list[str]:
        """Destination URNs with a live keepalive connection right now."""
        with self._lock:
            return sorted(dest for dest, conn in self._conns.items() if conn.alive)

    def close(self) -> None:
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            conn.close()
