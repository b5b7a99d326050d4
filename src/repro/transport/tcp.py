"""Localhost TCP transport.

Proves the Naplet wire protocol over real sockets.  Each registered
endpoint gets a listening socket on 127.0.0.1; connections are persistent
and multiplexed: a client-side :class:`~repro.transport.pool.ConnectionPool`
keeps one keepalive socket per destination URN, frames carry correlation
ids so many concurrent ``request()``s share that socket, and the server
side serves many frames per connection, dispatching handler work to a
bounded per-endpoint worker pool instead of spawning a thread per accept.

The legacy one-frame-per-connection envelope ``(frame, expects_reply)`` is
still accepted (and produced with ``pooled=False``), so a pooled server
interoperates with an unpooled client — the benchmark baseline.

Caveat for reentrant handlers: handler work runs on a bounded pool
(``server_workers`` per endpoint), so deeply nested request chains that
revisit the *same* endpoint more times than it has workers can starve.
Forwarding chains are hop-bounded well below the default, and distinct
endpoints use distinct pools.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.errors import NapletCommunicationError
from repro.transport import pool as _poolmod
from repro.transport.base import Frame, FrameHandler, Transport
from repro.transport.pool import (
    ConnectionPool,
    ERR,
    REP,
    REQ,
    REQB,
    recv_blob,
    recv_segments,
    send_blob,
)

__all__ = ["TcpTransport"]

_MAX_FRAME = _poolmod.MAX_FRAME  # re-exported for tests predating pool.py


def _hang_up(sock: socket.socket) -> None:
    """shutdown() then close(): on Linux close() alone sends no FIN and
    leaves a thread blocked in accept() or recv() on the socket asleep."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Endpoint:
    """Listening socket + accept loop + bounded worker pool for one URN."""

    def __init__(self, urn: str, handler: FrameHandler, transport: "TcpTransport") -> None:
        self.urn = urn
        self.handler = handler
        self._transport = transport
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(64)
        self.port = self.sock.getsockname()[1]
        self._closing = threading.Event()
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._workers = ThreadPoolExecutor(
            max_workers=transport.server_workers, thread_name_prefix=f"tcp-work-{urn}"
        )
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-accept-{urn}", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return  # socket closed
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve, args=(conn,), name=f"tcp-conn-{self.urn}", daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        """Serve frames on one connection until the peer closes it.

        Multiplexed requests are handed to the worker pool and replied to
        out of order, tagged by correlation id; the legacy envelope serves
        one frame and closes, as the old protocol did.
        """
        write_lock = threading.Lock()
        try:
            with conn:
                while not self._closing.is_set():
                    blob = recv_blob(conn, allow_eof=True)
                    if blob is None:
                        break  # clean close at a frame boundary
                    self._transport._account_received(self.urn, len(blob))
                    envelope = pickle.loads(blob)
                    if len(envelope) == 5 and envelope[0] == REQB:
                        # Segmented request: raw out-of-band buffers follow
                        # the header blob on the same connection (the sender
                        # holds its write lock across the whole message).
                        _tag, cid, frame, expects_reply, sizes = envelope
                        frame.buffers = recv_segments(conn, sizes)
                        self._transport._account_received(self.urn, sum(sizes))
                        self._workers.submit(
                            self._handle_one, conn, write_lock, cid, frame, expects_reply
                        )
                    elif len(envelope) == 4 and envelope[0] == REQ:
                        _tag, cid, frame, expects_reply = envelope
                        self._workers.submit(
                            self._handle_one, conn, write_lock, cid, frame, expects_reply
                        )
                    else:
                        frame, expects_reply = envelope
                        reply = self.handler(frame)
                        if expects_reply:
                            out = pickle.dumps(reply if reply is not None else b"")
                            send_blob(conn, out)
                            self._transport._account_sent(self.urn, len(out))
                        break
        except Exception as exc:
            # Connection-scoped failure (bad frame, handler error, dead
            # peer): the connection is dropped, but not silently — the
            # transport counts it and records it in the bound EventLog.
            self._transport._record_connection_error(self.urn, exc)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

    def _handle_one(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        cid: int,
        frame: Frame,
        expects_reply: bool,
    ) -> None:
        try:
            reply = self.handler(frame)
        except Exception as exc:
            if not expects_reply:
                self._transport._record_connection_error(self.urn, exc)
                return
            # A handler failure poisons only this request, not the shared
            # connection: the caller gets a correlated error reply.
            blob = pickle.dumps((ERR, cid, f"{type(exc).__name__}: {exc}"))
        else:
            if not expects_reply:
                return
            blob = pickle.dumps((REP, cid, reply if reply is not None else b""))
        try:
            with write_lock:
                send_blob(conn, blob)
            self._transport._account_sent(self.urn, len(blob))
        except OSError:
            pass  # requester already gone; it will time out on its side

    def drop_connections(self) -> None:
        """Close every live served connection (keepalive churn / shutdown)."""
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            _hang_up(conn)

    def close(self) -> None:
        self._closing.set()
        _hang_up(self.sock)  # or the accept thread pins handler and server
        self.drop_connections()
        self._workers.shutdown(wait=False)


class TcpTransport(Transport):
    """Frame router over localhost TCP sockets with pooled connections."""

    def __init__(
        self,
        connect_timeout: float = 5.0,
        pooled: bool = True,
        server_workers: int = 8,
    ) -> None:
        super().__init__()
        self._endpoints: dict[str, _Endpoint] = {}
        self._ports: dict[str, int] = {}
        self._connect_timeout = connect_timeout
        self._eplock = threading.RLock()
        self.pooled = pooled
        self.server_workers = server_workers
        self._pool: ConnectionPool | None = (
            ConnectionPool(
                dialer=self._connect,
                on_open=self._note_connection_opened,
                on_reuse=self._note_connection_reused,
                on_traffic=self._pool_traffic,
            )
            if pooled
            else None
        )

    def _pool_traffic(self, frame: Frame, sent: int, received: int) -> None:
        """Attribute a pooled exchange's wire bytes to the sending endpoint."""
        self._account_sent(frame.source, sent)
        if received:
            self._account_received(frame.source, received)

    @property
    def pool(self) -> ConnectionPool | None:
        return self._pool

    def register(self, urn: str, handler: FrameHandler) -> None:
        super().register(urn, handler)
        endpoint = _Endpoint(urn, handler, self)
        with self._eplock:
            self._endpoints[urn] = endpoint
            self._ports[urn] = endpoint.port

    def unregister(self, urn: str) -> None:
        super().unregister(urn)
        with self._eplock:
            endpoint = self._endpoints.pop(urn, None)
            self._ports.pop(urn, None)
        if endpoint is not None:
            endpoint.close()

    def port_of(self, urn: str) -> int:
        with self._eplock:
            try:
                return self._ports[urn]
            except KeyError:
                raise NapletCommunicationError(f"no endpoint registered at {urn}") from None

    def worker_backlog(self, urn: str | None = None) -> int:
        """Frames queued behind the inbound worker pool(s), not yet served.

        The health plane's wedged-server rule polls this: a sustained
        non-zero backlog means every ``server_workers`` thread is busy and
        requests are waiting.  ``urn`` restricts the count to one
        endpoint; the default sums the whole transport.
        """
        with self._eplock:
            endpoints = (
                [self._endpoints[urn]]
                if urn is not None and urn in self._endpoints
                else list(self._endpoints.values()) if urn is None else []
            )
        backlog = 0
        for endpoint in endpoints:
            queue = getattr(endpoint._workers, "_work_queue", None)
            if queue is not None:
                backlog += queue.qsize()
        return backlog

    def live_peers(self, source_urn: str) -> list[str]:
        """Destinations with a live pooled keepalive (unpooled: none).

        The pool is shared by every endpoint of this transport object, so
        this is the opportunistic superset of peers *some* local endpoint
        has talked to — exactly the connections a heartbeat rides for free.
        """
        if self._pool is None:
            return []
        return [d for d in self._pool.live_destinations() if d != source_urn]

    def _connect(self, urn: str) -> socket.socket:
        port = self.port_of(urn)
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=self._connect_timeout)
        except OSError as exc:
            raise NapletCommunicationError(f"cannot reach {urn}: {exc}") from exc
        return sock

    def send(self, frame: Frame) -> None:
        started = time.monotonic()
        if self._pool is not None:
            self._pool.send(frame)
        else:
            sock = self._connect(frame.dest)
            self._note_connection_opened(frame.dest)
            try:
                with sock:
                    blob = pickle.dumps((frame.picklable(), False))
                    send_blob(sock, blob)
                    self._account_sent(frame.source, len(blob))
            except OSError as exc:
                raise NapletCommunicationError(f"send to {frame.dest} failed: {exc}") from exc
        self._observe_wire(frame, time.monotonic() - started)

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        started = time.monotonic()
        if self._pool is not None:
            reply = self._pool.request(frame, timeout)
        else:
            sock = self._connect(frame.dest)
            self._note_connection_opened(frame.dest)
            try:
                with sock:
                    if timeout is not None:
                        sock.settimeout(timeout)
                    blob = pickle.dumps((frame.picklable(), True))
                    send_blob(sock, blob)
                    self._account_sent(frame.source, len(blob))
                    raw = recv_blob(sock)
                    self._account_received(frame.source, len(raw))
                    reply = pickle.loads(raw)
            except socket.timeout as exc:
                raise NapletCommunicationError(f"request to {frame.dest} timed out") from exc
            except OSError as exc:
                raise NapletCommunicationError(f"request to {frame.dest} failed: {exc}") from exc
        self._observe_wire(frame, time.monotonic() - started)
        return reply

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
        with self._eplock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
            self._ports.clear()
        for endpoint in endpoints:
            endpoint.close()
