"""Localhost TCP transport.

Proves the Naplet wire protocol over real sockets.  Each registered
endpoint gets a listening socket on 127.0.0.1; connections are persistent
and multiplexed: a client-side :class:`~repro.transport.pool.ConnectionPool`
keeps one keepalive socket per destination URN, frames carry correlation
ids so many concurrent ``request()``s share that socket, and the server
side serves each connection with a bounded set of threads, leader/followers
style: the thread that read a frame runs its handler and writes its reply,
while another reads the next frame (see :meth:`_Endpoint._serve`).  The one
wire envelope is the pool's ``struct`` request (:func:`~repro.transport.pool.
decode_request`), read before anything reaches a handler and unpickled
nowhere; any other well-framed blob is counted, recorded, and costs its
sender that connection.  A handler that raises or answers a request with
nothing costs only that request: its requester gets a ``FAILED`` reply.

Caveat for reentrant handlers: at most ``server_workers`` handlers run at
once per *connection*, and frames behind them wait unread, so a nested
request chain that comes back over the same connection more times than
that starves.  Forwarding chains are hop-bounded well below the default,
and distinct source transports use distinct connections.
"""

from __future__ import annotations

import socket
import threading

from repro.core.errors import NapletCommunicationError
from repro.transport.base import Frame, FrameHandler, Transport, host_of
from repro.transport.pool import (
    ConnectionPool,
    decode_request,
    encode_reply,
    recv_blob,
    recv_segments,
    send_blob,
)

__all__ = ["TcpTransport"]


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


class _Served:
    """One accepted connection and the threads that serve it."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.read_lock = threading.Lock()  # held by the leader: the thread in recv
        self.write_lock = threading.Lock()
        self.lock = threading.Lock()  # guards the two counts below
        self.threads = 1  # serving this connection
        self.busy = 0  # of those, inside a handler (or writing its reply)
        self.closed = False


class _Endpoint:
    """Listening socket + accept loop + leader/followers serving for one URN."""

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
        self._conns: set[_Served] = set()
        self._conns_lock = threading.Lock()
        threading.Thread(
            target=self._accept_loop, name=f"tcp-accept-{urn}", daemon=True
        ).start()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _addr = self.sock.accept()
            except OSError:
                return  # socket closed
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Served(sock)
            with self._conns_lock:
                self._conns.add(conn)
            self._add_thread(conn)

    def _add_thread(self, conn: _Served) -> None:
        threading.Thread(
            target=self._serve, args=(conn,), name=f"tcp-conn-{self.urn}", daemon=True
        ).start()

    def _serve(self, conn: _Served) -> None:
        """Serve frames on one connection until the peer closes it.

        Leader/followers: the thread holding ``read_lock`` reads one frame,
        lets a follower read the next, and runs the handler and writes the
        correlated reply itself — so replies go out of order and a frame
        costs no hand-off.  A thread is added, up to ``server_workers``,
        only when a frame arrives while no follower is left to take over.
        """
        try:
            while True:
                with conn.read_lock:
                    request = None if conn.closed else self._read_request(conn.sock)
                    if request is None:
                        conn.closed = True  # followers wake up, see it and leave too
                        break
                    with conn.lock:
                        conn.busy += 1
                        grow = conn.busy == conn.threads < self._transport.server_workers
                        if grow:
                            conn.threads += 1
                if grow:
                    self._add_thread(conn)
                try:
                    self._handle_one(conn, *request)
                finally:
                    with conn.lock:
                        conn.busy -= 1
        except Exception as exc:
            # Connection-scoped failure (bad frame, unknown envelope, dead
            # peer): the connection is dropped, but not silently — the
            # transport counts it and records it in the bound journal.
            conn.closed = True
            self._transport._record_connection_error(self.urn, exc)
        _hang_up(conn.sock)
        with self._conns_lock:
            self._conns.discard(conn)

    def _read_request(self, sock: socket.socket) -> tuple[int, Frame, bool] | None:
        """Next multiplexed request on *sock*: (correlation id, frame,
        expects_reply); None once the connection is done."""
        blob = None if self._closing.is_set() else recv_blob(sock, allow_eof=True)
        if blob is None:
            return None  # clean close at a frame boundary
        # Anything but a request raises: _serve records it and hangs up.
        cid, expects_reply, frame, sizes = decode_request(blob)
        if sizes:
            # Raw out-of-band buffers follow the envelope on the same
            # connection (the sender writes both at once).
            frame.buffers = recv_segments(sock, sizes)
        return cid, frame, expects_reply

    def _handle_one(self, conn: _Served, cid: int, frame: Frame, expects_reply: bool) -> None:
        try:
            reply = self.handler(frame)
            if reply is None and expects_reply:
                raise NapletCommunicationError(f"no reply for {frame.kind} frame")
        except Exception as exc:
            if not expects_reply:
                self._transport._record_connection_error(self.urn, exc)
                return
            # A handler failure poisons only this request, not the shared
            # connection: the caller gets a correlated error reply.
            text = f"{type(exc).__name__}: {exc}"
            blob = encode_reply(cid, False, text.encode(errors="replace"))
        else:
            if not expects_reply:
                return
            blob = encode_reply(cid, True, reply)
        try:
            with conn.write_lock:
                send_blob(conn.sock, blob)
        except OSError:
            pass  # requester already gone; it will time out on its side

    def drop_connections(self) -> None:
        """Close every live served connection (keepalive churn / shutdown)."""
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            _hang_up(conn.sock)

    def close(self) -> None:
        self._closing.set()
        _hang_up(self.sock)  # or the accept thread pins handler and server
        self.drop_connections()


class TcpTransport(Transport):
    """Frame router over localhost TCP sockets with pooled connections."""

    def __init__(
        self,
        connect_timeout: float = 5.0,
        pooled: bool = True,
        server_workers: int = 8,
    ) -> None:
        if not pooled:  # the keyword selects nothing; the frozen journey benchmark passes True
            raise ValueError("TcpTransport is always pooled; pooled=False was removed")
        super().__init__()
        self._endpoints: dict[str, _Endpoint] = {}
        self._connect_timeout = connect_timeout
        self._eplock = threading.RLock()
        self.server_workers = server_workers
        self.pool = ConnectionPool(
            dialer=self._connect,
            on_open=self._note_connection_opened,
            on_reuse=self._note_connection_reused,
        )

    def register(self, urn: str, handler: FrameHandler) -> None:
        super().register(urn, handler)
        endpoint = _Endpoint(urn, handler, self)
        with self._eplock:
            self._endpoints[urn] = endpoint

    def unregister(self, urn: str) -> None:
        super().unregister(urn)
        with self._eplock:
            endpoint = self._endpoints.pop(urn, None)
        if endpoint is not None:
            endpoint.close()

    def port_of(self, urn: str) -> int:
        with self._eplock:
            endpoint = self._endpoints.get(urn)
        if endpoint is None:
            raise NapletCommunicationError(f"no endpoint registered at {urn}")
        return endpoint.port

    def worker_backlog(self, urn: str | None = None) -> int:
        """Served connections whose ``server_workers`` threads are all
        inside handlers, so the next frame on them waits unread.

        The health plane's wedged-server rule polls this: a sustained
        non-zero backlog means a connection is saturated and requests
        are waiting.  ``urn`` restricts the count to one endpoint; the
        default sums the whole transport.
        """
        with self._eplock:
            endpoints = [e for at, e in self._endpoints.items() if urn in (None, at)]
        backlog = 0
        for endpoint in endpoints:
            with endpoint._conns_lock:
                backlog += sum(c.busy >= self.server_workers for c in endpoint._conns)
        return backlog

    def live_peers(self, source_urn: str) -> list[str]:
        """Destinations with a live pooled keepalive.

        The pool is shared by every endpoint of this transport object, so
        this is the opportunistic superset of peers *some* local endpoint
        has talked to — exactly the connections a heartbeat rides for free.
        """
        return [d for d in self.pool.live_destinations() if d != source_urn]

    def _connect(self, urn: str) -> socket.socket:
        port = self.port_of(urn)
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=self._connect_timeout)
        except OSError as exc:
            raise NapletCommunicationError(f"cannot reach {urn}: {exc}") from exc

    # The ledger books the frame, not the envelope that carried it,
    # so both transports count the same bytes for the same exchange.

    def _send(self, frame: Frame) -> None:
        self.pool.send(frame)
        self.meter.record(host_of(frame.source), host_of(frame.dest), frame.kind, frame.size)

    def _request(self, frame: Frame, timeout: float | None = None) -> bytes:
        reply = self.pool.request(frame, timeout)
        self.meter.exchange(
            host_of(frame.source), host_of(frame.dest), frame.kind, frame.size, len(reply)
        )
        return reply

    def close(self) -> None:
        self.pool.close()
        with self._eplock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
        for endpoint in endpoints:
            endpoint.close()
