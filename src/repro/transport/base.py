"""Transport abstraction: wire frames and the endpoint interface.

Servers talk to each other in :class:`Frame` units — naplet transfers,
inter-naplet messages, directory events, load digests.  A
:class:`Transport` routes frames between named endpoints (server URNs of the
form ``naplet://<hostname>``).  Two implementations exist:

- :class:`repro.transport.inmemory.InMemoryTransport` — in-process routing
  with a latency/bandwidth model, per-link byte metering, and fault
  injection; the substrate for experiments at scale;
- :class:`repro.transport.tcp.TcpTransport` — real localhost TCP sockets,
  proving the protocol end-to-end outside one call stack.

Semantics shared by both: :meth:`Transport.send` is one-way fire-and-forget;
:meth:`Transport.request` is synchronous request/reply returning the
responder's payload.  Handlers run on the delivering thread and must not
block indefinitely.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.errors import NapletCommunicationError
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.journal import SpaceJournal

__all__ = [
    "Frame",
    "FrameKind",
    "FrameHandler",
    "Transport",
    "urn_of",
    "host_of",
]


class FrameKind:
    """Well-known frame kinds (plain strings for wire friendliness)."""

    NAPLET_TRANSFER = "naplet-transfer"
    MESSAGE = "message"
    MESSAGE_CONFIRM = "message-confirm"
    DIRECTORY_EVENT = "directory-event"
    DIRECTORY_QUERY = "directory-query"
    LOCATE_QUERY = "locate-query"
    REPORT = "report"
    CONTROL = "control"
    CODEBASE_FETCH = "codebase-fetch"
    PING = "ping"
    LOAD = "load"


def urn_of(hostname: str) -> str:
    """Canonical server URN for a hostname."""
    if hostname.startswith("naplet://"):
        return hostname
    return f"naplet://{hostname}"


def host_of(urn: str) -> str:
    """Hostname carried by a URN (any scheme: naplet://, snmp://, …)."""
    _scheme, sep, rest = urn.partition("://")
    return rest if sep else urn


@dataclass
class Frame:
    """One unit on the wire.

    ``payload`` is opaque bytes (usually produced by the
    :class:`~repro.transport.serializer.NapletSerializer`); ``headers`` are
    small string pairs used for routing decisions without deserializing.
    """

    kind: str
    source: str
    dest: str
    payload: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)
    # Correlation id: set by multiplexing transports so many concurrent
    # request/reply exchanges can share one connection.  ``None`` means the
    # frame travelled on a dedicated (or synchronous in-memory) channel.
    correlation_id: int | None = None
    # Out-of-band segments (pickle protocol 5): bytes-like blocks shipped
    # beside the payload.  The TCP wire writes them as separate frame
    # segments with no re-copy; the in-memory transport hands them over
    # by reference.  Items may be memoryviews, which do not pickle: a
    # frame is never pickled with its buffers on.
    buffers: tuple = ()

    @property
    def size(self) -> int:
        """Approximate on-wire size in bytes (payload + buffers + header text)."""
        header_bytes = sum(len(k) + len(v) for k, v in self.headers.items())
        buffer_bytes = sum(
            b.nbytes if isinstance(b, memoryview) else len(b) for b in self.buffers
        )
        return (
            len(self.payload) + buffer_bytes + header_bytes
            + len(self.kind) + len(self.source) + len(self.dest)
        )


FrameHandler = Callable[[Frame], bytes | None]


class Transport(abc.ABC):
    """Routes frames between registered endpoints.

    Every transport owns a small :class:`MetricsRegistry` of wire-level
    instruments (frames, bytes, send latency, by frame kind); concrete
    implementations call :meth:`_observe_wire` once per frame moved.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, FrameHandler] = {}
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self._journals: dict[str, "SpaceJournal"] = {}
        self._wire_frames = self.metrics.counter(
            "wire_frames_total", "Frames moved by this transport, by kind"
        )
        self._wire_bytes = self.metrics.counter(
            "wire_bytes_total", "On-wire bytes moved by this transport, by kind"
        )
        self._wire_send_seconds = self.metrics.histogram(
            "wire_send_seconds", "Per-frame delivery latency at this transport"
        )
        self._wire_connections = self.metrics.counter(
            "wire_connections_opened_total",
            "Connections (real or logical) opened by this transport",
        )
        self._wire_pool_reuse = self.metrics.counter(
            "wire_pool_reuse_total",
            "Frames that rode an already-open pooled connection",
        )
        self._wire_dropped_connections = self.metrics.counter(
            "wire_dropped_connections_total",
            "Server-side connections dropped on error, by endpoint",
        )
        # Per-endpoint byte accounting (perf plane): simnet's TrafficMeter
        # already splits bytes per host; these counters give real TCP the
        # same answer, on the same metric names for both transports.
        self._bytes_sent = self.metrics.counter(
            "bytes_sent_total", "Wire bytes sent, by endpoint host (egress)"
        )
        self._bytes_received = self.metrics.counter(
            "bytes_received_total", "Wire bytes received, by endpoint host (ingress)"
        )

    def _observe_wire(self, frame: Frame, duration: float) -> None:
        """Account one frame's trip (called by concrete send/request)."""
        self._wire_frames.inc(kind=frame.kind)
        self._wire_bytes.inc(frame.size, kind=frame.kind)
        self._wire_send_seconds.observe(duration)

    # -- byte accounting --------------------------------------------------- #

    def _account_sent(self, endpoint: str, nbytes: int) -> None:
        """Attribute *nbytes* of egress to *endpoint* (URN or hostname)."""
        if nbytes > 0:
            self._bytes_sent.inc(nbytes, endpoint=host_of(endpoint))

    def _account_received(self, endpoint: str, nbytes: int) -> None:
        """Attribute *nbytes* of ingress to *endpoint* (URN or hostname)."""
        if nbytes > 0:
            self._bytes_received.inc(nbytes, endpoint=host_of(endpoint))

    def endpoint_bytes(self, endpoint: str) -> tuple[int, int]:
        """(egress, ingress) wire bytes accounted to *endpoint* so far."""
        host = host_of(endpoint)
        return (
            int(self._bytes_sent.value(endpoint=host)),
            int(self._bytes_received.value(endpoint=host)),
        )

    # -- connection accounting -------------------------------------------- #

    def connections_opened(self) -> int:
        """Connections this transport has opened so far (all destinations)."""
        return int(self._wire_connections.total())

    def pool_reuse_count(self) -> int:
        """Frames that reused a pooled connection instead of dialing."""
        return int(self._wire_pool_reuse.total())

    def live_peers(self, source_urn: str) -> list[str]:
        """Endpoint URNs reachable from *source_urn* without dialing.

        The health plane sends load digests only toward these peers, so
        a digest by construction rides channels an earlier exchange opened
        and never pays a dial of its own.  The base transport keeps no
        connections; pool- and link-aware implementations override this.
        """
        return []

    def worker_backlog(self, urn: str | None = None) -> int:
        """Inbound connections at *urn* (default: every endpoint) whose
        next frame waits for a free serving thread.  A transport that
        serves every frame on the caller's thread never has one; the
        health plane's wedged-server rule reads this."""
        return 0

    def _note_connection_opened(self, dest: str) -> None:
        self._wire_connections.inc(dest=dest)

    def _note_connection_reused(self, dest: str) -> None:
        self._wire_pool_reuse.inc(dest=dest)

    def _record_connection_error(self, urn: str, error: BaseException) -> None:
        """Account a server-side connection failure instead of losing it.

        The drop is counted on the transport metrics and recorded in the
        journal bound to the endpoint via :meth:`bind_event_log` (the
        owning server's journal).
        """
        self._wire_dropped_connections.inc(endpoint=urn)
        with self._lock:
            journal = self._journals.get(urn)
        if journal is not None:
            journal.record(
                "transport-connection-dropped",
                endpoint=urn,
                error=f"{type(error).__name__}: {error}",
            )

    def bind_event_log(self, urn: str, journal: "SpaceJournal") -> None:
        """Record connection-level failures at *urn* into *journal*."""
        with self._lock:
            self._journals[urn] = journal

    # -- endpoint management --------------------------------------------- #

    def register(self, urn: str, handler: FrameHandler) -> None:
        with self._lock:
            if urn in self._handlers:
                raise NapletCommunicationError(f"endpoint already registered: {urn}")
            self._handlers[urn] = handler

    def unregister(self, urn: str) -> None:
        with self._lock:
            self._handlers.pop(urn, None)
            self._journals.pop(urn, None)

    def endpoints(self) -> list[str]:
        with self._lock:
            return list(self._handlers)

    def is_registered(self, urn: str) -> bool:
        with self._lock:
            return urn in self._handlers

    def _handler_for(self, urn: str) -> FrameHandler:
        with self._lock:
            handler = self._handlers.get(urn)
        if handler is None:
            raise NapletCommunicationError(f"no endpoint registered at {urn}")
        return handler

    # -- wire operations --------------------------------------------------- #

    @abc.abstractmethod
    def send(self, frame: Frame) -> None:
        """Deliver *frame* one-way; raises on unreachable destination."""

    @abc.abstractmethod
    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        """Deliver *frame* and return the handler's reply payload."""

    def close(self) -> None:
        """Release transport resources (sockets, threads)."""
