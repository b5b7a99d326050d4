"""Transport abstraction: wire frames and the endpoint interface.

Servers talk to each other in :class:`Frame` units — naplet transfers,
inter-naplet messages, directory events, load digests.  A
:class:`Transport` routes frames between named endpoints (server URNs of the
form ``naplet://<hostname>``).  Two implementations exist:

- :class:`repro.transport.inmemory.InMemoryTransport` — in-process routing
  with a latency/bandwidth model and fault injection; the substrate for
  experiments at scale;
- :class:`repro.transport.tcp.TcpTransport` — real localhost TCP sockets,
  proving the protocol end-to-end outside one call stack.

Semantics shared by both: :meth:`Transport.send` is one-way fire-and-forget
(a handler that fails costs its sender nothing: it is counted as a dropped
connection at the destination); :meth:`Transport.request` is synchronous
request/reply returning the responder's payload, and a handler that fails
or answers nothing is a :class:`NapletCommunicationError` at the requester.
Both book what they moved in the transport's one frame ledger,
:attr:`Transport.meter`, with the same frame sizes, and both carry out the
transport's one fault table, :attr:`Transport.fault_plan`, the same way.
Handlers run on the delivering thread and must not block indefinitely.

The wire grammar itself is pickle-free (DESIGN.md §6.2).  A reply is text: a
status word and space-separated UTF-8 fields (:func:`reply`), with one
refusal, ``refused <reason>``, which :func:`read_reply`, the one reader,
raises as a :class:`NapletCommunicationError` like any reply it cannot
read.  Binary parts — the TCP envelope, the credential — are runs of
length-prefixed UTF-8 strings (:func:`~repro.core.strings.pack_strings`),
and a credential travels as its signed form plus its MAC
(:func:`encode_credential`).
"""

from __future__ import annotations

import abc
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.credential import Credential
from repro.core.errors import NapletCommunicationError
from repro.core.naplet_id import NapletID
from repro.core.strings import unpack_strings
from repro.telemetry.metrics import MetricsRegistry
from repro.transport.traffic import REPLY, TrafficMeter

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.telemetry.journal import SpaceJournal

__all__ = [
    "Frame",
    "FrameKind",
    "FrameHandler",
    "Transport",
    "urn_of",
    "host_of",
    "REFUSED",
    "reply",
    "refusal",
    "read_reply",
    "encode_credential",
    "decode_credential",
]


class FrameKind:
    """Well-known frame kinds (plain strings for wire friendliness)."""

    NAPLET_TRANSFER = "naplet-transfer"
    MESSAGE = "message"
    DIRECTORY_EVENT = "directory-event"
    DIRECTORY_QUERY = "directory-query"
    REPORT = "report"
    CODEBASE_FETCH = "codebase-fetch"
    PING = "ping"
    LOAD = "load"


def urn_of(hostname: str) -> str:
    """Canonical server URN for a hostname (interned: a server names a
    handful of peers, and every record naming one shares its string)."""
    if hostname.startswith("naplet://"):
        return hostname
    return sys.intern(f"naplet://{hostname}")


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
    # Correlation id: set on a received frame by a multiplexing transport,
    # whose concurrent request/reply exchanges share one connection.
    # ``None`` means the frame was handed over in memory.
    correlation_id: int | None = None
    # Out-of-band segments (pickle protocol 5): bytes-like blocks shipped
    # beside the payload.  The TCP wire writes them as separate frame
    # segments with no re-copy; the in-memory transport hands them over
    # by reference.  Items may be memoryviews; no frame is ever pickled
    # (DESIGN.md §6.2).
    buffers: tuple = ()

    @property
    def size(self) -> int:
        """Approximate on-wire size in bytes (payload + buffers + header text)."""
        size = len(self.payload) + len(self.kind) + len(self.source) + len(self.dest)
        for key, value in self.headers.items():
            size += len(key) + len(value)
        for buffer in self.buffers:
            size += buffer.nbytes if isinstance(buffer, memoryview) else len(buffer)
        return size


FrameHandler = Callable[[Frame], bytes | None]


# -- replies ---------------------------------------------------------------- #

REFUSED = "refused"


def reply(status: str, *fields: str) -> bytes:
    """A reply: the status word, then each field, space-separated UTF-8."""
    return " ".join((status, *fields)).encode()


def refusal(reason: str) -> bytes:
    """The one refusal, whatever the frame kind: ``refused <reason>``."""
    return reply(REFUSED, reason)


def read_reply(data: bytes, what: str, *statuses: str) -> tuple[str, list[str]]:
    """``(status, fields)`` of a *what* reply whose status is one of
    *statuses*.  A refusal, bytes that are no reply and any other status
    raise :class:`NapletCommunicationError`, with the reply's text."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        text = data[:80]
    else:
        status, *fields = text.split(" ")
        if status in statuses and status != REFUSED:
            return status, fields
    raise NapletCommunicationError(f"unreadable {what} reply {text!r}")


# -- the credential: its signed fields, then its MAC ------------------------- #

_MAC_BYTES = 32  # HMAC-SHA256
_PAIRS = struct.Struct("!H")  # the pair count that leads a credential's signed form


def encode_credential(credential: Credential) -> bytes:
    """The signed form (attribute-pair count, naplet id, codebase,
    attribute keys and values), then the signature: nothing a receiver
    must unpickle."""
    return credential.payload() + credential.signature


def decode_credential(data: bytes) -> Credential:
    """The credential :func:`encode_credential` wrote; anything else raises
    :class:`NapletCommunicationError`.  The signature is not checked here."""
    try:
        (pairs,) = _PAIRS.unpack_from(data)
        fields, end = unpack_strings(data, _PAIRS.size, 2 + 2 * pairs)
        if len(data) - end != _MAC_BYTES:
            raise ValueError("no MAC at its end")
        naplet_id = NapletID.parse(fields[0])
    except (struct.error, ValueError) as exc:
        raise NapletCommunicationError(f"malformed credential: {exc}") from None
    return Credential(naplet_id, fields[1], tuple(zip(fields[2::2], fields[3::2])), data[end:])


class Transport(abc.ABC):
    """Routes frames between registered endpoints.

    Every transport owns one frame ledger, :attr:`meter`: the concrete
    ``send``/``request`` book each frame they moved once, after the call
    returns, and a request's reply beside it (see
    :mod:`repro.transport.traffic`).  Its small :class:`MetricsRegistry`
    holds connection instruments and read-only views over the ledger, so
    ``wire_frames_total``/``wire_bytes_total`` (request frames, by kind)
    and ``bytes_sent_total``/``bytes_received_total`` (every frame and
    reply, by endpoint host) read the same numbers the ledger does.

    Every transport also carries out one fault table, :attr:`fault_plan`
    (a :class:`~repro.faults.plan.FaultPlan`, or ``None`` for a clean
    wire).  :meth:`send` and :meth:`request` hand each frame to the plan,
    on the sending thread, before the subclass's :meth:`_send` or
    :meth:`_request` moves it; a frame the plan stops never reaches the
    subclass, so it is neither delivered nor booked.  One rule decides
    one-way frames: a refused dial raises from :meth:`send` as from
    :meth:`request`, exactly as a real refused dial does on TCP, while a
    drop, a partition or a crash before delivery loses a one-way frame
    silently, as real packet loss is silent.  A delay advances the
    simulated clock in memory and sleeps on a real wire (:meth:`pause`).
    """

    fault_plan: "FaultPlan | None" = None

    def __init__(self) -> None:
        self._handlers: dict[str, FrameHandler] = {}
        self._lock = threading.RLock()
        self.meter = meter = TrafficMeter()
        self.metrics = metrics = MetricsRegistry()
        self._journals: dict[str, "SpaceJournal"] = {}

        def by_kind(field: str) -> Callable[[], dict[str, int]]:
            return lambda: {
                kind: getattr(stats, field)
                for kind, stats in meter.kinds().items()
                if not kind.endswith(REPLY)
            }

        def by_host(side: int) -> Callable[[], dict[str, int]]:
            return lambda: {host: pair[side] for host, pair in meter.hosts().items()}

        metrics.counter_fn(
            "wire_frames_total", "Frames sent by this transport, by kind", "kind",
            by_kind("frames"),
        )
        metrics.counter_fn(
            "wire_bytes_total", "Bytes of the frames sent by this transport, by kind", "kind",
            by_kind("bytes"),
        )
        metrics.counter_fn(
            "bytes_sent_total", "Frame and reply bytes sent, by endpoint host (egress)",
            "endpoint", by_host(0),
        )
        metrics.counter_fn(
            "bytes_received_total", "Frame and reply bytes received, by endpoint host (ingress)",
            "endpoint", by_host(1),
        )
        self._wire_connections = metrics.counter(
            "wire_connections_opened_total",
            "Connections (real or logical) opened by this transport",
        )
        self._wire_pool_reuse = metrics.counter(
            "wire_pool_reuse_total",
            "Frames that rode an already-open pooled connection",
        )
        self._wire_dropped_connections = metrics.counter(
            "wire_dropped_connections_total",
            "Server-side connections dropped on error, by endpoint",
        )

    def endpoint_bytes(self, endpoint: str) -> tuple[int, int]:
        """(egress, ingress) frame and reply bytes the ledger holds for
        *endpoint* (URN or hostname)."""
        return self.meter.host_bytes(host_of(endpoint))

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
        journal = self.journal_of(urn)
        if journal is not None:
            journal.record(
                "transport-connection-dropped",
                endpoint=urn,
                error=f"{type(error).__name__}: {error}",
            )

    def bind_event_log(self, urn: str, journal: "SpaceJournal") -> None:
        """Record connection-level failures at *urn*, and faults fired on
        frames from it, into *journal*."""
        with self._lock:
            self._journals[urn] = journal

    def journal_of(self, urn: str) -> "SpaceJournal | None":
        """The journal bound to *urn* by :meth:`bind_event_log`, if any."""
        with self._lock:
            return self._journals.get(urn)

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

    def send(self, frame: Frame) -> None:
        """Deliver *frame* one-way.  Raises :class:`NapletCommunicationError`
        when no endpoint is registered at its destination or its dial is
        refused; a frame lost on the way, or a failed handler, does not
        raise here."""
        plan = self.fault_plan
        if plan is None:
            self._send(frame)
        else:
            plan.carry(self, frame, self._send, one_way=True)

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        """Deliver *frame* and return the handler's reply payload."""
        plan = self.fault_plan
        if plan is None:
            return self._request(frame, timeout)
        return plan.carry(self, frame, lambda f: self._request(f, timeout), one_way=False)

    def pause(self, seconds: float) -> None:
        """Hold a frame back for *seconds* (a delay fault): a real sleep."""
        time.sleep(seconds)

    @abc.abstractmethod
    def _send(self, frame: Frame) -> None:
        """Move *frame* one-way and book it."""

    @abc.abstractmethod
    def _request(self, frame: Frame, timeout: float | None) -> bytes:
        """Move *frame*, book it and its reply, and return the reply."""

    def close(self) -> None:
        """Release transport resources (sockets, threads)."""
