"""In-memory transport: the workhorse substrate for experiments.

Frames are delivered by direct handler invocation on the sending thread —
the synchronous-call analogue of a blocking network send.  Before delivery
the latency model's delay is accounted on the :class:`SimClock`; once the
call returns, the frame (and a request's reply) is booked in the
transport's frame ledger.  Fault injection supports
dropped links (one-way failures) and host partitions, exercising the
paper's "intermittent or unreliable Internet connections" motivation.

Handlers therefore run on foreign threads: server components keep their
handler work short (enqueue long work to their own executors) and
thread-safe.
"""

from __future__ import annotations

import threading

from repro.core.errors import NapletCommunicationError
from repro.transport.clock import SimClock
from repro.transport.base import Frame, FrameHandler, Transport, host_of
from repro.transport.latency import LatencyModel, ZeroLatency

__all__ = ["InMemoryTransport"]


class InMemoryTransport(Transport):
    """Synchronous in-process frame router with metering and fault injection."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        super().__init__()
        self.latency = latency or ZeroLatency()
        self.clock = clock or SimClock()
        self._down_links: set[tuple[str, str]] = set()
        self._down_hosts: set[str] = set()
        self._fault_lock = threading.Lock()
        # Pool-aware semantics: the first frame over a (src, dst) link is a
        # logical connection open; every later frame is a reuse.  This gives
        # benchmarks one accounting surface across both transports.
        self._links_opened: set[tuple[str, str]] = set()
        self._links_lock = threading.Lock()

    # -- fault injection ---------------------------------------------------- #

    def fail_link(self, src_host: str, dst_host: str, symmetric: bool = True) -> None:
        """Make frames from *src_host* to *dst_host* fail."""
        with self._fault_lock:
            self._down_links.add((src_host, dst_host))
            if symmetric:
                self._down_links.add((dst_host, src_host))

    def heal_link(self, src_host: str, dst_host: str, symmetric: bool = True) -> None:
        with self._fault_lock:
            self._down_links.discard((src_host, dst_host))
            if symmetric:
                self._down_links.discard((dst_host, src_host))

    def partition_host(self, host: str) -> None:
        """Isolate *host* from everyone."""
        with self._fault_lock:
            self._down_hosts.add(host)

    def heal_host(self, host: str) -> None:
        with self._fault_lock:
            self._down_hosts.discard(host)

    def _check_reachable(self, src: str, dst: str) -> None:
        with self._fault_lock:
            if src in self._down_hosts or dst in self._down_hosts:
                raise NapletCommunicationError(f"host partitioned: {src} -> {dst}")
            if (src, dst) in self._down_links:
                raise NapletCommunicationError(f"link down: {src} -> {dst}")

    # -- open links --------------------------------------------------------- #

    def live_peers(self, source_urn: str) -> list[str]:
        """Registered peers whose directed link from *source_urn* is open.

        Mirrors the pool-accounting semantics below: the first frame over
        a ``(src, dst)`` link is the logical dial, so a heartbeat toward a
        listed peer is always accounted as a reuse, never an open.
        Partitions do not unlist a peer — the send fails instead, which is
        the signal the health plane counts.
        """
        src = host_of(source_urn)
        with self._links_lock:
            links = set(self._links_opened)
        return [
            urn
            for urn in self.endpoints()
            if host_of(urn) != src and (src, host_of(urn)) in links
        ]

    # -- delivery ----------------------------------------------------------- #

    def _deliver(self, frame: Frame) -> tuple[str, str, int, FrameHandler]:
        """Route *frame* to its handler; returns (src host, dst host, frame
        size, handler)."""
        src, dst = host_of(frame.source), host_of(frame.dest)
        self._check_reachable(src, dst)
        handler = self._handler_for(frame.dest)
        link = (src, dst)
        with self._links_lock:
            if link in self._links_opened:
                self._note_connection_reused(frame.dest)
            else:
                self._links_opened.add(link)
                self._note_connection_opened(frame.dest)
        nbytes = frame.size
        self.clock.advance(self.latency.delay(src, dst, nbytes))
        return src, dst, nbytes, handler

    def send(self, frame: Frame) -> None:
        src, dst, nbytes, handler = self._deliver(frame)
        handler(frame)
        self.meter.record(src, dst, frame.kind, nbytes)

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        src, dst, nbytes, handler = self._deliver(frame)
        # As over TCP, a failed handler or a missing reply is the
        # requester's NapletCommunicationError, and nothing is booked.
        try:
            reply = handler(frame)
        except Exception as exc:
            raise NapletCommunicationError(
                f"request to {frame.dest} failed remotely: {type(exc).__name__}: {exc}"
            ) from exc
        if reply is None:
            raise NapletCommunicationError(
                f"request to {frame.dest} failed remotely: no reply for {frame.kind} frame"
            )
        # The reply travels back over the same link.
        self.clock.advance(self.latency.delay(dst, src, len(reply)))
        self.meter.exchange(src, dst, frame.kind, nbytes, len(reply))
        return reply
