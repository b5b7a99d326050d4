"""In-memory transport: the workhorse substrate for experiments.

Frames are delivered by direct handler invocation on the sending thread —
the synchronous-call analogue of a blocking network send.  Before delivery
the latency model's delay is accounted on the :class:`SimClock` and the
frame is metered on the :class:`TrafficMeter`.  Fault injection supports
dropped links (one-way failures) and host partitions, exercising the
paper's "intermittent or unreliable Internet connections" motivation.

Handlers therefore run on foreign threads: server components keep their
handler work short (enqueue long work to their own executors) and
thread-safe.
"""

from __future__ import annotations

import itertools
import threading

from repro.core.errors import NapletCommunicationError
from repro.transport.clock import SimClock
from repro.transport.traffic import TrafficMeter
from repro.transport.base import Frame, Transport, host_of
from repro.transport.latency import LatencyModel, ZeroLatency

__all__ = ["InMemoryTransport"]


class InMemoryTransport(Transport):
    """Synchronous in-process frame router with metering and fault injection."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        clock: SimClock | None = None,
        meter: TrafficMeter | None = None,
    ) -> None:
        super().__init__()
        self.latency = latency or ZeroLatency()
        self.clock = clock or SimClock()
        self.meter = meter or TrafficMeter()
        self._down_links: set[tuple[str, str]] = set()
        self._down_hosts: set[str] = set()
        self._fault_lock = threading.Lock()
        # Pool-aware semantics: the first frame over a (src, dst) link is a
        # logical connection open; every later frame is a reuse.  This gives
        # benchmarks one accounting surface across both transports.
        self._links_opened: set[tuple[str, str]] = set()
        self._links_lock = threading.Lock()
        self._correlation_ids = itertools.count(1)

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

    def _deliver(self, frame: Frame) -> bytes | None:
        src, dst = host_of(frame.source), host_of(frame.dest)
        self._check_reachable(src, dst)
        handler = self._handler_for(frame.dest)
        if frame.correlation_id is None:
            frame.correlation_id = next(self._correlation_ids)
        link = (src, dst)
        with self._links_lock:
            if link in self._links_opened:
                self._note_connection_reused(frame.dest)
            else:
                self._links_opened.add(link)
                self._note_connection_opened(frame.dest)
        delay = self.latency.delay(src, dst, frame.size)
        self.meter.record(src, dst, frame.kind, frame.size, delay)
        self._account_sent(src, frame.size)
        self._account_received(dst, frame.size)
        self.clock.advance(delay)
        self._observe_wire(frame, delay)
        return handler(frame)

    def send(self, frame: Frame) -> None:
        self._deliver(frame)

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        reply = self._deliver(frame)
        if reply is None:
            raise NapletCommunicationError(
                f"no reply from {frame.dest} for {frame.kind} frame"
            )
        # The reply travels back over the same link: meter and account it.
        src, dst = host_of(frame.source), host_of(frame.dest)
        delay = self.latency.delay(dst, src, len(reply))
        self.meter.record(dst, src, frame.kind + "-reply", len(reply), delay)
        self._account_sent(dst, len(reply))
        self._account_received(src, len(reply))
        self.clock.advance(delay)
        return reply
