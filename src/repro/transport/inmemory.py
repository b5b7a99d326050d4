"""In-memory transport: the workhorse substrate for experiments.

Frames are delivered by direct handler invocation on the sending thread —
the synchronous-call analogue of a blocking network send.  Before delivery
the latency model's delay is accounted on the :class:`SimClock`; once the
call returns, the frame (and a request's reply) is booked in the
transport's frame ledger.  Faults come from the transport's
``fault_plan``, as on every transport (see
:class:`~repro.transport.base.Transport`); a delay fault advances the
clock instead of sleeping.

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
    """Synchronous in-process frame router with metering."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        super().__init__()
        self.latency = latency or ZeroLatency()
        self.clock = clock or SimClock()
        # Pool-aware semantics: the first frame over a (src, dst) link is a
        # logical connection open; every later frame is a reuse.  This gives
        # benchmarks one accounting surface across both transports.
        self._links_opened: set[tuple[str, str]] = set()
        self._links_lock = threading.Lock()

    def pause(self, seconds: float) -> None:
        """A delay fault costs simulated time, not wall-clock time."""
        self.clock.advance(seconds)

    # -- open links --------------------------------------------------------- #

    def live_peers(self, source_urn: str) -> list[str]:
        """Registered peers whose directed link from *source_urn* is open.

        Mirrors the pool-accounting semantics below: the first frame over
        a ``(src, dst)`` link is the logical dial, so a heartbeat toward a
        listed peer is always accounted as a reuse, never an open.
        Partitions do not unlist a peer: the plan stops the send instead.
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

    def _send(self, frame: Frame) -> None:
        src, dst, nbytes, handler = self._deliver(frame)
        try:
            handler(frame)
        except Exception as exc:
            # As over TCP, the frame went out and is booked; its failed
            # handler is a dropped connection at the destination, not the
            # sender's error.
            self.meter.record(src, dst, frame.kind, nbytes)
            self._record_connection_error(frame.dest, exc)
            return
        self.meter.record(src, dst, frame.kind, nbytes)

    def _request(self, frame: Frame, timeout: float | None = None) -> bytes:
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
