"""The frame ledger: every frame and reply a transport moves, counted once.

Each :class:`~repro.transport.base.Transport` owns one :class:`TrafficMeter`
(``transport.meter``).  The transport that sends a frame books it here once,
after its ``send``/``request`` returns, as ``(src host, dst host, kind,
bytes)``; a request books its reply beside it as ``<kind>-reply``.  Bytes
are :attr:`Frame.size <repro.transport.base.Frame.size>` on both transports,
so a space reads the same numbers in memory and over TCP.  Per-link,
per-host, per-kind and total figures are all read from the one ledger: the
MAN experiments (E3/E4) take their "network load" series from it, and the
transport's ``wire_*`` and ``bytes_*`` metric families are views over it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["LinkStats", "TrafficMeter", "REPLY"]

REPLY = "-reply"  # suffix of the kind a reply is booked under


@dataclass
class LinkStats:
    """Frames and bytes on one directed (src, dst) link, or of one kind."""

    frames: int = 0
    bytes: int = 0


class TrafficMeter:
    """Thread-safe frame ledger of one transport."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._links: dict[tuple[str, str], LinkStats] = {}
        self._by_kind: dict[str, LinkStats] = {}

    def record(self, src: str, dst: str, kind: str, nbytes: int) -> None:
        """Book one frame of *kind*, *nbytes* long, from host *src* to *dst*."""
        with self._lock:
            self._add(src, dst, kind, nbytes)

    def exchange(self, src: str, dst: str, kind: str, nbytes: int, reply_nbytes: int) -> None:
        """Book a request and the reply it got back, under one lock."""
        with self._lock:
            self._add(src, dst, kind, nbytes)
            self._add(dst, src, kind + REPLY, reply_nbytes)

    def _add(self, src: str, dst: str, kind: str, nbytes: int) -> None:
        # Caller holds the lock.
        for table, key in ((self._links, (src, dst)), (self._by_kind, kind)):
            stats = table.get(key)
            if stats is None:
                stats = table[key] = LinkStats()
            stats.frames += 1
            stats.bytes += nbytes

    # -- queries ----------------------------------------------------------- #

    def link(self, src: str, dst: str) -> LinkStats:
        with self._lock:
            stats = self._links.get((src, dst))
            return LinkStats(stats.frames, stats.bytes) if stats else LinkStats()

    def host_bytes(self, host: str) -> tuple[int, int]:
        """(egress, ingress) byte totals for *host*."""
        egress = ingress = 0
        with self._lock:
            for (src, dst), stats in self._links.items():
                if src == host:
                    egress += stats.bytes
                if dst == host:
                    ingress += stats.bytes
        return egress, ingress

    def host_total(self, host: str) -> int:
        egress, ingress = self.host_bytes(host)
        return egress + ingress

    def hosts(self) -> dict[str, tuple[int, int]]:
        """(egress, ingress) bytes of every host that sent or received."""
        split: dict[str, list[int]] = {}
        with self._lock:
            for (src, dst), stats in self._links.items():
                split.setdefault(src, [0, 0])[0] += stats.bytes
                split.setdefault(dst, [0, 0])[1] += stats.bytes
        return {host: (egress, ingress) for host, (egress, ingress) in split.items()}

    def kind_stats(self, kind: str) -> LinkStats:
        with self._lock:
            stats = self._by_kind.get(kind)
            return LinkStats(stats.frames, stats.bytes) if stats else LinkStats()

    def kinds(self) -> dict[str, LinkStats]:
        """Frames and bytes per kind, replies under ``<kind>-reply``."""
        with self._lock:
            return {kind: LinkStats(v.frames, v.bytes) for kind, v in self._by_kind.items()}

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(v.bytes for v in self._by_kind.values())

    @property
    def total_frames(self) -> int:
        with self._lock:
            return sum(v.frames for v in self._by_kind.values())

    def snapshot(self) -> dict:
        """Internally consistent view taken under one lock acquisition.

        Unlike calling ``total_bytes`` and ``links()`` back to back (a
        recorder may land between the two), a snapshot's link sums always
        equal its totals — the property the concurrency tests pin down.
        """
        with self._lock:
            return {
                "total_bytes": sum(v.bytes for v in self._by_kind.values()),
                "total_frames": sum(v.frames for v in self._by_kind.values()),
                "links": {
                    key: LinkStats(v.frames, v.bytes) for key, v in self._links.items()
                },
                "by_kind": {
                    kind: LinkStats(v.frames, v.bytes) for kind, v in self._by_kind.items()
                },
            }

    def links(self) -> dict[tuple[str, str], LinkStats]:
        with self._lock:
            return {key: LinkStats(v.frames, v.bytes) for key, v in self._links.items()}

    def reset(self) -> None:
        with self._lock:
            self._links.clear()
            self._by_kind.clear()
