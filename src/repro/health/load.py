"""What one server knows of the space's load (DESIGN.md §6.4).

- :class:`LoadDigest` — a compact, HLC-stamped snapshot of one server's
  load: residency, worker-pool occupancy, dead-letter depth, cpu and
  bandwidth rates aggregated from the resident
  :class:`~repro.health.profile.ResourceProfile`\\ s, and the wire bytes
  the transport accounts to the host;
- :class:`SpaceView` — a per-server merge of peer digests ordered by
  their hybrid-logical-clock stamps, with staleness aging: a peer whose
  digest outlives ``stale_after`` decays toward *unknown*, never toward
  *idle* (a silent peer may be partitioned, not free).

The :class:`~repro.health.plane.HealthPlane` computes, sends and merges
digests on its one loop and ranks Alt/Par branches by the view.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.util.hlc import HLCStamp

__all__ = ["LoadDigest", "SpaceView"]

# CPU-rate contribution to the score is capped so one spinning naplet
# cannot outweigh queue depths by an unbounded margin.
_CPU_SCORE_CAP = 8.0


@dataclass(frozen=True)
class LoadDigest:
    """One server's load snapshot: small enough to ride any open channel.

    ``hlc`` is the encoded :class:`~repro.util.hlc.HLCStamp` taken when
    the digest was computed; receivers decode it to merge by causal
    order (the encoded string is exact but not lexicographically
    ordered).  ``seq`` is the emitter's beat counter, a human-friendly
    freshness hint for journals and dashboards.
    """

    server: str
    seq: int
    hlc: str
    residents: int = 0
    active: int = 0
    worker_backlog: int = 0
    dead_letter_depth: int = 0
    cpu_rate: float = 0.0
    bandwidth: float = 0.0
    egress_bytes: int = 0
    ingress_bytes: int = 0

    def stamp(self) -> HLCStamp:
        return HLCStamp.decode(self.hlc)

    def score(self) -> float:
        """Scalar load pressure: queue depths plus a capped CPU term.

        Each unit is roughly "one piece of work waiting or running":
        resident naplets, active threads, backlogged inbound frames and
        dead letters count 1 apiece; the CPU rate (cores busy) joins
        capped at ``_CPU_SCORE_CAP`` so a spin loop cannot dominate.
        """
        return (
            self.residents
            + self.active
            + self.worker_backlog
            + self.dead_letter_depth
            + min(self.cpu_rate, _CPU_SCORE_CAP)
        )

    def describe(self) -> dict[str, Any]:
        return {**asdict(self), "score": self.score()}

    def to_text(self) -> str:
        """The LOAD frame's payload: the numbers.  The server and the stamp
        ride the frame, as its source and its ``hlc`` header."""
        return (
            f"{self.seq} {self.residents} {self.active} {self.worker_backlog} "
            f"{self.dead_letter_depth} {self.cpu_rate!r} {self.bandwidth!r} "
            f"{self.egress_bytes} {self.ingress_bytes}"
        )

    @classmethod
    def from_text(cls, server: str, hlc: str, text: str) -> "LoadDigest":
        """Inverse of :meth:`to_text`; raises ``ValueError`` on anything else."""
        seq, residents, active, backlog, dead, cpu, bandwidth, egress, ingress = text.split(" ")
        return cls(
            server, int(seq), hlc, int(residents), int(active), int(backlog), int(dead),
            float(cpu), float(bandwidth), int(egress), int(ingress),
        )


class SpaceView:
    """Merged peer digests at one server, aged by receipt time.

    Merging is by HLC order: a digest replaces the held one for its
    server only when its stamp is strictly newer, so duplicated or
    reordered heartbeats (a fault plan produces both) cannot roll
    the view backwards.  Staleness is judged against the *local*
    monotonic receipt time, not the digest's remote clock — a partition
    freezes receipts, which is exactly the signal to decay on.  *clock*
    is that monotonic time source whenever a caller passes no ``now_mono``.
    """

    def __init__(
        self, stale_after: float = 5.0, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.stale_after = stale_after
        self.clock = clock
        self._lock = threading.Lock()
        # server -> (digest, decoded stamp, monotonic receipt time)
        self._held: dict[str, tuple[LoadDigest, HLCStamp, float]] = {}

    def observe(self, digest: LoadDigest, now_mono: float | None = None) -> bool:
        """Merge *digest*; True when it advanced the view (HLC order)."""
        try:
            stamp = digest.stamp()
        except (ValueError, AttributeError):
            return False  # malformed stamp: never corrupt the view
        now = self.clock() if now_mono is None else now_mono
        with self._lock:
            held = self._held.get(digest.server)
            if held is not None and held[1] >= stamp:
                return False
            self._held[digest.server] = (digest, stamp, now)
            return True

    def digest(self, server: str) -> LoadDigest | None:
        """The held digest for *server* regardless of age (None if none)."""
        with self._lock:
            held = self._held.get(server)
        return None if held is None else held[0]

    def staleness(self, server: str, now_mono: float | None = None) -> float | None:
        """Seconds since *server*'s digest arrived (None if never seen)."""
        with self._lock:
            held = self._held.get(server)
        if held is None:
            return None
        now = self.clock() if now_mono is None else now_mono
        return max(0.0, now - held[2])

    def fresh_digest(
        self, server: str, now_mono: float | None = None
    ) -> LoadDigest | None:
        """The digest for *server* if younger than ``stale_after``.

        A stale digest returns None — the peer decays to *unknown*, it
        is never treated as idle.
        """
        age = self.staleness(server, now_mono)
        return None if age is None or age > self.stale_after else self.digest(server)

    def peers(self) -> list[str]:
        with self._lock:
            return sorted(self._held)

    def forget(self, server: str) -> None:
        with self._lock:
            self._held.pop(server, None)

    def describe(self, now_mono: float | None = None) -> dict[str, Any]:
        """JSON-able view: per-peer digest, age, and aged score."""
        now = self.clock() if now_mono is None else now_mono
        with self._lock:
            held = dict(self._held)
        peers: dict[str, Any] = {}
        for server in sorted(held):
            digest, _stamp, received = held[server]
            age = max(0.0, now - received)
            fresh = age <= self.stale_after
            peers[server] = {
                "digest": digest.describe(),
                "age_s": age,
                "fresh": fresh,
                # Stale decays to unknown (None), never to an idle 0.0.
                "score": digest.score() if fresh else None,
            }
        return peers
