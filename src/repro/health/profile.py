"""Per-naplet resource profiles: bounded time series over monitor samples.

The paper's NapletMonitor accounts CPU, memory and bandwidth per confined
naplet thread group (§5.3); the control blocks already hold the point-in-
time numbers.  A :class:`ResourceProfile` turns those into *history*: the
health plane samples every resident control block on a fixed cadence and
appends a :class:`ResourceSample` here, so consumers (the watchdog, the
``naplet stat`` dashboard, the Chrome trace exporter) can ask for rates —
CPU utilisation, message bandwidth — and for progress ("has this naplet
done anything since sample N?") instead of instantaneous counters.

Profiles are bounded two ways: each keeps at most ``window`` samples
(a ring), and the :class:`ProfileTable` keeps at most ``capacity`` naplet
profiles, evicting the least-recently-updated (retired naplets age out
first).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet_id import NapletID

__all__ = ["ResourceSample", "ResourceProfile", "ProfileTable"]

# CPU deltas below this are clock jitter, not progress.
_CPU_EPSILON = 1e-7

# The health plane's bounds: samples kept per naplet profile, and naplet
# profiles kept per server (LRU).
WINDOW = 240
CAPACITY = 512


@dataclass(frozen=True)
class ResourceSample:
    """One reading of a naplet's control block."""

    wall: float  # time.time() at the sample
    mono: float  # time.monotonic() at the sample
    cpu_seconds: float
    wall_seconds: float  # age of this visit
    messages_sent: int
    message_bytes: int

    def describe(self) -> dict[str, Any]:
        return {
            "wall": self.wall,
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
            "messages_sent": self.messages_sent,
            "message_bytes": self.message_bytes,
        }


class ResourceProfile:
    """Bounded CPU/message/bandwidth time series for one naplet."""

    def __init__(self, nid: "NapletID", window: int = WINDOW) -> None:
        self.naplet_id = nid
        self.samples: deque[ResourceSample] = deque(maxlen=window)
        self.resident = True
        self.last_progress_mono: float | None = None
        self.first_seen_mono: float | None = None

    # -- recording (health-plane thread only) --------------------------- #

    def append(self, sample: ResourceSample) -> bool:
        """Record *sample*; returns True when it shows progress.

        Progress means the naplet consumed CPU, or sent a message or
        bytes, since the previous sample.  The first sample of a visit
        counts as progress (the naplet just landed).
        """
        previous = self.samples[-1] if self.samples else None
        self.samples.append(sample)
        if self.first_seen_mono is None:
            self.first_seen_mono = sample.mono
        progressed = previous is None or (
            sample.cpu_seconds - previous.cpu_seconds > _CPU_EPSILON
            or sample.messages_sent > previous.messages_sent
            or sample.message_bytes > previous.message_bytes
        )
        if progressed:
            self.last_progress_mono = sample.mono
        return progressed

    # -- rates ----------------------------------------------------------- #

    @property
    def latest(self) -> ResourceSample | None:
        return self.samples[-1] if self.samples else None

    def stalled_for(self, now_mono: float) -> float:
        """Seconds since the last observed progress (0.0 if never sampled)."""
        if self.last_progress_mono is None:
            return 0.0
        return max(0.0, now_mono - self.last_progress_mono)

    def _span(self) -> tuple[ResourceSample, ResourceSample] | None:
        if len(self.samples) < 2:
            return None
        return self.samples[0], self.samples[-1]

    def cpu_rate(self) -> float:
        """Mean CPU-seconds per wall-second over the retained window."""
        span = self._span()
        if span is None:
            return 0.0
        first, last = span
        elapsed = last.mono - first.mono
        if elapsed <= 0:
            return 0.0
        return max(0.0, last.cpu_seconds - first.cpu_seconds) / elapsed

    def bandwidth(self) -> float:
        """Mean message bytes per second over the retained window."""
        span = self._span()
        if span is None:
            return 0.0
        first, last = span
        elapsed = last.mono - first.mono
        if elapsed <= 0:
            return 0.0
        return max(0, last.message_bytes - first.message_bytes) / elapsed

    def series(self, attribute: str) -> list[tuple[float, float]]:
        """``(mono, value)`` pairs of one sample attribute, oldest first."""
        return [(s.mono, float(getattr(s, attribute))) for s in self.samples]

    def describe(self) -> dict[str, Any]:
        latest = self.latest
        return {
            "naplet": str(self.naplet_id),
            "resident": self.resident,
            "samples": len(self.samples),
            "cpu_seconds": latest.cpu_seconds if latest else 0.0,
            "cpu_rate": self.cpu_rate(),
            "bandwidth": self.bandwidth(),
            "messages_sent": latest.messages_sent if latest else 0,
            "message_bytes": latest.message_bytes if latest else 0,
            "wall_seconds": latest.wall_seconds if latest else 0.0,
        }

    def __len__(self) -> int:
        return len(self.samples)


class ProfileTable:
    """LRU-bounded map of naplet id → :class:`ResourceProfile`."""

    def __init__(self, capacity: int = CAPACITY, window: int = WINDOW) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.window = window
        self._profiles: "OrderedDict[NapletID, ResourceProfile]" = OrderedDict()
        self._lock = threading.Lock()
        self.evicted = 0

    def touch(self, nid: "NapletID") -> ResourceProfile:
        """Profile for *nid*, created (and moved to most-recent) on access."""
        with self._lock:
            profile = self._profiles.get(nid)
            if profile is None:
                profile = self._profiles[nid] = ResourceProfile(nid, self.window)
            else:
                self._profiles.move_to_end(nid)
            while len(self._profiles) > self.capacity:
                self._profiles.popitem(last=False)
                self.evicted += 1
            return profile

    def get(self, nid: "NapletID") -> ResourceProfile | None:
        with self._lock:
            return self._profiles.get(nid)

    def mark_non_resident(self, resident: "set[NapletID]") -> None:
        """Flip ``resident`` off for every profile not in *resident*."""
        with self._lock:
            for nid, profile in self._profiles.items():
                profile.resident = nid in resident

    def items(self) -> list[tuple["NapletID", ResourceProfile]]:
        with self._lock:
            return list(self._profiles.items())

    def top_by_cpu(self, count: int = 5) -> list[ResourceProfile]:
        """Profiles ordered by total CPU consumed, busiest first."""
        profiles = [p for _nid, p in self.items() if p.latest is not None]
        profiles.sort(key=lambda p: p.latest.cpu_seconds, reverse=True)  # type: ignore[union-attr]
        return profiles[:count]

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def __iter__(self) -> Iterator[ResourceProfile]:
        return iter(p for _nid, p in self.items())
