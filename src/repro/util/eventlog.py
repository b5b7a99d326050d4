"""Structured event log.

Server components (Navigator, Messenger, Monitor…) append :class:`EventRecord`
entries describing protocol events (LAUNCH, LANDING, ARRIVAL, DEPART, message
forwarding hops, quota trips).  Tests and benchmarks assert against these
records rather than scraping textual logs, which keeps the protocol
observable without coupling to formatting.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["EventRecord", "EventLog", "RING_BOUND"]

# Records a long-lived recorder keeps before the oldest fall off: the
# bound of every server's and transport's EventLog and of the Tracer's
# span ring.  Observers still see every record, so the journal and its
# counters do not depend on it.
RING_BOUND = 8192


@dataclass(frozen=True)
class EventRecord:
    """One structured event: a kind, timestamps, and free-form detail.

    ``wall`` (``time.time``) orders events against the outside world;
    ``mono`` (``time.monotonic``) measures intervals between records
    without being disturbed by clock adjustments.
    """

    kind: str
    detail: dict[str, Any] = field(default_factory=dict)
    wall: float = field(default_factory=time.time)
    mono: float = field(default_factory=time.monotonic)

    @property
    def timestamp(self) -> float:
        """Wall-clock stamp (kept for callers predating the wall/mono split)."""
        return self.wall

    def matches(self, kind: str, **detail: Any) -> bool:
        """True when this record has *kind* and every given detail item."""
        if self.kind != kind:
            return False
        return all(self.detail.get(k) == v for k, v in detail.items())


class EventLog:
    """Append-only, thread-safe list of :class:`EventRecord`.

    A bounded ``maxlen`` discards the oldest entries, mirroring the paper's
    remark that footprints of *past and current* naplets are recorded for
    management purposes without growing unboundedly.  The ring is a
    ``deque``, so an append to a full log costs O(1).
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self._records: deque[EventRecord] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        # Observer called with each appended record (outside the lock).
        # The flight recorder hooks here so every component writing to a
        # shared EventLog feeds the journal without knowing it exists.
        self.on_record: Any | None = None

    def record(self, kind: str, **detail: Any) -> EventRecord:
        rec = EventRecord(kind=kind, detail=detail)
        with self._lock:
            self._records.append(rec)
        observer = self.on_record
        if observer is not None:
            try:
                observer(rec)
            except Exception:
                pass  # an observer failure must never break event recording
        return rec

    def snapshot(self) -> list[EventRecord]:
        with self._lock:
            return list(self._records)

    def find(self, kind: str, **detail: Any) -> list[EventRecord]:
        return [r for r in self.snapshot() if r.matches(kind, **detail)]

    def count(self, kind: str, **detail: Any) -> int:
        return len(self.find(kind, **detail))

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self.snapshot())
