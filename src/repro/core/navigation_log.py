"""Navigation log (paper §2.1).

Records arrival and departure times of the naplet at each server, giving the
owner detailed travel information for post-analysis.  The log travels with
the naplet; entries are appended by the runtime (Navigator/Monitor), never by
application code.

Closed visits fold, :data:`SEGMENT` at a time, into immutable segments,
each a field of a per-field image that stays off the wire toward a server
holding it: on a tour that revisits its servers a hop's log bytes stop
growing; a tour of new servers ships the whole log (DESIGN.md §6.7).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Iterator

__all__ = ["NavigationRecord", "NavigationLog", "SEGMENT"]

SEGMENT = 4  # closed visits per segment


@dataclass
class NavigationRecord:
    """One visit: the server, when the naplet arrived, and when it left."""

    server_urn: str
    arrival: float
    departure: float | None = None

    def __post_init__(self) -> None:
        self.server_urn = sys.intern(self.server_urn)  # a log pickles a server's name once

    @property
    def args(self) -> tuple[str, float, float | None]:
        """Constructor arguments: a record's share of a flat pickled run."""
        return (self.server_urn, self.arrival, self.departure)

    @property
    def complete(self) -> bool:
        return self.departure is not None

    @property
    def dwell(self) -> float | None:
        """Seconds spent at the server, once departed."""
        if self.departure is None:
            return None
        return self.departure - self.arrival


def _flat(records: list[NavigationRecord]) -> tuple:
    """Records as one flat tuple of their arguments: no tuple per record."""
    return tuple(item for record in records for item in record.args)


def _records(flat: tuple) -> list[NavigationRecord]:
    return [NavigationRecord(*flat[i:i + 3]) for i in range(0, len(flat), 3)]


class NavigationLog:
    """Ordered visit history of a naplet: closed segments, then the tail."""

    def __init__(self) -> None:
        self._segments: list[tuple] = []  # SEGMENT records each, flat
        self._records: list[NavigationRecord] = []  # the tail, not yet folded
        self._lock = threading.RLock()

    def record_arrival(self, server_urn: str, when: float | None = None) -> NavigationRecord:
        rec = NavigationRecord(server_urn=server_urn, arrival=when if when is not None else time.time())
        with self._lock:
            self._records.append(rec)
        return rec

    def record_departure(self, server_urn: str, when: float | None = None) -> NavigationRecord:
        """Close the most recent open visit to *server_urn*.

        Raises ``ValueError`` if there is no open visit there — a departure
        without an arrival indicates a runtime protocol bug.
        """
        stamp = when if when is not None else time.time()
        with self._lock:
            for rec in reversed(self._records):
                if rec.server_urn == server_urn and rec.departure is None:
                    rec.departure = stamp
                    head = self._records[:SEGMENT]
                    if len(head) == SEGMENT and all(r.complete for r in head):
                        self._segments.append(_flat(head))
                        del self._records[:SEGMENT]
                    return rec
        raise ValueError(f"no open visit at {server_urn!r} to depart from")

    def current_server(self) -> str | None:
        """Server of the open (not yet departed) visit, if any."""
        with self._lock:
            if self._records and self._records[-1].departure is None:
                return self._records[-1].server_urn
        return None

    def visits(self) -> list[NavigationRecord]:
        with self._lock:
            folded = [record for seg in self._segments for record in _records(seg)]
            return folded + self._records

    def servers_visited(self) -> list[str]:
        """Visit-ordered server names (with repeats for revisits)."""
        return [r.server_urn for r in self.visits()]

    def total_dwell(self) -> float:
        """Sum of completed dwell times across all visits."""
        return sum(r.dwell for r in self.visits() if r.dwell is not None)

    def __len__(self) -> int:
        with self._lock:
            return SEGMENT * len(self._segments) + len(self._records)

    def __iter__(self) -> Iterator[NavigationRecord]:
        return iter(self.visits())

    # -- pickling -------------------------------------------------------- #

    def __getstate__(self) -> tuple[tuple, ...]:
        """The segments, then the tail, each a flat run of records."""
        with self._lock:
            return (*self._segments, _flat(self._records))

    def __setstate__(self, state: tuple[tuple, ...]) -> None:
        *self._segments, tail = state
        self._records = _records(tail)
        self._lock = threading.RLock()
