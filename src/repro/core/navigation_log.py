"""Navigation log (paper §2.1).

Records arrival and departure times of the naplet at each server, giving the
owner detailed travel information for post-analysis.  The log travels with
the naplet; entries are appended by the runtime (Navigator/Monitor), never by
application code.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["NavigationRecord", "NavigationLog"]


@dataclass
class NavigationRecord:
    """One visit: the server, when the naplet arrived, and when it left."""

    server_urn: str
    arrival: float
    departure: float | None = None
    notes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.server_urn = sys.intern(self.server_urn)  # a log pickles a server's name once

    def __reduce__(self) -> tuple:
        # The log rides, and grows on, every hop: pickle arguments, not a dict.
        args = (self.server_urn, self.arrival, self.departure)
        return (NavigationRecord, (*args, self.notes) if self.notes else args)

    @property
    def complete(self) -> bool:
        return self.departure is not None

    @property
    def dwell(self) -> float | None:
        """Seconds spent at the server, once departed."""
        if self.departure is None:
            return None
        return self.departure - self.arrival


class NavigationLog:
    """Ordered visit history of a naplet."""

    def __init__(self) -> None:
        self._records: list[NavigationRecord] = []
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
            return list(self._records)

    def servers_visited(self) -> list[str]:
        """Visit-ordered server names (with repeats for revisits)."""
        with self._lock:
            return [r.server_urn for r in self._records]

    def total_dwell(self) -> float:
        """Sum of completed dwell times across all visits."""
        with self._lock:
            return sum(r.dwell for r in self._records if r.dwell is not None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[NavigationRecord]:
        return iter(self.visits())

    # -- pickling -------------------------------------------------------- #

    def __getstate__(self) -> list[NavigationRecord]:
        with self._lock:
            return list(self._records)

    def __setstate__(self, state: list[NavigationRecord]) -> None:
        self._records = list(state)
        self._lock = threading.RLock()
