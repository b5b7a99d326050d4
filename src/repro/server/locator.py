"""Naplet tracing and location (paper §4.1).

The :class:`Locator` answers "where is naplet X now?" for the Messenger and
the NapletManager.  It consults, in order:

1. its **cache** of recently inquired locations (reducing the response time
   of subsequent requests, as the paper prescribes);
2. the **directory service** via the server's
   :class:`~repro.server.directory.DirectoryClient` (central or home mode);
3. nothing — in directory-less systems it returns ``None`` and the
   Messenger falls back to address-book seeds plus trace forwarding.

Cache entries are invalidated on migration notifications and expire after a
TTL so stale locations self-heal; a stale answer is *safe* regardless,
because message forwarding chases naplets along server traces.  The cache
is LRU-bounded (``cache_capacity``) so a long-running server tracking
millions of naplets cannot grow it without limit; evictions are counted
once, in ``cache_evictions``, which the metrics page reads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.core.naplet_id import NapletID
from repro.server.directory import DirectoryClient, DirectoryRecord
from repro.telemetry.journal import SpaceJournal

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.exposition import ServerTelemetry

__all__ = ["Locator"]

# Seconds a cached location is trusted, and the cache's LRU bound.
_CACHE_TTL = 5.0
_CACHE_CAPACITY = 10_000


class Locator:
    """Location service with a bounded (LRU + TTL) cache before the directory."""

    def __init__(
        self,
        directory: DirectoryClient,
        cache_ttl: float = _CACHE_TTL,
        journal: SpaceJournal | None = None,
        telemetry: "ServerTelemetry | None" = None,
        cache_capacity: int | None = _CACHE_CAPACITY,
        time_source: "Callable[[], float]" = time.monotonic,
    ) -> None:
        self.directory = directory
        self.cache_ttl = cache_ttl
        self.cache_capacity = cache_capacity
        self._now = time_source
        self.journal = journal if journal is not None else SpaceJournal("locator")
        self._cache: OrderedDict[NapletID, tuple[str, float]] = OrderedDict()
        self._lock = threading.Lock()
        self.cache_evictions = 0
        if telemetry is not None:  # the metrics page's view of that count
            telemetry.registry.counter_fn(
                "naplet_locator_cache_evictions_total",
                "Locator cache entries evicted by the LRU capacity bound", None,
                lambda: self.cache_evictions,
            )

    # Read by the frozen journey harness: views over the journal's tally.
    @property
    def cache_hits(self) -> int:
        return self.journal.count("locator-cache-hit")

    @property
    def cache_misses(self) -> int:
        return self.journal.count("locator-cache-miss")

    # -- cache maintenance ----------------------------------------------- #

    def note_location(self, nid: NapletID, urn: str) -> None:
        """Record a location learned out-of-band (confirmations, arrivals)."""
        with self._lock:
            self._cache[nid] = (urn, self._now())
            self._cache.move_to_end(nid)
            if self.cache_capacity is not None:
                while len(self._cache) > self.cache_capacity:
                    self._cache.popitem(last=False)
                    self.cache_evictions += 1

    def invalidate(self, nid: NapletID) -> None:
        with self._lock:
            self._cache.pop(nid, None)

    def _cached(self, nid: NapletID) -> str | None:
        with self._lock:
            entry = self._cache.get(nid)
            if entry is None:
                return None
            urn, stamp = entry
            if self._now() - stamp > self.cache_ttl:
                del self._cache[nid]
                return None
            self._cache.move_to_end(nid)  # a hit refreshes LRU recency
            return urn

    # -- location ----------------------------------------------------------- #

    def locate(self, nid: NapletID, use_cache: bool = True) -> str | None:
        """Best-known server URN for *nid* (None when untraceable)."""
        if use_cache:
            cached = self._cached(nid)
            if cached is not None:
                # Counted, not recorded: one record per cached post would
                # flush the ring of everything older in about a second.
                self.journal.note("locator-cache-hit")
                return cached
        self.journal.record("locator-cache-miss", naplet=str(nid))
        record = self.directory.lookup(nid)
        if record is None:
            return None
        self.note_location(nid, record.server_urn)
        return record.server_urn

    def lookup_record(self, nid: NapletID) -> DirectoryRecord | None:
        """Full directory record (event + server), bypassing the cache."""
        return self.directory.lookup(nid)

    @property
    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)
