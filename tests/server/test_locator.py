"""Locator: caching in front of the directory (paper §4.1)."""

from __future__ import annotations

from repro.core.naplet_id import NapletID
from repro.itinerary import Itinerary, seq
from repro.server.directory import DirectoryClient, DirectoryMode, NapletDirectory
from repro.server.locator import Locator
from repro.transport.base import urn_of
from repro.transport.inmemory import InMemoryTransport
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet


class FakeTime:
    """Injectable monotonic clock: tests advance it instead of sleeping."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _locator(cache_ttl=5.0, time_source=None):
    """Locator whose client authority is a local store (home == self)."""
    store = NapletDirectory()
    client = DirectoryClient(
        mode=DirectoryMode.HOME,
        transport=InMemoryTransport(),
        self_urn=urn_of("home"),
        local_directory=store,
    )
    kwargs = {"time_source": time_source} if time_source is not None else {}
    return Locator(client, cache_ttl=cache_ttl, **kwargs), store


def _nid():
    return NapletID.create("a", "home", stamp="240101120000")


class TestLocate:
    def test_miss_consults_directory(self):
        locator, store = _locator()
        nid = _nid()
        store.register_arrival(nid, "naplet://s3")
        assert locator.locate(nid) == "naplet://s3"
        assert locator.cache_misses == 1

    def test_hit_uses_cache(self):
        locator, store = _locator()
        nid = _nid()
        store.register_arrival(nid, "naplet://s3")
        locator.locate(nid)
        assert locator.locate(nid) == "naplet://s3"
        assert locator.cache_hits == 1
        assert locator.cache_misses == 1

    def test_unknown_returns_none(self):
        locator, _ = _locator()
        assert locator.locate(_nid()) is None

    def test_bypass_cache(self):
        locator, store = _locator()
        nid = _nid()
        store.register_arrival(nid, "naplet://old")
        locator.locate(nid)
        store.register_arrival(nid, "naplet://new")
        assert locator.locate(nid) == "naplet://old"  # cached
        assert locator.locate(nid, use_cache=False) == "naplet://new"

    def test_lookup_record_bypasses_cache(self):
        locator, store = _locator()
        nid = _nid()
        store.register_departure(nid, "naplet://s1")
        record = locator.lookup_record(nid)
        assert record.in_transit


class TestCacheMaintenance:
    def test_note_location_seeds_cache(self):
        locator, _ = _locator()
        nid = _nid()
        locator.note_location(nid, "naplet://learned")
        assert locator.locate(nid) == "naplet://learned"
        assert locator.cache_misses == 0

    def test_invalidate(self):
        locator, store = _locator()
        nid = _nid()
        locator.note_location(nid, "naplet://stale")
        locator.invalidate(nid)
        store.register_arrival(nid, "naplet://fresh")
        assert locator.locate(nid) == "naplet://fresh"

    def test_ttl_expiry(self):
        clock = FakeTime()
        locator, store = _locator(cache_ttl=5.0, time_source=clock)
        nid = _nid()
        locator.note_location(nid, "naplet://stale")
        store.register_arrival(nid, "naplet://fresh")
        clock.advance(4.9)
        assert locator.locate(nid) == "naplet://stale"  # still within TTL
        clock.advance(0.2)
        assert locator.locate(nid) == "naplet://fresh"

    def test_cache_size(self):
        locator, _ = _locator()
        locator.note_location(_nid(), "naplet://x")
        assert locator.cache_size == 1


class TestCachedPostsKeepTheRing:
    def test_ten_thousand_cached_posts_evict_no_record(self, small_line):
        """A cache hit is counted, not recorded: at thousands of posts a
        second a record per hit would flush the ring within seconds."""
        _net, servers = small_line
        home = servers["s00"]
        sitter = StallNaplet("sitter", spin_seconds=30.0)
        sitter.set_itinerary(Itinerary(seq("s01")))
        nid = home.launch(sitter, owner="alice")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        assert home.messenger.post(None, nid, "warm").status == "delivered"
        hits = home.locator.cache_hits
        before = home.journal.record("before-the-posts")
        for body in range(10_000):
            assert home.messenger.post(None, nid, body).status == "delivered"
        assert home.locator.cache_hits - hits == 10_000
        assert before in home.journal.snapshot()
        families = home.telemetry.registry.snapshot()
        assert families.value("naplet_journal_records_total", kind="locator-cache-hit") == (
            home.locator.cache_hits
        )
        home.terminate_naplet(nid)
