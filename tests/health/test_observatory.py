"""The health plane's load half: digests, the merged view, load-aware order.

Covers DESIGN.md §6.4 bottom-up: LoadDigest scoring and round-trips,
SpaceView HLC merging and staleness decay (stale → unknown, never idle),
the heartbeat's no-dial guarantee over already-open channels, and the
three-rung ordering fallback ladder with its journal evidence.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
import time

import pytest

from repro.health.load import LoadDigest, SpaceView
from repro.itinerary import Itinerary
from repro.itinerary.pattern import alt, seq
from repro.server import ServerConfig, SpaceAdmin
from repro.simnet import full_mesh, line
from repro.transport.base import Frame, FrameKind
from repro.util.concurrency import wait_until
from repro.util.hlc import HybridLogicalClock

from tests.conftest import CollectorNaplet

pytestmark = pytest.mark.health


def _digest(server: str, clock: HybridLogicalClock | None = None, **load) -> LoadDigest:
    clock = clock or HybridLogicalClock(server)
    return LoadDigest(server=server, seq=1, hlc=clock.now().encode(), **load)


def _warm_links(servers) -> None:
    """Open every directed in-memory link with a ping, as real traffic would."""
    for a in servers.values():
        for b in servers.values():
            if a is not b:
                a.transport.request(
                    Frame(kind=FrameKind.PING, source=a.urn, dest=b.urn)
                )


class TestLoadDigest:
    def test_score_sums_queue_depths_and_caps_cpu(self):
        digest = _digest(
            "s00", residents=2, active=1, worker_backlog=3,
            dead_letter_depth=1, cpu_rate=2.5,
        )
        assert digest.score() == pytest.approx(2 + 1 + 3 + 1 + 2.5)
        spinning = dataclasses.replace(digest, cpu_rate=500.0)
        assert spinning.score() == pytest.approx(2 + 1 + 3 + 1 + 8.0)

    def test_describe_from_dict_round_trip(self):
        digest = _digest("s01", residents=4, bandwidth=12.5, egress_bytes=900)
        assert LoadDigest.from_dict(digest.describe()) == digest

    def test_from_dict_defaults_missing_load_fields(self):
        sparse = LoadDigest.from_dict(
            {"server": "s02", "seq": 3, "hlc": _digest("s02").hlc}
        )
        assert sparse.residents == 0 and sparse.score() == 0.0


class TestSpaceView:
    def test_merge_keeps_only_strictly_newer_stamps(self):
        view = SpaceView()
        clock = HybridLogicalClock("s01")
        old = _digest("s01", clock, residents=1)
        new = _digest("s01", clock, residents=7)
        assert view.observe(new)
        # Duplicated and reordered heartbeats cannot roll the view back.
        assert not view.observe(new)
        assert not view.observe(old)
        assert view.digest("s01").residents == 7

    def test_stale_digest_decays_to_unknown_not_idle(self):
        view = SpaceView(stale_after=5.0)
        assert view.observe(_digest("s01"), now_mono=100.0)
        assert view.fresh_digest("s01", now_mono=104.0) is not None
        assert view.fresh_digest("s01", now_mono=106.0) is None
        # ...but the digest and its age are still queryable.
        assert view.digest("s01") is not None
        assert view.staleness("s01", now_mono=106.0) == pytest.approx(6.0)

    def test_describe_nulls_the_score_of_stale_peers(self):
        view = SpaceView(stale_after=1.0)
        view.observe(_digest("s01", residents=3), now_mono=0.0)
        fresh = view.describe(now_mono=0.5)["s01"]
        stale = view.describe(now_mono=2.0)["s01"]
        assert fresh["fresh"] and fresh["score"] == pytest.approx(3.0)
        assert not stale["fresh"] and stale["score"] is None

    def test_malformed_stamp_never_corrupts_the_view(self):
        view = SpaceView()
        bad = LoadDigest(server="s01", seq=1, hlc="not a stamp")
        assert not view.observe(bad)
        assert view.peers() == []

    def test_forget_and_unknown_peer(self):
        view = SpaceView()
        assert view.staleness("ghost") is None
        view.observe(_digest("s01"))
        view.forget("s01")
        assert view.peers() == []


class TestHeartbeat:
    def test_the_beat_rides_the_one_health_loop(self, space):
        """Sampler, watchdog and heartbeat share one thread per server."""
        _net, servers = space(line(2, prefix="s"))
        names = [t.name for t in threading.enumerate()]
        for host in servers:
            assert names.count(f"health-{host}") == 1
        assert not [n for n in names if n.startswith("observatory-")]

    def test_beat_reaches_only_already_open_channels(self, space):
        _net, servers = space(line(3, prefix="s"))
        # No traffic yet: no live links, so a beat sends nothing — the
        # plane never dials.
        assert servers["s00"].health.tick() == 0
        _warm_links(servers)
        opened_before = servers["s00"].transport.connections_opened()
        assert servers["s00"].health.tick() == 2
        assert servers["s00"].transport.connections_opened() == opened_before
        for peer in ("s01", "s02"):
            assert servers[peer].health.view.digest("s00") is not None

    def test_receipt_is_journaled_and_gauged(self, space):
        _net, servers = space(line(2, prefix="s"))
        _warm_links(servers)
        servers["s00"].health.tick()
        records = servers["s01"].journal.records(kind="load-digest")
        assert records and records[-1].category == "load"
        assert records[-1].detail["peer"] == "s00"
        snapshot = servers["s01"].telemetry.registry.snapshot()
        assert snapshot.total("naplet_load_digests_received_total") >= 1.0
        family = snapshot.family("naplet_peer_load")
        assert any("s00" in str(labels) for labels in family.samples)

    def test_a_failing_beat_is_journaled_with_its_error(self, space):
        """The loop survives a tick whose digest breaks, and says what broke."""
        _net, servers = space(line(2, prefix="s"), config=ServerConfig(health_cadence=0.02))
        server = servers["s00"]

        def broken_digest():
            raise RuntimeError("beat broke")

        server.health.local_digest = broken_digest
        assert wait_until(
            lambda: server.journal.count("health-tick-error") >= 2, timeout=5
        )
        (first, *_rest) = server.journal.find("health-tick-error")
        assert first.detail == {"error": repr(RuntimeError("beat broke"))}

    def test_malformed_frame_is_rejected_politely(self, space):
        _net, servers = space(line(2, prefix="s"))
        reply = servers["s01"].health.handle_load_frame(
            Frame(
                kind=FrameKind.LOAD,
                source=servers["s00"].urn,
                dest=servers["s01"].urn,
                payload=b"garbage",
            )
        )
        assert pickle.loads(reply) == {
            "ok": False, "reason": "malformed load digest",
        }

    def test_dormant_observatory_acks_but_never_merges(self, space):
        _net, servers = space(
            line(2, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        obs = servers["s01"].health
        assert not obs.enabled and obs._thread is None
        assert obs.tick() == 0
        digest = servers["s00"].health.local_digest()
        reply = obs.handle_load_frame(
            Frame(
                kind=FrameKind.LOAD,
                source=servers["s00"].urn,
                dest=servers["s01"].urn,
                payload=pickle.dumps(digest.describe()),
            )
        )
        assert pickle.loads(reply) == {"ok": True, "merged": False}
        assert obs.view.peers() == []

    def test_local_digest_counts_residency_and_dead_letters(self, space):
        _net, servers = space(line(2, prefix="s"))
        digest = servers["s00"].health.local_digest()
        assert digest.server == "s00"
        assert digest.residents == 0
        assert digest.dead_letter_depth == 0
        assert digest.stamp().node == "s00"


class TestOrderingLadder:
    """order_branches: rung by rung, then the live Alt integration."""

    @pytest.fixture()
    def mesh(self, space):
        _net, servers = space(full_mesh(3, prefix="s"))
        _warm_links(servers)
        return servers

    def _alt_pattern(self):
        return alt("s01", "s02")

    def test_rung1_dormant_or_static_config_returns_none(self, space):
        _net, servers = space(
            line(3, prefix="s"),
            config=ServerConfig(telemetry_enabled=False),
        )
        obs = servers["s00"].health
        agent = CollectorNaplet("r1")
        agent.set_itinerary(Itinerary(seq(self._alt_pattern())))
        assert obs.order_branches(agent, self._alt_pattern()) is None
        assert servers["s00"].journal.records(kind="load") == []

    def test_rung2_unknown_candidate_falls_back_and_journals_why(self, mesh):
        obs = mesh["s00"].health
        clock = mesh["s00"].journal.clock
        # s01 has a digest, s02 was never heard: static order, explained.
        obs.view.observe(_digest("s01", clock, residents=9))
        agent = CollectorNaplet("r2")
        agent.set_itinerary(Itinerary(seq(self._alt_pattern())))
        assert obs.order_branches(agent, self._alt_pattern()) is None
        record = mesh["s00"].journal.records(kind="load")[-1]
        assert record.detail["fallback"].startswith("s02: no digest")
        assert record.detail["changed"] is False
        assert obs.reroutes() == 0

    def test_rung2_stale_candidate_is_unknown_not_idle(self, mesh):
        obs = mesh["s00"].health
        clock = mesh["s00"].journal.clock
        obs.view.observe(_digest("s01", clock, residents=9))
        # s02 idle but heard long ago: must NOT win on its stale zero.
        obs.view.observe(_digest("s02", clock), now_mono=-1000.0)
        agent = CollectorNaplet("r2b")
        agent.set_itinerary(Itinerary(seq(self._alt_pattern())))
        assert obs.order_branches(agent, self._alt_pattern()) is None
        record = mesh["s00"].journal.records(kind="load")[-1]
        assert "stale" in record.detail["fallback"]

    def test_rung3_skew_reorders_and_counts_a_reroute(self, mesh):
        obs = mesh["s00"].health
        clock = mesh["s00"].journal.clock
        obs.view.observe(_digest("s01", clock, residents=5, active=3))
        obs.view.observe(_digest("s02", clock))
        agent = CollectorNaplet("r3")
        agent.set_itinerary(Itinerary(seq(self._alt_pattern())))
        assert obs.order_branches(agent, self._alt_pattern()) == (1, 0)
        assert obs.reroutes() == 1
        record = mesh["s00"].journal.records(kind="load")[-1]
        assert record.detail["order"] == [1, 0]
        assert record.detail["changed"] is True
        scores = {c["server"]: c["score"] for c in record.detail["candidates"]}
        assert scores["s01"] == pytest.approx(8.0)
        assert scores["s02"] == pytest.approx(0.0)

    def test_rung3_equal_scores_reproduce_declaration_order(self, mesh):
        obs = mesh["s00"].health
        clock = mesh["s00"].journal.clock
        obs.view.observe(_digest("s01", clock, residents=2))
        obs.view.observe(_digest("s02", clock, residents=2))
        agent = CollectorNaplet("r3b")
        agent.set_itinerary(Itinerary(seq(self._alt_pattern())))
        assert obs.order_branches(agent, self._alt_pattern()) == (0, 1)
        assert obs.reroutes() == 0
        assert mesh["s00"].journal.records(kind="load")[-1].detail["changed"] is False

    def test_local_server_is_always_fresh(self, mesh):
        obs = mesh["s00"].health
        clock = mesh["s00"].journal.clock
        obs.view.observe(_digest("s01", clock, residents=9))
        pattern = alt("s01", "s00")
        agent = CollectorNaplet("local")
        agent.set_itinerary(Itinerary(seq(pattern)))
        # s00 never appears in its own view, yet ordering works: the
        # local digest is computed on demand (stale_s == 0).
        assert obs.order_branches(agent, pattern) == (1, 0)

    def test_live_alt_prefers_the_less_loaded_mirror(self, mesh):
        obs = mesh["s00"].health
        clock = mesh["s00"].journal.clock
        obs.view.observe(_digest("s01", clock, residents=5, active=3))
        obs.view.observe(_digest("s02", clock))
        agent = CollectorNaplet("tour")
        agent.set_itinerary(Itinerary(seq(self._alt_pattern())))
        mesh["s00"].launch(agent, owner="test")
        admin = SpaceAdmin(mesh)
        assert admin.wait_space_idle()
        landed = [
            r for r in mesh["s02"].journal.snapshot() if r.kind == "naplet-arrive"
        ]
        assert landed, "the idle mirror should have been chosen first"
        assert not [
            r for r in mesh["s01"].journal.snapshot() if r.kind == "naplet-arrive"
        ]
        assert obs.reroutes() == 1


class TestSurfaces:
    def test_space_admin_exposes_every_observatory(self, space):
        _net, servers = space(line(2, prefix="s"))
        _warm_links(servers)
        servers["s01"].health.tick()
        view = SpaceAdmin(servers).space_view()
        assert sorted(view) == ["s00", "s01"]
        assert view["s00"]["enabled"] is True
        assert "s01" in view["s00"]["peers"]

    def test_load_service_is_registered_and_answers(self, space):
        """The load view is a kind of the one open ``harvest`` service; a
        stale peer rides home as unknown (``score: None``), never idle."""
        # Manual ticks only, so no background beat refreshes s01 at s00.
        _net, servers = space(line(2, prefix="s"), config=ServerConfig(health_cadence=60.0))
        _warm_links(servers)
        servers["s01"].health.tick()
        service = servers["s00"].resource_manager._open_services["harvest"]
        row = service.harvest(("load",))
        assert set(row) == {"server", "status", "load"}
        assert row["status"]["health"] == "enabled"
        assert row["load"]["local"]["server"] == "s00"
        assert "s01" in row["load"]["peers"]

        plane = servers["s00"].health
        plane.clock = lambda: time.monotonic() + plane.view.stale_after + 1.0
        entry = service.harvest(("load",))["load"]["peers"]["s01"]
        assert entry["score"] is None and entry["fresh"] is False

    def test_describe_reports_lifecycle_and_local_digest(self, space):
        _net, servers = space(line(2, prefix="s"))
        info = servers["s00"].health.describe_load()
        assert info["enabled"] and info["server"] == "s00"
        assert info["local"]["server"] == "s00"
        assert info["reroutes"] == 0
