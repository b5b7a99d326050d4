"""telemetry_enabled=False: no-op instruments, dormant health plane,
a service that says "disabled" instead of erroring.

The hot paths must run identically with telemetry off — same tours, same
results — while every observability surface degrades to an explicit,
non-throwing empty answer.
"""

from __future__ import annotations

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.health.harvest import ALL, HarvestService
from repro.server import ServerConfig, SpaceAdmin

from tests.conftest import CollectorNaplet


def _tour(servers):
    listener = repro.NapletListener()
    agent = CollectorNaplet("dark-tour")
    agent.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["s01", "s02", "s03"], post_action=ResultReport("visited")
            )
        )
    )
    servers["s00"].launch(agent, owner="alice", listener=listener)
    report = listener.next_report(timeout=10)
    assert servers["s03"].wait_idle()
    return report


class TestDisabledTelemetry:
    def test_hot_paths_run_and_instruments_record_nothing(self, space):
        from repro.simnet import line

        _network, servers = space(
            line(4, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        report = _tour(servers)
        assert report.payload == ["s01", "s02", "s03"]
        for server in servers.values():
            assert server.telemetry.enabled is False
            snap = server.telemetry.registry.snapshot()
            assert snap.value("naplet_journal_records_total", kind="landing") == 0
            assert snap.value("naplet_journal_records_total", kind="hop") == 0
            # Nothing is recorded at all: the journal is off with telemetry.
            assert server.journal.total_appended == 0

    def test_health_plane_is_dormant(self, space):
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        for server in servers.values():
            plane = server.health
            assert plane.enabled is False
            assert plane._thread is None
            plane.tick()
            assert plane.samples_taken == 0
            assert len(plane.profiles) == 0
            described = plane.describe()
            assert described["enabled"] is False
            assert described["findings"] == []

    def test_service_reports_disabled_instead_of_erroring(self, space):
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        row = HarvestService(servers["s00"]).harvest()
        # All three planes say *why* the row is empty...
        assert {
            plane: row["status"][plane]
            for plane in ("telemetry", "health", "journal")
        } == dict.fromkeys(("telemetry", "health", "journal"), "disabled")
        assert row["status"]["journal_depth"] == 0
        # ...and every kind still answers with an empty-but-valid payload.
        assert set(row) == {"server", "status", *ALL}
        assert all(f["samples"] == [] for f in row["metrics"]["families"].values())
        assert row["health"]["enabled"] is False
        assert row["health"]["findings"] == [] and row["health"]["profiles"] == []
        assert row["load"]["enabled"] is False and row["load"]["peers"] == {}
        assert row["journal"] == []
        assert SpaceAdmin(servers).harvest_journal() == []

    def test_probe_harvest_works_and_carries_the_disabled_flag(self, space):
        """A monitoring naplet touring a dark space gets told *why* it is
        dark, rather than misreading silence as idleness."""
        from repro.health import harvest_via_probe
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        listener = repro.NapletListener()
        rows = harvest_via_probe(servers["s00"], ["s00", "s01"], listener, timeout=15.0)
        assert [row["server"] for row in rows] == ["s00", "s01"]
        for row in rows:
            assert set(row["status"].values()) == {"disabled", 0}
            assert row["health"]["enabled"] is False
            assert row["journal"] == []

    def test_space_summary_still_reports_core_columns(self, space):
        from repro.simnet import line

        _network, servers = space(
            line(4, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        _tour(servers)
        admin = SpaceAdmin(servers)
        rows = {row.hostname: row for row in admin.space_summary()}
        assert rows["s01"].admitted_total == 1
        assert rows["s01"].health_findings == 0
        assert rows["s01"].dead_letter_depth == 0
        assert admin.space_findings() == []
