"""``tools/naplet.py stat``: the renderers over harvest rows, the tail,
and the live --once acceptance path (the module comes from the shared
``naplet_cli`` fixture).
"""

from __future__ import annotations

import json

import pytest

from repro.itinerary import Itinerary
from repro.itinerary.pattern import singleton
from repro.server import ServerConfig, SpaceAdmin
from repro.simnet import line
from repro.util.concurrency import wait_until

from tests.health.conftest import WedgedNaplet

pytestmark = pytest.mark.health


def _assert_same_keys(mine, theirs, path="row"):
    """Two harvest payloads have the same keys at every nesting level.

    Lists are compared through their first items (the two collection paths
    see different *numbers* of records, samples and profiles); a record's
    detail, a metric's label set and the per-peer map are free-form.
    """
    if isinstance(mine, dict) and isinstance(theirs, dict):
        if path.rsplit(".", 1)[-1] in ("detail", "labels", "peers"):
            return
        assert set(mine) == set(theirs), path
        for key in mine:
            _assert_same_keys(mine[key], theirs[key], f"{path}.{key}")
    elif isinstance(mine, list) and isinstance(theirs, list):
        if mine and theirs:
            _assert_same_keys(mine[0], theirs[0], f"{path}[0]")
    else:
        assert not isinstance(mine, (dict, list)), path
        assert not isinstance(theirs, (dict, list)), path


class TestRender:
    def test_synthetic_rows_render_all_sections(self, naplet_cli):
        rows = [
            {
                "server": "s00",
                "status": {"health": "enabled"},
                "health": {
                    "residents": 2,
                    "samples_taken": 10,
                    "dead_letter_depth": 3,
                    "findings": [
                        {
                            "kind": "stuck_naplet",
                            "severity": "warning",
                            "server": "s00",
                            "subject": "nap-1",
                            "detail": "no progress for 2s",
                            "first_seen": 1.0,
                        }
                    ],
                    "profiles": [
                        {
                            "naplet": "nap-1",
                            "resident": True,
                            "cpu_seconds": 1.5,
                            "cpu_rate": 0.4,
                            "bandwidth": 2048.0,
                            "messages_sent": 7,
                        },
                        {
                            "naplet": "nap-2",
                            "resident": False,
                            "cpu_seconds": 9.0,
                            "cpu_rate": 0.0,
                            "bandwidth": 0.0,
                            "messages_sent": 0,
                        },
                    ],
                },
            },
        ]
        output = naplet_cli.render(rows, top=5)
        assert "servers=1" in output
        assert "stuck_naplet" in output and "no progress for 2s" in output
        assert "dead letters space-wide: 3" in output
        # nap-2 has more CPU: listed first in the top table.
        assert output.index("nap-2") < output.index("nap-1@") if "nap-1@" in output else True
        lines = output.splitlines()
        top_rows = [l for l in lines if l.strip().startswith("nap-")]
        assert top_rows[0].strip().startswith("nap-2")

    def test_findings_sorted_most_severe_first(self, naplet_cli):
        rows = [
            {
                "server": "s00",
                "status": {"health": "enabled"},
                "health": {
                    "findings": [
                        {"kind": "a", "severity": "warning", "subject": "x",
                         "detail": "", "first_seen": 1.0},
                        {"kind": "b", "severity": "critical", "subject": "y",
                         "detail": "", "first_seen": 2.0},
                    ],
                    "profiles": [],
                },
            }
        ]
        output = naplet_cli.render(rows)
        assert output.index("critical") < output.index("warning")

    def test_unreachable_server_row_is_shown_not_fatal(self, naplet_cli):
        rows = [
            {"server": "s00", "error": "connection refused"},
            {"server": "s01", "status": {"health": "enabled"}, "health": {"profiles": []}},
        ]
        output = naplet_cli.render(rows)
        assert "unreachable: connection refused" in output
        assert "(space is healthy)" in output

    def test_empty_space_renders_placeholders(self, naplet_cli):
        output = naplet_cli.render([])
        assert "(no resource profiles yet)" in output
        assert "(space is healthy)" in output


class TestLiveDashboard:
    def test_once_renders_a_wedged_naplet_finding(self, naplet_cli, space):
        """ISSUE acceptance: the dashboard shows the stuck_naplet finding."""
        _network, servers = space(
            line(2, prefix="s"),
            config=ServerConfig(health_cadence=0.05, health_stuck_deadline=0.15),
        )
        agent = WedgedNaplet("wedged")
        agent.set_itinerary(Itinerary(singleton("s01")))
        servers["s00"].launch(agent, owner="ops")
        admin = SpaceAdmin(servers)
        assert wait_until(lambda: admin.space_findings(), timeout=5.0)

        rows = admin.harvest(("metrics", "health"))
        output = naplet_cli.render(rows)
        assert "stuck_naplet" in output
        assert "no CPU/message progress" in output
        assert "findings: 1" in output

    def test_rows_carry_wire_bytes_and_render_shows_them(self, naplet_cli, space):
        """Perf plane: the dashboard's in-B/out-B columns read the
        transport's per-endpoint byte counters."""
        import repro
        from repro.itinerary import ResultReport, SeqPattern
        from tests.conftest import CollectorNaplet

        _network, servers = space(line(2, prefix="s"))
        listener = repro.NapletListener()
        agent = CollectorNaplet("bytes-tour")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01"], post_action=ResultReport("visited"))
            )
        )
        servers["s00"].launch(agent, owner="ops", listener=listener)
        listener.next_report(timeout=15)
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()

        rows = admin.harvest(("metrics", "health"))
        by_server = {row["server"]: row["metrics"] for row in rows}
        assert by_server["s00"]["egress_bytes"] > 0  # shipped the naplet out
        assert by_server["s01"]["ingress_bytes"] > 0  # and s01 took it in
        output = naplet_cli.render(rows)
        assert "in-B" in output and "out-B" in output

    def test_render_tolerates_rows_without_wire_metrics(self, naplet_cli):
        # A harvest that did not ask for the metrics kind has no byte counters.
        rows = [{"server": "s00", "status": {}, "health": {"profiles": []}}]
        output = naplet_cli.render(rows)
        assert "s00" in output and "0.0" in output

    def test_in_process_and_probe_rows_are_the_same_rows(self, naplet_cli, space):
        """One builder, two collection paths: the key sets match at every
        nesting level for every kind, and the rows survive JSON into every
        renderer unchanged."""
        import repro
        from repro.health import harvest_via_probe
        from repro.health.harvest import ALL, merged_journal
        from repro.perf import render_hop_costs

        _network, servers = space(line(2, prefix="s"))
        admin = SpaceAdmin(servers)
        listener = repro.NapletListener()
        probed = harvest_via_probe(
            servers["s00"], ["s00", "s01"], listener, kinds=ALL, timeout=15.0
        )
        assert admin.wait_space_idle()
        local = admin.harvest(ALL)
        assert [row["server"] for row in probed] == ["s00", "s01"]
        for mine, theirs in zip(local, probed):
            assert set(mine) == {"server", "status", *ALL}
            _assert_same_keys(mine, theirs)

        for rows in (local, probed):
            rows = json.loads(json.dumps(rows))
            assert "servers=2" in naplet_cli.render(rows)
            view = {row["server"]: row["load"] for row in rows}
            assert "2 observers" in naplet_cli.render_space_view(view)
            records = merged_journal(rows)
            assert len(naplet_cli.render_lines(records)) == len(records) + 2
            assert "journey" in naplet_cli.render_journey(records, "any")
            assert "hop" in render_hop_costs(records)

    def test_cli_requires_demo_mode(self, naplet_cli):
        with pytest.raises(SystemExit):
            naplet_cli.main(["stat", "--once"])

    @pytest.mark.slow
    def test_demo_once_prints_a_frame(self, naplet_cli, capsys):
        assert naplet_cli.main(["stat", "--demo", "--once"]) == 0
        out = capsys.readouterr().out
        assert "naplet stat" in out
        assert "top naplets by CPU" in out
        assert "space view" in out

    @pytest.mark.slow
    def test_demo_wedge_once_shows_the_finding(self, naplet_cli, capsys):
        assert naplet_cli.main(["stat", "--demo", "--wedge", "--once"]) == 0
        out = capsys.readouterr().out
        assert "stuck_naplet" in out and "active findings: 1" in out
        assert "4 observers x 4 peers" in out
        # The in-B/out-B columns read real traffic, not zeros.
        d01 = next(l for l in out.splitlines() if l.strip().startswith("d01"))
        assert "0.0" not in d01.split()[5:7]


class TestJourneyAndFollow:
    def _tour(self, servers):
        import repro
        from repro.itinerary import ResultReport, SeqPattern
        from tests.conftest import CollectorNaplet

        listener = repro.NapletListener()
        agent = CollectorNaplet("stat-tour")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01"], post_action=ResultReport("visited"))
            )
        )
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        listener.next_report(timeout=15)
        return nid

    def test_tail_advances_watermarks(self, naplet_cli, space):
        _network, servers = space(line(2, prefix="s"))
        admin = SpaceAdmin(servers)
        nid = self._tour(servers)
        assert admin.wait_space_idle()
        watermarks: dict[str, int] = {}
        first = naplet_cli.tail(admin.harvest(("journal",)), watermarks)
        assert first and watermarks
        # Nothing new: the same watermarks yield an empty tail...
        assert naplet_cli.tail(admin.harvest(("journal",)), watermarks) == []
        # ...until fresh records are journaled.
        servers["s00"].journal.record("poke", naplet=str(nid))
        fresh = naplet_cli.tail(admin.harvest(("journal",)), watermarks)
        assert [r.kind for r in fresh] == ["poke"]

    def test_tail_follows_one_journey(self, naplet_cli, space):
        _network, servers = space(line(2, prefix="s"))
        admin = SpaceAdmin(servers)
        nid = self._tour(servers)
        assert admin.wait_space_idle()
        rows = admin.harvest(("journal",))
        records = naplet_cli.tail(rows, {}, journey=str(nid))
        assert records == admin.harvest_journal(journey=str(nid))
        assert {"naplet-launch", "hop", "landing"} <= {
            r.kind for r in records
        }
        assert naplet_cli.tail(rows, {}, journey="no-such-journey") == []

    def test_render_journey_lists_records_or_a_hint(self, naplet_cli, space):
        _network, servers = space(line(2, prefix="s"))
        admin = SpaceAdmin(servers)
        nid = self._tour(servers)
        assert admin.wait_space_idle()
        records = admin.harvest_journal(journey=str(nid))
        output = naplet_cli.render_journey(records, str(nid))
        assert f"journey {nid}" in output
        assert " hop " in output
        empty = naplet_cli.render_journey([], "ghost")
        assert "no records" in empty

    @pytest.mark.slow
    def test_demo_follow_tails_records(self, naplet_cli, capsys):
        assert naplet_cli.main(["stat", "--demo", "--follow", "--once"]) == 0
        out = capsys.readouterr().out
        assert "naplet-launch" in out
        # Tail mode is append-only: no screen-clear escape codes.
        assert "\x1b[2J" not in out


class TestSpaceViewPanel:
    """render_space_view: the health planes' who-sees-whom matrix."""

    def test_synthetic_view_renders_scores_and_unknowns(self, naplet_cli):
        view = {
            "s00": {
                "enabled": True,
                "reroutes": 2,
                "peers": {
                    "s01": {"fresh": True, "score": 3.0, "age_s": 0.1},
                    "s02": {"fresh": False, "score": None, "age_s": 9.0},
                },
            },
            "s01": {"enabled": False, "peers": {}},
        }
        output = naplet_cli.render_space_view(view)
        assert "space view" in output
        assert "3.0" in output          # fresh peer shows its score
        assert "?" in output            # stale peer decays to unknown
        assert "reroutes=2" in output
        assert "health off" in output  # a dark server is called out

    def test_empty_view_renders_placeholder(self, naplet_cli):
        assert "no load views" in naplet_cli.render_space_view({})

    def test_live_space_view_matrix(self, naplet_cli, space):
        from repro.simnet import line
        from repro.transport.base import Frame, FrameKind

        _net, servers = space(line(2, prefix="s"))
        for a in servers.values():
            for b in servers.values():
                if a is not b:
                    a.transport.request(
                        Frame(kind=FrameKind.PING, source=a.urn, dest=b.urn)
                    )
        for server in servers.values():
            server.health.tick()
        admin = SpaceAdmin(servers)
        output = naplet_cli.render_space_view(admin.space_view())
        row = next(l for l in output.splitlines() if l.strip().startswith("s00"))
        # s00 heard s01's heartbeat: two numeric cells, no unknowns.
        assert "?" not in row
