"""The one harvest (DESIGN.md §6.9): the probe over both transports, a
denying host as a row, a clone family's journey under one selection.

Row identity between the two collection paths lives next to the renderers
in the ``naplet stat`` suite beside this file; the on-site filter and the
service surface in ``tests/telemetry/test_journal.py`` and
``test_exposition.py``; the dark space in ``tests/telemetry/test_disabled.py``.
"""

from __future__ import annotations

import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.health import HarvestProbe, harvest_via_probe, merged_journal
from repro.health.harvest import ALL
from repro.itinerary import Itinerary, ParPattern, ResultReport, SeqPattern
from repro.server import NapletServer, SpaceAdmin
from repro.server.security import Permission, Rule, SecurityPolicy
from repro.simnet import full_mesh, line
from repro.telemetry.journal import dump_records, load_records, select
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until

from tests.conftest import CollectorNaplet

pytestmark = pytest.mark.health


class TestProbeOverTcp:
    def test_probe_rows_match_in_process_rows_over_sockets(self):
        transport = TcpTransport()
        authority, registry = SigningAuthority(), CodeBaseRegistry()
        servers = {
            name: NapletServer(name, transport, authority, registry)
            for name in ("t00", "t01")
        }
        try:
            rows = harvest_via_probe(
                servers["t00"], ["t00", "t01"], repro.NapletListener(), timeout=20.0
            )
            admin = SpaceAdmin(servers)
            assert admin.wait_space_idle()
            assert [row["server"] for row in rows] == ["t00", "t01"]
            for row, local in zip(rows, admin.harvest()):
                assert set(row) == set(local) == {"server", "status", *ALL}
                assert row["status"].keys() == local["status"].keys()
            # The probe's own hop t00 -> t01 crossed a real socket.  The
            # ledger books that exchange when t00's request returns, after
            # the landing whose row the probe took, so read it afterwards.
            assert isinstance(rows[1]["metrics"]["ingress_bytes"], int)
            assert wait_until(lambda: transport.endpoint_bytes("t01")[1] > 0)
            assert transport.meter.link("t00", "t01").frames >= 1
            wire = {(r.server, r.seq) for r in merged_journal(rows)}
            assert wire and wire <= {
                (r.server, r.seq) for r in admin.harvest_journal()
            }
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()


class BrokenHarvest:
    def harvest(self, kinds, **filters):
        raise RuntimeError("handler defect")


class TestDenyingHost:
    def test_denied_host_is_a_row_and_the_rest_are_complete(self, naplet_cli, space):
        _net, servers = space(line(3, prefix="s"))
        servers["s01"].security.policy = SecurityPolicy(
            [
                Rule.of({}, grants={"*"}),
                Rule.of({}, denies={Permission.service("harvest")}),
            ]
        )
        rows = harvest_via_probe(
            servers["s00"], ["s00", "s01", "s02"], repro.NapletListener(), timeout=15.0
        )
        assert [row["server"] for row in rows] == ["s00", "s01", "s02"]
        assert set(rows[1]) == {"server", "error"}
        assert "service:harvest" in rows[1]["error"]
        for row in (rows[0], rows[2]):
            assert set(row) == {"server", "status", *ALL}
        # The policy check guards the harvest and is journaled either way.
        assert servers["s01"].journal.count("service-denied", service="harvest") == 1
        assert servers["s01"].journal.count("service-granted") == 0
        assert servers["s02"].journal.count("service-granted", service="harvest") == 1

        output = naplet_cli.render(rows)
        denied = next(l for l in output.splitlines() if l.strip().startswith("s01"))
        assert "unreachable:" in denied and "service:harvest" in denied
        assert "servers=3" in output

    def test_missing_service_is_a_row_too(self, space):
        _net, servers = space(line(2, prefix="s"))
        servers["s01"].resource_manager.unregister_service("harvest")
        rows = harvest_via_probe(
            servers["s00"], ["s00", "s01"], repro.NapletListener(), timeout=15.0
        )
        assert set(rows[1]) == {"server", "error"}
        assert "no open service 'harvest'" in rows[1]["error"]

    def test_a_handler_defect_is_not_swallowed_into_a_row(self, space):
        _net, servers = space(line(2, prefix="s"))
        servers["s01"].resource_manager.register_open_service(
            "harvest", BrokenHarvest()
        )
        listener = repro.NapletListener()
        probe = HarvestProbe()
        probe.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s00", "s01"], post_action=ResultReport("rows"))
            )
        )
        servers["s00"].launch(probe, owner="ops", listener=listener)
        assert wait_until(lambda: servers["s01"].journal.count("naplet-exception") == 1)
        (event,) = servers["s01"].journal.find("naplet-exception")
        assert "handler defect" in event.detail["error"]
        assert SpaceAdmin(servers).wait_space_idle()
        assert listener.try_next() is None  # no row claims s01 was unreachable


class TestCloneFamilyJourney:
    """Regression: ``naplet stat --journey`` used its own, narrower filter
    and silently dropped the clones' spans."""

    def test_stat_and_log_select_the_same_whole_journey(
        self, naplet_cli, space, tmp_path
    ):
        _net, servers = space(full_mesh(4, prefix="s"))
        branches = ["s01", "s02", "s03"]
        listener = repro.NapletListener()
        agent = CollectorNaplet("fan-out")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(
                    branches, per_branch_action=ResultReport("visited")
                )
            )
        )
        nid = str(servers["s00"].launch(agent, owner="alice", listener=listener))
        assert len(listener.reports(3, timeout=20)) == 3
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()

        # What `naplet stat --journey` shows: harvest rows -> merged_journal.
        rows = admin.harvest()
        stat_view = merged_journal(rows, journey=nid)
        assert naplet_cli.tail(rows, {}, journey=nid) == stat_view
        # What `naplet log --journey` shows: a dump -> select.
        dump = str(tmp_path / "space.json")
        dump_records(dump, admin.harvest_journal())
        log_view = select(load_records(dump), journey=nid)
        assert stat_view == log_view

        # Every clone's share of the journey is there, under its own name.
        for kind in ("hop", "landing", "post-action"):
            found = [r for r in stat_view if r.kind == kind]
            assert sorted(_host(r) for r in found) == branches, kind
            # ...one under the launched id, two under the clones' own ids.
            assert len({r.naplet for r in found} - {nid}) == 2, kind
        # Other criteria narrow the journey after it is resolved, so event
        # records that carry no trace id still find their clone family.
        retired = admin.harvest_journal(journey=nid, kind="naplet-retired")
        assert sorted(r.server for r in retired) == branches
        # A trace id and a naplet id name the same journey.
        (trace_id,) = {r.trace_id for r in stat_view if r.trace_id}
        assert select(load_records(dump), journey=trace_id) == log_view


def _host(record) -> str:
    """The branch server a clone's record belongs to."""
    detail = record.detail
    dest = detail.get("dest") or (detail.get("attributes") or {}).get("dest")
    return dest.rsplit("/", 1)[-1] if dest else record.server
