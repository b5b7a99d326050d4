"""What a hop leaves in the flight recorder: two records.

The source's ``hop`` span is the hop's cost record, written at the HLC
stamp its transfer frame carried; the destination's ``landing`` span is
the landing.  Nothing else is written per hop.  A journey adds its launch
(``naplet-launch`` and the ``launch`` span) and its end (the report's
``post-action`` span and ``naplet-retired``).
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.faults import FaultPlan
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import NapletServer, SpaceAdmin
from repro.simnet import line
from repro.telemetry.journal import dump_records, select
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet

pytestmark = pytest.mark.health

# tour_small's route: round the three peers, the twelfth hop home.
TOUR = [("s01", "s02", "s03")[i % 3] for i in range(11)] + ["s00"]

# What a journey records besides its hops.
PER_JOURNEY = {"naplet-launch": 1, "launch": 1, "post-action": 1, "naplet-retired": 1}


@pytest.fixture(params=["inmemory", "tcp"])
def four(request, space):
    """Four servers s00..s03, in-process or over sockets."""
    if request.param == "inmemory":
        _net, servers = space(line(4, prefix="s"))
        yield servers
        return
    transport, authority, registry = TcpTransport(), SigningAuthority(), CodeBaseRegistry()
    servers = {
        name: NapletServer(
            hostname=name, transport=transport, authority=authority, code_registry=registry
        )
        for name in ("s00", "s01", "s02", "s03")
    }
    yield servers
    for server in servers.values():
        server.shutdown()
    transport.close()


def _tour(servers, route=TOUR) -> tuple[str, list]:
    """Run *route* from s00; the journey's id and its merged records."""
    listener = repro.NapletListener()
    agent = CollectorNaplet("budget")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
    )
    nid = str(servers["s00"].launch(agent, owner="alice", listener=listener))
    assert listener.next_report(timeout=20).payload == route
    admin = SpaceAdmin(servers)
    assert admin.wait_space_idle()
    # A source closes its hop span after the landing acked, which may be
    # after the report is home.
    assert wait_until(
        lambda: len(admin.harvest_journal(journey=nid, kind="hop")) == len(route), timeout=10
    )
    return nid, admin.harvest_journal(journey=nid)


class TestRecordBudget:
    def test_a_hop_appends_exactly_two_records(self, four):
        _nid, records = _tour(four)
        assert Counter(r.kind for r in records) == Counter(
            {"hop": len(TOUR), "landing": len(TOUR), **PER_JOURNEY}
        )
        assert all(r.detail["status"] == "ok" for r in records if r.category == "span")

    def test_migrations_in_counts_the_landings(self, four):
        _nid, records = _tour(four)
        landed = Counter(r.server for r in records if r.kind == "landing")
        for name, server in four.items():
            assert server.navigator.migrations_in == landed[name], name
        assert sum(landed.values()) == len(TOUR)

    def test_every_hop_sorts_before_its_landing_however_late_it_closes(
        self, four, monkeypatch, naplet_cli, tmp_path, capsys
    ):
        """The hop span is written after the ack, when the naplet is already
        running at the destination (and may have left it): its causal
        position is its transfer frame's stamp, not the moment it closes."""
        navigator = four["s01"].navigator
        acked = navigator._transfer_acked

        def landings() -> int:
            return sum(server.journal.count("landing") for server in four.values())

        def late(*args, **kwargs):
            # The tour's next two hops land (the second back here) before
            # this ack is booked.
            later = min(landings() + 2, len(TOUR))
            wait_until(lambda: landings() >= later, timeout=10)
            acked(*args, **kwargs)

        monkeypatch.setattr(navigator, "_transfer_acked", late)
        nid, records = _tour(four)
        dump = str(tmp_path / "journey.json")
        dump_records(dump, records)
        assert naplet_cli.main(["log", dump, "--journey", nid, "--causal"]) == 0
        lines = capsys.readouterr().out.splitlines()
        hops = {
            _field(line, "span_id"): index for index, line in enumerate(lines) if " hop " in line
        }
        landings = [
            (index, _field(line, "parent_id"))
            for index, line in enumerate(lines)
            if " landing " in line
        ]
        assert len(hops) == len(landings) == len(TOUR)
        for index, parent in landings:
            assert hops[parent] < index, lines[index]


def _field(line: str, name: str) -> str:
    """The value of ``name=value`` in a ``naplet log`` line."""
    return line.split(f"{name}=", 1)[1].split(",", 1)[0].strip()


class TestRefusedLanding:
    def test_a_landing_the_authority_cannot_hear_of_is_not_counted(self, four):
        """s02's registration cannot reach the naplet's home (the HOME-mode
        authority): its dial is refused, so s02 refuses the landing, writes
        no landing record, and the hop from s01 ends in error."""
        servers = four
        servers["s00"].transport.fault_plan = FaultPlan().refuse_dial(src="s02", dst="s00")
        agent = CollectorNaplet("refused")
        agent.set_itinerary(Itinerary(SeqPattern.of_servers(["s01", "s02"])))
        nid = str(servers["s00"].launch(agent, owner="alice"))
        admin = SpaceAdmin(servers)
        assert wait_until(
            lambda: any(
                r.detail["status"] == "error"
                for r in select(servers["s01"].journal.snapshot(), kind="hop", naplet=nid)
            ),
            timeout=10,
        )
        assert admin.wait_space_idle()
        assert servers["s02"].navigator.migrations_in == 0
        assert servers["s02"].journal.count("landing") == 0
        assert servers["s01"].navigator.migrations_in == 1
