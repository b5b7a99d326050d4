"""SpaceAdmin: space-wide monitoring and control."""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import NapletError
from repro.itinerary import Itinerary, ResultReport, SeqPattern, seq
from repro.server import NapletOutcome, SpaceAdmin
from repro.simnet import line
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, StallNaplet


@pytest.fixture
def admin_space(space):
    network, servers = space(line(4, prefix="s"))
    return network, servers, SpaceAdmin(servers)


class TestQueries:
    def test_locate_resident(self, admin_space):
        _network, servers, admin = admin_space
        agent = StallNaplet("target", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s02")))
        nid = servers["s00"].launch(agent, owner="admin")
        assert wait_until(lambda: admin.locate(nid) == "s02")
        assert admin.alive_naplets() == {nid: "s02"}
        admin.terminate(nid)
        assert admin.wait_space_idle(10)

    def test_locate_unknown_none(self, admin_space):
        from repro.core.naplet_id import NapletID

        _n, _s, admin = admin_space
        assert admin.locate(NapletID.create("ghost", "s00", stamp="240101120000")) is None

    def test_trace_reconstructs_journey(self, admin_space):
        _network, servers, admin = admin_space
        listener = repro.NapletListener()
        agent = CollectorNaplet("tourist")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01", "s02", "s03"], post_action=ResultReport("visited"))
            )
        )
        nid = servers["s00"].launch(agent, owner="admin", listener=listener)
        listener.next_report(timeout=10)
        assert wait_until(lambda: len(admin.trace(nid)) == 4)  # home + 3 visits
        trace = admin.trace(nid)
        hops = [fp.departed_to for fp in trace]
        assert hops[:3] == ["naplet://s01", "naplet://s02", "naplet://s03"]
        assert trace[-1].outcome is not None

    def test_status_of_running_naplet(self, admin_space):
        _network, servers, admin = admin_space
        agent = StallNaplet("runner", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(agent, owner="admin")
        assert wait_until(lambda: admin.locate(nid) is not None)
        status = admin.status(nid)
        assert status.alive
        assert status.resident_at == "s01"
        assert status.outcome is None
        assert status.cpu_seconds is not None
        admin.terminate(nid)
        assert admin.wait_space_idle(10)

    def test_status_of_retired_naplet(self, admin_space):
        _network, servers, admin = admin_space
        listener = repro.NapletListener()
        agent = CollectorNaplet("done")
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(["s01"], post_action=ResultReport("visited")))
        )
        nid = servers["s00"].launch(agent, owner="admin", listener=listener)
        listener.next_report(timeout=10)
        assert wait_until(
            lambda: admin.status(nid).outcome == NapletOutcome.COMPLETED
        )
        status = admin.status(nid)
        assert not status.alive
        assert status.resident_at is None

    def test_space_summary(self, admin_space):
        _network, servers, admin = admin_space
        listener = repro.NapletListener()
        agent = CollectorNaplet("sum")
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(["s01"], post_action=ResultReport("visited")))
        )
        servers["s00"].launch(agent, owner="admin", listener=listener)
        listener.next_report(timeout=10)
        servers["s01"].wait_idle(5)
        rows = {row.hostname: row for row in admin.space_summary()}
        assert set(rows) == {"s00", "s01", "s02", "s03"}
        assert rows["s01"].admitted_total == 1
        assert rows["s01"].outcomes.get(NapletOutcome.COMPLETED) == 1
        assert rows["s01"].footprints == 1


class TestControl:
    def test_suspend_resume_via_admin(self, admin_space):
        _network, servers, admin = admin_space
        agent = StallNaplet("pausable", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(agent, owner="admin")
        assert wait_until(lambda: admin.locate(nid) == "s01")
        admin.suspend(nid)
        assert wait_until(
            lambda: servers["s01"].journal.count("naplet-interrupt", control="suspend") == 1
        )
        admin.resume(nid)
        admin.terminate(nid)
        assert admin.wait_space_idle(10)

    def test_terminate_all(self, admin_space):
        _network, servers, admin = admin_space
        for index in range(3):
            agent = StallNaplet(f"worker-{index}", spin_seconds=30.0)
            agent.set_itinerary(Itinerary(seq(f"s{index + 1:02d}")))
            servers["s00"].launch(agent, owner="admin")
        assert wait_until(lambda: len(admin.alive_naplets()) == 3)
        killed = admin.terminate_all()
        assert killed == 3
        assert admin.wait_space_idle(10)

    def test_control_unknown_naplet_raises(self, admin_space):
        from repro.core.naplet_id import NapletID

        _n, _s, admin = admin_space
        ghost = NapletID.create("ghost", "nowhere", stamp="240101120000")
        with pytest.raises(NapletError):
            admin.terminate(ghost)

    def test_requires_servers(self):
        with pytest.raises(NapletError):
            SpaceAdmin([])
