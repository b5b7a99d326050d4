"""Remote naplet control: terminate / suspend / resume / callback (paper §2.2)."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern, seq
from repro.server import NapletOutcome, SystemControl
from repro.simnet import line
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet


def _stalled(servers, route=("s01",), spin=30.0, listener=None):
    agent = StallNaplet("stall", spin_seconds=spin)
    agent.set_itinerary(Itinerary(seq(*route)))
    nid = servers["s00"].launch(agent, owner="ctl", listener=listener)
    assert wait_until(lambda: servers[route[0]].manager.is_resident(nid))
    return agent, nid


class TestTerminate:
    def test_remote_terminate_stops_agent(self, small_line):
        network, servers = small_line
        agent, nid = _stalled(servers)
        servers["s00"].terminate_naplet(nid)
        assert wait_until(
            lambda: servers["s01"].monitor.outcomes.get(NapletOutcome.TERMINATED, 0) == 1,
            timeout=10,
        )
        assert not servers["s01"].manager.is_resident(nid)

    def test_on_interrupt_hook_sees_terminate(self, small_line):
        network, servers = small_line
        agent, nid = _stalled(servers)
        servers["s00"].terminate_naplet(nid)
        assert wait_until(lambda: servers["s01"].monitor.active_count == 0, timeout=10)
        # The travelled copy recorded the control; we can check via footprints
        # (state travelled with the copy, so look at the monitor's event log).
        assert servers["s01"].journal.count("naplet-interrupt", control="terminate") == 1


class TestSuspendResume:
    def test_suspend_freezes_then_resume_continues(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = StallNaplet("pausable", spin_seconds=0.8)
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01", "s02"], post_action=ResultReport("controls"))
            )
        )
        nid = servers["s00"].launch(agent, owner="ctl", listener=listener)
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        servers["s00"].suspend_naplet(nid)
        assert wait_until(
            lambda: servers["s01"].journal.count("naplet-interrupt", control="suspend") == 1
        )
        servers["s00"].resume_naplet(nid)
        report = listener.next_report(timeout=20)
        assert "suspend" in report.payload
        assert "resume" in report.payload


class TestCallback:
    def test_callback_delivers_payload(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = StallNaplet("cb", spin_seconds=0.5)
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01"], post_action=ResultReport("controls"))
            )
        )
        nid = servers["s00"].launch(agent, owner="ctl", listener=listener)
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        servers["s00"].callback_naplet(nid, {"why": "status"})
        report = listener.next_report(timeout=15)
        assert "callback" in report.payload


class TestControlChasesMovedNaplet:
    def test_control_forwarded_along_trace(self, space):
        network, servers = space(line(4, prefix="s"))
        agent = StallNaplet("runner", spin_seconds=5.0)
        agent.set_itinerary(Itinerary(seq("s01", "s02")))
        nid = servers["s00"].launch(agent, owner="ctl")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        # let it move on
        assert wait_until(
            lambda: servers["s02"].manager.is_resident(nid), timeout=20
        )
        # address the control at the OLD server: it must chase to s02
        receipt = servers["s00"].messenger.send_control(
            nid, "terminate", dest_urn="naplet://s01"
        )
        assert receipt.status == "delivered"
        assert wait_until(
            lambda: servers["s02"].monitor.outcomes.get(NapletOutcome.TERMINATED, 0) == 1,
            timeout=10,
        )


class TestControlChase:
    def test_forwarded_control_counts_its_hop(self, small_line):
        network, servers = small_line
        agent, nid = _stalled(servers)
        # s00 launched it: its footprint there points one server on.
        receipt = servers["s02"].messenger.send_control(
            nid, "callback", dest_urn="naplet://s00"
        )
        assert receipt.status == "delivered"
        assert receipt.final_server == "naplet://s01"
        assert receipt.hops == 1
        servers["s00"].terminate_naplet(nid)


@pytest.fixture(params=["virtual", "tcp"])
def either_space(request, space):
    """Three servers s00..s02 on the in-memory network or over TCP sockets."""
    if request.param == "virtual":
        return space(line(3, prefix="s"))[1]
    from repro.codeshipping.codebase import CodeBaseRegistry
    from repro.core.credential import SigningAuthority
    from repro.server import NapletServer
    from repro.transport.tcp import TcpTransport

    transport = TcpTransport()
    authority, registry = SigningAuthority(), CodeBaseRegistry()
    servers = {
        name: NapletServer(name, transport, authority, registry)
        for name in ("s00", "s01", "s02")
    }
    request.addfinalizer(transport.close)
    for server in servers.values():
        request.addfinalizer(server.shutdown)
    return servers


class TestControlBeforeAdmission:
    """A system message that reaches a naplet before its monitor admits it
    waits on the naplet's record and interrupts it once it is admitted."""

    def test_control_parked_before_the_landing_terminates(self, either_space):
        servers = either_space
        agent, nid = _stalled(servers, route=("s01", "s02"), spin=1.0)
        receipt = servers["s00"].messenger.send_control(
            nid, SystemControl.TERMINATE, dest_urn=servers["s02"].urn
        )
        assert receipt.status == "parked"
        s02 = servers["s02"]
        assert wait_until(
            lambda: sum(s02.monitor.outcomes.values()) == 1, timeout=10
        )
        assert s02.monitor.outcomes == {NapletOutcome.TERMINATED: 1}
        assert s02.journal.count("naplet-interrupt", control="terminate") == 1

    def test_control_in_the_admission_window_terminates(self, small_line):
        network, servers = small_line
        s01 = servers["s01"]
        entered, release = threading.Event(), threading.Event()
        real_admit = s01.monitor.admit

        def held_admit(*args, **kwargs):
            entered.set()
            assert release.wait(10)
            return real_admit(*args, **kwargs)

        s01.monitor.admit = held_admit
        agent = StallNaplet("late", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        launcher = threading.Thread(
            target=servers["s00"].launch, args=(agent,), kwargs={"owner": "ctl"}
        )
        launcher.start()
        assert entered.wait(10)
        nid = agent.naplet_id
        assert s01.manager.is_resident(nid)
        receipt = servers["s00"].messenger.send_control(
            nid, SystemControl.TERMINATE, dest_urn=s01.urn
        )
        assert receipt.status == "delivered"
        release.set()
        launcher.join(10)
        assert not launcher.is_alive()
        assert wait_until(lambda: sum(s01.monitor.outcomes.values()) == 1, timeout=10)
        assert s01.monitor.outcomes == {NapletOutcome.TERMINATED: 1}
        assert s01.journal.count("naplet-interrupt", control="terminate") == 1
