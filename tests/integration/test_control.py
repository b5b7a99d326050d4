"""Remote naplet control: terminate / suspend / resume / callback (paper §2.2)."""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern, seq
from repro.server import NapletOutcome
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
