"""End-to-end migration: tours, directory modes, footprints, denials."""

from __future__ import annotations

import queue

import pytest

import repro
from repro.core.errors import NapletMigrationError
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import (
    DirectoryMode,
    NapletOutcome,
    Rule,
    SecurityPolicy,
    ServerConfig,
)
from repro.simnet import line, star
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, FailingNaplet


class LogReporter(CollectorNaplet):
    """Reports its navigation-log trail from the last stop."""

    def on_start(self):
        context = self.require_context()
        if context.hostname == "s03":
            self.state.set("trail", list(self.navigation_log.servers_visited()))
        self.travel()


def _tour_agent(route, state_key="visited"):
    agent = CollectorNaplet("tour")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(route, post_action=ResultReport(state_key)))
    )
    return agent


@pytest.mark.parametrize(
    "mode", [DirectoryMode.HOME, DirectoryMode.CENTRAL, DirectoryMode.NONE]
)
def test_seq_tour_under_every_directory_mode(space, mode):
    kwargs = {}
    config = ServerConfig(directory_mode=mode)
    if mode is DirectoryMode.CENTRAL:
        config.directory_urn = "naplet://s00"
    network, servers = space(line(4, prefix="s"), config=config)
    listener = repro.NapletListener()
    agent = _tour_agent(["s01", "s02", "s03"])
    servers["s00"].launch(agent, owner="alice", listener=listener)
    report = listener.next_report(timeout=10)
    assert report.payload == ["s01", "s02", "s03"]


class TestTourSideEffects:
    def test_footprints_left_at_each_server(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = _tour_agent(["s01", "s02", "s03"])
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        listener.next_report(timeout=10)
        assert wait_until(lambda: servers["s03"].manager.footprint(nid) is not None)
        fp1 = servers["s01"].manager.footprint(nid)
        assert fp1 is not None
        assert fp1.departed_to == "naplet://s02"
        fp3 = servers["s03"].manager.footprint(nid)
        assert fp3.outcome == NapletOutcome.COMPLETED

    def test_directory_tracks_final_location(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = _tour_agent(["s01", "s02"])
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        listener.next_report(timeout=10)
        record = servers["s00"].directory_client.lookup(nid)
        assert record is not None
        assert record.server_urn == "naplet://s02"

    def test_navigation_log_complete_on_arrival_copy(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = LogReporter("logger")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01", "s02", "s03"], post_action=ResultReport("trail"))
            )
        )
        servers["s00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=10)
        assert report.payload == ["naplet://s01", "naplet://s02", "naplet://s03"]

    def test_events_recorded(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = _tour_agent(["s01"])
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        listener.next_report(timeout=10)
        assert servers["s00"].journal.count("naplet-launch") == 1
        assert servers["s01"].journal.count("landing") == 1

    def test_revisit_same_server(self, small_line):
        network, servers = small_line
        listener = repro.NapletListener()
        agent = _tour_agent(["s01", "s02", "s01"])
        servers["s00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=10)
        assert report.payload == ["s01", "s02", "s01"]


class TestDenials:
    def test_landing_denied_at_launch(self, space):
        network, servers = space(line(3, prefix="s"))
        # lock down s01: nobody lands, so the initial launch fails in place
        servers["s01"].security.policy = SecurityPolicy.locked_down()
        agent = _tour_agent(["s01", "s02"])
        with pytest.raises(NapletMigrationError):
            servers["s00"].launch(agent, owner="alice")
        assert servers["s00"].journal.count("landing-denied") == 1

    def test_landing_denied_mid_route_fails_agent(self, space):
        network, servers = space(line(3, prefix="s"))
        servers["s02"].security.policy = SecurityPolicy.locked_down()
        agent = _tour_agent(["s01", "s02"])
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(
            lambda: servers["s01"].monitor.outcomes.get(NapletOutcome.FAILED, 0) == 1
        )
        assert servers["s01"].journal.count("landing-denied") >= 0
        assert servers["s02"].manager.footprint(nid) is None

    def test_skip_policy_routes_around_denial(self, space):
        network, servers = space(line(4, prefix="s"))
        servers["s02"].security.policy = SecurityPolicy.locked_down()
        listener = repro.NapletListener()
        agent = CollectorNaplet("skipper")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["s01", "s02", "s03"], post_action=ResultReport("visited")
                ),
                on_failure="skip",
            )
        )
        servers["s00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=10)
        assert report.payload == ["s01", "s03"]

    def test_max_residents_enforced(self, space):
        config = ServerConfig(max_residents=0)
        network, servers = space(line(2, prefix="s"))
        servers["s01"].config.max_residents = 0
        agent = _tour_agent(["s01"])
        with pytest.raises(NapletMigrationError):
            servers["s00"].launch(agent, owner="alice")

    def test_selective_owner_policy(self, space):
        network, servers = space(line(2, prefix="s"))
        servers["s01"].security.policy = SecurityPolicy(
            [Rule.of({"owner": "alice"}, grants={"*"})]
        )
        good = _tour_agent(["s01"])
        listener = repro.NapletListener()
        servers["s00"].launch(good, owner="alice", listener=listener)
        listener.next_report(timeout=10)

        bad = _tour_agent(["s01"])
        with pytest.raises(NapletMigrationError):
            servers["s00"].launch(bad, owner="mallory")


class TestFailureContainment:
    def test_agent_exception_trapped_and_retired(self, small_line):
        network, servers = small_line
        agent = FailingNaplet("boom")
        agent.set_itinerary(Itinerary(SeqPattern.of_servers(["s01"])))
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(
            lambda: servers["s01"].monitor.outcomes.get(NapletOutcome.FAILED, 0) == 1
        )
        footprint = servers["s01"].manager.footprint(nid)
        assert wait_until(lambda: footprint.outcome == NapletOutcome.FAILED)
        assert not servers["s01"].manager.is_resident(nid)

    def test_server_keeps_serving_after_agent_failure(self, small_line):
        network, servers = small_line
        bad = FailingNaplet("boom")
        bad.set_itinerary(Itinerary(SeqPattern.of_servers(["s01"])))
        servers["s00"].launch(bad, owner="alice")
        listener = repro.NapletListener()
        good = _tour_agent(["s01", "s02"])
        servers["s00"].launch(good, owner="alice", listener=listener)
        assert listener.next_report(timeout=10).payload == ["s01", "s02"]
