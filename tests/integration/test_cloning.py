"""Par itineraries end-to-end: broadcast clones, join policies."""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import (
    Itinerary,
    JoinPolicy,
    ParPattern,
    ResultReport,
    par,
    seq,
    singleton,
)
from repro.simnet import star
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet


def _devices(n):
    return [f"dev{i:02d}" for i in range(n)]


class TestBroadcast:
    def test_one_clone_per_server_reports_individually(self, space):
        network, servers = space(star(4))
        listener = repro.NapletListener()
        agent = CollectorNaplet("bcast")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(_devices(4), per_branch_action=ResultReport("visited"))
            )
        )
        servers["station"].launch(agent, owner="nm", listener=listener)
        reports = listener.reports(4, timeout=15)
        assert sorted(r.payload[0] for r in reports) == _devices(4)

    def test_clone_ids_are_heritage_children(self, space):
        network, servers = space(star(3))
        listener = repro.NapletListener()
        agent = CollectorNaplet("bcast")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(_devices(3), per_branch_action=ResultReport("visited"))
            )
        )
        nid = servers["station"].launch(agent, owner="nm", listener=listener)
        reports = listener.reports(3, timeout=15)
        reporter_ids = {str(r.reporter) for r in reports}
        assert str(nid) in reporter_ids
        assert {f"{nid}.1", f"{nid}.2"} <= reporter_ids

    def test_siblings_in_address_books(self, space):
        network, servers = space(star(3))
        listener = repro.NapletListener()
        agent = CollectorNaplet("bcast")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(_devices(3), per_branch_action=ResultReport("visited"))
            )
        )
        servers["station"].launch(agent, owner="nm", listener=listener)
        listener.reports(3, timeout=15)
        # the original learned both clones at fork time
        assert len(agent.address_book) == 2

    def test_clone_credentials_reissued_and_verified(self, space):
        """Clones land on servers that verify signatures — so landing at all
        proves the re-issued credentials verify."""
        network, servers = space(star(3))
        listener = repro.NapletListener()
        agent = CollectorNaplet("bcast")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(_devices(3), per_branch_action=ResultReport("visited"))
            )
        )
        servers["station"].launch(agent, owner="nm", listener=listener)
        reports = listener.reports(3, timeout=15)
        assert len(reports) == 3
        for hostname in _devices(3):
            assert servers[hostname].journal.count("landing") == 1


class TestJoinPolicies:
    def test_join_waits_for_all_branches(self, space):
        network, servers = space(star(5))
        listener = repro.NapletListener()
        agent = CollectorNaplet("joiner")
        pattern = seq(
            par(
                seq("dev00", "dev01"),
                seq("dev02", "dev03"),
                join=JoinPolicy.JOIN,
            ),
            singleton("dev04", post_action=ResultReport("visited")),
        )
        agent.set_itinerary(Itinerary(pattern))
        servers["station"].launch(agent, owner="nm", listener=listener)
        report = listener.next_report(timeout=20)
        assert report.payload == ["dev00", "dev01", "dev04"]
        # clone covered the other branch and retired
        assert wait_until(lambda: servers["dev03"].monitor.active_count == 0)
        assert servers["dev02"].manager.footprints()

    def test_terminate_policy_original_continues_alone(self, space):
        network, servers = space(star(4))
        listener = repro.NapletListener()
        agent = CollectorNaplet("term")
        pattern = seq(
            par("dev00", "dev01"),
            singleton("dev02", post_action=ResultReport("visited")),
        )
        agent.set_itinerary(Itinerary(pattern))
        servers["station"].launch(agent, owner="nm", listener=listener)
        report = listener.next_report(timeout=15)
        assert report.payload == ["dev00", "dev02"]
        # the clone must never visit dev02
        for server in servers.values():
            server.wait_idle(5)
        footprints = servers["dev02"].manager.footprints()
        assert len(footprints) == 1

    def test_continue_all_policy_everyone_runs_tail(self, space):
        network, servers = space(star(4))
        listener = repro.NapletListener()
        agent = CollectorNaplet("cont")
        pattern = seq(
            par("dev00", "dev01", join=JoinPolicy.CONTINUE_ALL),
            singleton("dev02", post_action=ResultReport("visited")),
        )
        agent.set_itinerary(Itinerary(pattern))
        servers["station"].launch(agent, owner="nm", listener=listener)
        reports = listener.reports(2, timeout=15)
        payloads = sorted(tuple(r.payload) for r in reports)
        assert payloads == [("dev00", "dev02"), ("dev01", "dev02")]

    def test_nested_par_fan_out(self, space):
        network, servers = space(star(6))
        listener = repro.NapletListener()
        agent = CollectorNaplet("nested")
        pattern = par(
            par(
                singleton("dev00", post_action=ResultReport("visited")),
                singleton("dev01", post_action=ResultReport("visited")),
            ),
            par(
                singleton("dev02", post_action=ResultReport("visited")),
                singleton("dev03", post_action=ResultReport("visited")),
            ),
        )
        agent.set_itinerary(Itinerary(pattern))
        servers["station"].launch(agent, owner="nm", listener=listener)
        reports = listener.reports(4, timeout=20)
        assert sorted(r.payload[0] for r in reports) == _devices(4)
