"""Acceptance: the flight recorder under fault injection and clock skew.

Three servers whose journal clocks disagree by ±5 seconds run a multi-hop
journey with a seeded fault plan injecting delays.  The harvested merge
must be free of causal inversions — every hop's depart precedes its land
— while the *wall-clock* order of the very same records demonstrably
inverts, proving the hybrid logical clocks (not lucky timing) produce the
causal order.  A journey query (``select``/``order``, what ``naplet log``
runs) then reconstructs the exact itinerary order from the merged timeline.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

import repro
from repro.faults import FaultPlan
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import NapletServer, ServerConfig, SpaceAdmin
from repro.simnet import VirtualNetwork, full_mesh
from repro.telemetry.journal import causal_key, format_record, order, select

from tests.conftest import CollectorNaplet

pytestmark = pytest.mark.chaos

# Visits per stop along the tour (h00 is home); revisits make extra hops.
ROUTE = ["h01", "h02", "h01", "h02"]
SKEWS = {"h00": +5.0, "h01": -5.0, "h02": 0.0}


@pytest.fixture
def skewed_space():
    """Three servers with ±5s journal-clock skew over a faulty network."""
    plan = FaultPlan(seed=29).delay(0.002)
    network = VirtualNetwork(full_mesh(3, prefix="h"), fault_plan=plan)
    base = ServerConfig(health_cadence=0.05)
    servers = {}
    for hostname, skew in SKEWS.items():
        config = dataclasses.replace(
            base,
            journal_time_source=lambda skew=skew: time.time() + skew,
        )
        servers[hostname] = NapletServer.attach(network.host(hostname), config)
    try:
        yield network, servers
    finally:
        network.shutdown()


def _run_tour(servers):
    listener = repro.NapletListener()
    agent = CollectorNaplet("skew-tour")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited")))
    )
    nid = servers["h00"].launch(agent, owner="alice", listener=listener)
    report = listener.next_report(timeout=20)
    assert report.payload == ROUTE
    return nid


def _hop_pairs(records, nid):
    """(hop_index, landing_index) per hop of *nid*, in record order."""
    key = str(nid)
    departs = [
        i
        for i, r in enumerate(records)
        if r.kind == "hop" and r.naplet == key
    ]
    arrives = [
        i
        for i, r in enumerate(records)
        if r.kind == "landing" and r.naplet == key
    ]
    assert len(departs) == len(arrives) == len(ROUTE)
    return list(zip(departs, arrives))


class TestFlightRecorderAcceptance:
    def test_skewed_merge_has_zero_causal_inversions(self, skewed_space):
        _network, servers = skewed_space
        nid = _run_tour(servers)
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()

        # The fault plan really fired, and the injections were journaled.
        merged = admin.harvest_journal()
        assert any(r.kind == "fault-injected" for r in merged)
        assert merged == sorted(merged, key=causal_key)

        # Causal order: every hop's depart strictly precedes its land,
        # despite the departing server's clock running 5s behind (h01) or
        # ahead (h00) of the landing server's.
        for depart_i, arrive_i in _hop_pairs(merged, nid):
            assert depart_i < arrive_i

        # Proof the HLC does the work: ordering the same records by raw
        # wall time DOES invert at least one hop (a depart minted at
        # wall+5 sorts after its landing minted at wall-5).
        by_wall = sorted(merged, key=lambda r: (r.wall, r.server, r.seq))
        inversions = [
            (d, a) for d, a in _hop_pairs(by_wall, nid) if d > a
        ]
        assert inversions, "skew produced no wall-order inversion to correct"

    def test_journey_query_reconstructs_the_itinerary(self, skewed_space):
        _network, servers = skewed_space
        nid = _run_tour(servers)
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        merged = admin.harvest_journal()

        selected = order(
            select(merged, journey=str(nid), kind="landing"), causal=True
        )
        assert [r.server for r in selected] == ROUTE

        # The text rendering stays one line per record, causally ordered.
        lines = [format_record(record) for record in selected]
        assert len(lines) == len(ROUTE)
        assert all("landing" in line for line in lines)

    def test_journey_filter_keeps_the_whole_trace(self, skewed_space):
        _network, servers = skewed_space
        nid = _run_tour(servers)
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        merged = admin.harvest_journal()
        journey = select(merged, journey=str(nid))
        kinds = {r.kind for r in journey}
        # Spans recorded under the naplet's trace id come along with the
        # event records naming the naplet directly.
        assert {"naplet-launch", "hop", "landing"} <= kinds
