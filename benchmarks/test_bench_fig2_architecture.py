"""E2 (Figure 2): the NapletServer architecture, exercised end to end.

One full migration drives every component in the figure: NapletManager
(launch), NapletSecurityManager (LAUNCH + LANDING checks), Navigator
(transfer), NapletMonitor (NapletThread), Messenger (report
home), Locator/directory (ARRIVAL/DEPART events).  The benchmark times the
whole launch→land→report round trip and the heavy stages separately.
"""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import deploy
from repro.simnet import VirtualNetwork, line
from tests.conftest import CollectorNaplet


@pytest.fixture
def space2():
    network = VirtualNetwork(line(2, prefix="h"))
    servers = deploy(network)
    yield network, servers
    network.shutdown()


def _one_round_trip(servers):
    listener = repro.NapletListener()
    agent = CollectorNaplet("fig2")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(["h01"], post_action=ResultReport("visited")))
    )
    servers["h00"].launch(agent, owner="bench", listener=listener)
    report = listener.next_report(timeout=10)
    assert report.payload == ["h01"]
    servers["h01"].wait_idle(5)
    return agent


class TestFigure2:
    def test_bench_full_migration_round_trip(self, benchmark, space2, table):
        network, servers = space2
        benchmark.pedantic(_one_round_trip, args=(servers,), rounds=20, iterations=1)
        rows = [
            ["launch events (h00)", servers["h00"].journal.count("naplet-launch")],
            ["landings (h01)", servers["h01"].journal.count("landing")],
            ["naplets admitted (h01)", servers["h01"].monitor.admitted],
            ["bytes on the wire", network.transport.meter.total_bytes],
        ]
        table("Fig. 2 — one migration through all seven components (x20)",
              ["stage", "count"], rows)
        assert servers["h01"].monitor.admitted >= 20

    def test_bench_serialization_stage(self, benchmark, space2):
        _network, servers = space2
        agent = CollectorNaplet("payload")
        agent.set_itinerary(Itinerary(SeqPattern.of_servers(["h01"])))
        servers["h00"].authority.register_owner("bench")
        from repro.core.naplet_id import NapletID

        nid = NapletID.create("bench", "h00")
        agent._assign_identity(nid, servers["h00"].authority.issue(nid, agent.codebase))
        serializer = servers["h00"].serializer
        payload = benchmark(serializer.dumps, agent)
        benchmark.extra_info["payload_bytes"] = len(payload)
        assert len(payload) > 0

    def test_bench_landing_permission_stage(self, benchmark, space2):
        _network, servers = space2
        from repro.core.naplet_id import NapletID

        servers["h00"].authority.register_owner("bench")
        nid = NapletID.create("bench", "h00")
        credential = servers["h00"].authority.issue(nid, "local")
        # The destination's admission check as the transfer handler runs
        # it, ahead of deserialization: signature, policy, residency caps.
        reason = benchmark(servers["h01"].navigator._landing_denial, credential)
        assert reason is None

    def test_bench_monitor_admission_stage(self, benchmark, space2):
        """Thread creation + retirement for one naplet visit."""
        import threading

        _network, servers = space2
        monitor = servers["h01"].monitor
        from tests.core.test_naplet import _identified

        def admit_once():
            agent = _identified()
            done = threading.Event()
            monitor.admit(agent, lambda: None, lambda n, o, e: done.set())
            assert done.wait(5)

        benchmark.pedantic(admit_once, rounds=50, iterations=1)
