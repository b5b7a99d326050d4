"""E8: lazy code loading — payload sizes and fetch costs (§2.1).

Compares eager shipping (code travels with every transfer) against the
paper's lazy model (codebase fetched on demand, once per server): transfer
payload bytes, fetch counts, and total wire bytes for a revisiting tour.
"""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line
from tests.integration.shipped_agent import RoamingProbe

TOUR = ["srv01", "srv02", "srv03", "srv01", "srv02", "srv03"]


def _run_tour(eager: bool):
    network = VirtualNetwork(line(4, prefix="srv"))
    config = ServerConfig(eager_code=eager, codebase_host="srv00")
    servers = deploy(network, config=config)
    codebase = network.code_registry.create("codebase://tests/probe")
    codebase.add_class(RoamingProbe)
    listener = repro.NapletListener()
    agent = RoamingProbe("probe")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(TOUR, post_action=ResultReport("hops")))
    )
    servers["srv00"].launch(agent, owner="bench", listener=listener)
    assert listener.next_report(timeout=20).payload == TOUR
    # The last hop is booked when its transfer request returns.
    assert SpaceAdmin(servers).wait_space_idle()
    transfer = network.transport.meter.kind_stats("naplet-transfer")
    fetch = network.transport.meter.kind_stats("codebase-fetch")
    fetch_events = sum(s.journal.count("codebase-fetch") for s in servers.values())
    total = network.transport.meter.total_bytes
    network.shutdown()
    return {
        "transfer_bytes": transfer.bytes,
        "transfers": transfer.frames,
        "fetch_bytes": fetch.bytes,
        "fetches": fetch_events,
        "total_bytes": total,
        "codebase_bytes": codebase.total_bytes,
    }


class TestCodeShipping:
    def test_bench_lazy_vs_eager(self, benchmark, table):
        lazy = _run_tour(eager=False)
        eager = _run_tour(eager=True)
        table(
            f"E8 — 6-stop tour with revisits ({len(set(TOUR))} distinct servers)",
            ["metric", "lazy", "eager"],
            [
                ["naplet-transfer bytes", lazy["transfer_bytes"], eager["transfer_bytes"]],
                ["codebase fetches", lazy["fetches"], eager["fetches"]],
                ["codebase fetch bytes", lazy["fetch_bytes"], eager["fetch_bytes"]],
                ["total wire bytes", lazy["total_bytes"], eager["total_bytes"]],
                ["bundle size (source)", lazy["codebase_bytes"], eager["codebase_bytes"]],
            ],
        )
        # Shapes:
        # - lazy transfers are smaller (state only, no source attached);
        assert lazy["transfer_bytes"] < eager["transfer_bytes"]
        # - lazy fetches exactly once per distinct server; eager never;
        assert lazy["fetches"] == len(set(TOUR))
        assert eager["fetches"] == 0
        # - with revisits, lazy wins on total bytes: eager pays the bundle
        #   on every one of the 6 transfers, lazy only 3 fetches.
        assert lazy["total_bytes"] < eager["total_bytes"]

        benchmark.pedantic(_run_tour, args=(False,), rounds=3, iterations=1)
        benchmark.extra_info.update({"lazy": lazy, "eager": eager})

    def test_bench_first_landing_fetch_cost(self, benchmark, table):
        """Land-to-start delay component: deserialization incl. a cache miss."""
        network = VirtualNetwork(line(2, prefix="srv"))
        servers = deploy(network, config=ServerConfig(codebase_host="srv00"))
        try:
            codebase = network.code_registry.create("codebase://tests/probe")
            codebase.add_class(RoamingProbe)
            agent = RoamingProbe("probe")
            servers["srv00"].authority.register_owner("bench")
            from repro.core.naplet_id import NapletID

            nid = NapletID.create("bench", "srv00")
            agent._assign_identity(
                nid, servers["srv00"].authority.issue(nid, agent.codebase)
            )
            agent.set_itinerary(Itinerary(SeqPattern.of_servers(["srv01"])))
            payload = servers["srv00"].serializer.dumps(agent)

            from repro.codeshipping.codebase import CodeCache

            def cold_load():
                cache = CodeCache(network.code_registry)
                return servers["srv01"].serializer.loads(payload, cache)

            restored = benchmark(cold_load)
            assert type(restored).__name__ == "RoamingProbe"
            benchmark.extra_info["payload_bytes"] = len(payload)
        finally:
            network.shutdown()
