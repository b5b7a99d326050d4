"""E6: post-office messaging — delivery cost vs forwarding-chain length (§4.2).

A naplet walks k hops down a line while a sender keeps addressing messages
at its *first* server: each message is forwarded along the trace until it
catches up.  The series shows hops and on-wire bytes growing ~linearly with
chain length, while directory-located sends stay flat.
"""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, SeqPattern
from repro.server import deploy
from repro.simnet import VirtualNetwork, line
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet


class RestAtEnd(repro.Naplet):
    """Moves through its route instantly, then rests at the final stop."""

    def __init__(self, name: str, last: str, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.last = last

    def on_start(self) -> None:
        import time

        if self.require_context().hostname == self.last:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                self.checkpoint()
                time.sleep(0.005)
        self.travel()


def _chain_setup(k: int):
    """Naplet resting at hop k (servers c01..c0k), launched from c00."""
    network = VirtualNetwork(line(k + 2, prefix="c"))
    servers = deploy(network)
    route = [f"c{i:02d}" for i in range(1, k + 1)]
    walker = RestAtEnd("walker", last=route[-1])
    walker.set_itinerary(Itinerary(SeqPattern.of_servers(route)))
    nid = servers["c00"].launch(walker, owner="bench")
    last = f"c{k:02d}"
    assert wait_until(lambda: servers[last].manager.is_resident(nid), timeout=20)
    return network, servers, nid, last


class TestForwardingChains:
    def test_bench_delivery_vs_chain_length(self, benchmark, table):
        rows = []
        for k in (1, 2, 4, 6):
            network, servers, nid, last = _chain_setup(k)
            try:
                network.transport.meter.reset()
                receipt = servers["c00"].messenger.post(
                    None, nid, {"probe": k}, dest_urn="naplet://c01"
                )
                chased_bytes = network.transport.meter.total_bytes
                network.transport.meter.reset()
                # located send: the locator resolves the current server first
                receipt_direct = servers["c00"].messenger.post(None, nid, {"direct": k})
                direct_bytes = network.transport.meter.total_bytes
                rows.append(
                    [k, receipt.hops, chased_bytes, receipt_direct.hops, direct_bytes]
                )
                assert receipt.final_server == f"naplet://{last}"
                servers["c00"].terminate_naplet(nid)
            finally:
                network.shutdown()
        table(
            "E6 — message delivery vs forwarding-chain length k",
            ["k", "chase hops", "chase bytes", "located hops", "located bytes"],
            rows,
        )
        # Shape: chase hops grow with k; located sends stay at 0 hops.
        hops = [row[1] for row in rows]
        assert hops == sorted(hops)
        assert hops[-1] >= 3
        assert all(row[3] == 0 for row in rows)
        # chase bytes exceed located bytes for long chains
        assert rows[-1][2] > rows[-1][4]

        # benchmark a direct (resident) delivery
        network, servers, nid, _last = _chain_setup(1)
        try:
            benchmark.pedantic(
                lambda: servers["c00"].messenger.post(None, nid, "ping"),
                rounds=50,
                iterations=1,
            )
            servers["c00"].terminate_naplet(nid)
        finally:
            network.shutdown()

    def test_bench_special_mailbox_park_and_drain(self, benchmark, table):
        """Early messages park; arrival drains them into the new mailbox."""
        network = VirtualNetwork(line(3, prefix="c"))
        servers = deploy(network)
        try:
            from repro.core.naplet_id import NapletID

            servers["c00"].authority.register_owner("bench")
            nid = NapletID.create("bench", "c00")
            agent = StallNaplet("late", spin_seconds=0.0)
            agent._assign_identity(
                nid, servers["c00"].authority.issue(nid, agent.codebase, {})
            )
            agent.set_itinerary(Itinerary(SeqPattern.of_servers(["c02"])))

            for i in range(10):
                receipt = servers["c00"].messenger.post(
                    None, nid, {"early": i}, dest_urn="naplet://c02"
                )
                assert receipt.status == "parked"
            parked = servers["c02"].messenger.special_mailbox_size(nid)
            servers["c00"].launch(agent, owner="bench")
            assert wait_until(
                lambda: servers["c02"].messenger.special_mailbox_size(nid) == 0,
                timeout=10,
            )
            table(
                "E6b — special mailbox",
                ["metric", "value"],
                [["messages parked before arrival", parked],
                 ["left parked after arrival", 0]],
            )
            assert parked == 10
            benchmark(lambda: servers["c02"].messenger.special_mailbox_size(nid))
        finally:
            network.shutdown()
