#!/usr/bin/env python
"""What does a hop cost?  The perf plane, end to end (DESIGN.md §6.6).

A naplet's migration bill has three line items: the time to pickle it,
the bytes its image occupies on the wire, and the framing around it.
This walkthrough makes all three visible for one journey:

1. a tour through three servers leaves a ``hop`` span in the flight
   recorder at every departure — serialize seconds plus the
   payload/header/code byte split of the transfer frame;
2. ``render_hop_costs`` turns the harvested records into the same
   per-hop table ``tools/naplet.py hops`` prints;
3. ``explain_pickle`` X-rays the naplet's serialized form and attributes
   the payload bytes to individual attributes — which is how you learn
   that the 4 KB blob in ``state`` is what makes the agent heavy;
4. the journey's critical path gains a bytes column, and the transport's
   per-endpoint counters show each server's ingress/egress share.

Run:  python examples/hop_cost_report.py
"""

from __future__ import annotations

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.perf import explain_pickle, render_hop_costs
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line

ROUTE = ["s01", "s02", "s03"]


class Courier(repro.Naplet):
    """Carries a deliberately heavy payload around the space."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        self.travel()


def main() -> None:
    network = VirtualNetwork(line(4, prefix="s"))
    servers = deploy(network)
    try:
        agent = Courier("courier")
        agent.state.set("cargo", "x" * 4096)  # the weight we'll X-ray later
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited"))
            )
        )

        # 0. X-ray before launch: where will the bytes go?
        xray = explain_pickle(agent)
        print("=== pickle X-ray (before launch) ===")
        print(xray.render())
        heaviest, nbytes = xray.top(1)[0]
        print(f"\nheaviest attribute: {heaviest} ({nbytes} bytes)")

        listener = repro.NapletListener()
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=20)
        print(f"\ntour complete: {report.payload}")
        admin = SpaceAdmin(servers)
        admin.wait_space_idle()

        # 1. The per-hop cost table from the flight recorder.
        records = admin.harvest_journal(kind="hop")
        print("\n=== per-hop costs (flight recorder) ===")
        print(render_hop_costs(records, naplet=str(nid)))

        # 2. The critical path now carries the bytes column.
        print("\n=== critical path with bytes ===")
        print(admin.journey(nid).critical_path().render())

        # 3. Each server's share of the wire.
        print("\n=== per-server wire bytes ===")
        for hostname in sorted(servers):
            egress, ingress = servers[hostname].transport.endpoint_bytes(hostname)
            print(f"  {hostname}: out={egress:>6}  in={ingress:>6}")
    finally:
        network.shutdown()


if __name__ == "__main__":
    main()
