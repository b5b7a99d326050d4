#!/usr/bin/env python
"""Delta state shipping, visibly (DESIGN.md §6.7).

A courier carries 256 KiB of immutable cargo and a tiny visit log on a
ping-pong tour between two servers.  With delta shipping (the default),
a field crosses a link once: a hop ships the bytes of a field only if it
changed since the courier's last image at the sending server or the
destination is not known to hold them.

The walkthrough shows the mechanism at four magnifications:

1. ``explain_delta`` *before the journey*: no previous image, everything
   ships — the classic full-image hop;
2. ``explain_delta`` *after the journey*, at the server the courier last
   left: the manifest its record keeps (hashes and blobs, no live values)
   knows the cargo didn't move, so a hop from there back would ship a few
   hundred bytes and keep the cargo off the wire;
3. the per-hop cost table (``image`` and ``saved`` columns) and the
   ``naplet_delta_*`` counters tally what the journey actually saved;
4. a second courier with the *same* cargo tours a ring of three servers:
   the first lap pays for the cargo on the links that never carried it,
   and from the second lap on every hop omits it — the hop home included,
   because d01 saw d00 ship the launch image.

Run:  python examples/delta_hops.py
"""

from __future__ import annotations

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.perf import explain_delta, hop_cost_rows, render_hop_costs
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, full_mesh

ROUTE = ["d01", "d00"] * 3  # six hops between the same pair of servers
RING = ["d01", "d02", "d03"] * 3 + ["d01", "d00"]  # three laps, then home from d01
CARGO = b"\xc3" * (256 * 1024)


class Courier(repro.Naplet):
    """Immutable cargo, mutating visit log — delta shipping's home turf."""

    def __init__(self, name: str, cargo: bytes, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.cargo = cargo

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        self.travel()


def main() -> None:
    network = VirtualNetwork(full_mesh(4, prefix="d"))
    servers = deploy(network)
    try:
        agent = Courier("courier", cargo=CARGO)
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited"))
            )
        )
        launcher = servers["d00"]

        # 1. Before launch: the launcher has no previous image of this
        #    naplet, so the delta view predicts a full ship — cargo and
        #    all.  (A pure probe: caches and dirty flags are untouched.)
        print("=== delta view before launch (no previous image) ===")
        print(explain_delta(agent, launcher.serializer).render())

        listener = repro.NapletListener()
        nid = launcher.launch(agent, owner="alice", listener=listener)

        report = listener.next_report(timeout=30)
        print(f"\ntour complete: {report.payload}")
        admin = SpaceAdmin(servers)
        admin.wait_space_idle()

        # 2. After the journey d01's record of the courier still keeps the
        #    last image it shipped, cut to a manifest (hashes and blobs: the
        #    live values left with the courier); an unchanged cargo would
        #    ride those blobs, not the wire.
        print("\n=== delta view after the journey, from d01 ===")
        d01 = servers["d01"]
        base = d01.manager.footprint(nid).image
        print(explain_delta(agent, d01.serializer, prev=base).render())

        # 3. What the hops actually cost: repeat hops read ``delta`` in
        #    the ``image`` column and show a fat ``saved`` column.
        records = admin.harvest_journal(kind="hop")
        print("\n=== per-hop costs (repeat hops ship deltas) ===")
        print(render_hop_costs(records, naplet=str(nid)))

        delta_hops = sum(s.telemetry.delta_hops.total() for s in servers.values())
        saved = sum(s.telemetry.delta_saved_bytes.total() for s in servers.values())
        print(f"\n{int(delta_hops)} of {len(ROUTE)} hops shipped deltas, "
              f"keeping {int(saved):,} bytes off the wire")

        # 4. The ring.  d01 already holds these bytes (under the first
        #    courier's record) but the launch has no previous image to
        #    compare with and ships in full; d01 -> d02 -> d03 -> d01 are
        #    links the cargo never crossed.  After that lap every server
        #    knows its neighbour holds it, and d01 has known since the
        #    launch that d00 does.
        ring_agent = Courier("ring-courier", cargo=CARGO)
        ring_agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(RING, post_action=ResultReport("visited")))
        )
        ring_nid = launcher.launch(ring_agent, owner="alice", listener=listener)
        listener.next_report(timeout=30)
        admin.wait_space_idle()
        costs = [
            row["total_bytes"]
            for row in hop_cost_rows(admin.harvest_journal(kind="hop"), naplet=str(ring_nid))
        ]
        print("\n=== the same cargo round a ring of three (bytes per hop) ===")
        print(f"  launch + first lap : {costs[:4]}")
        print(f"  second lap onward  : {costs[4:]}")
        print("\n=== delta view from d03 toward d01, by what d03 knows d01 holds ===")
        d03 = servers["d03"]
        base = d03.manager.footprint(ring_nid).image
        held = d03.navigator.held_by("d01")
        print(explain_delta(ring_agent, d03.serializer, held=held, prev=base).render())
    finally:
        network.shutdown()


if __name__ == "__main__":
    main()
