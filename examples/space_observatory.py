#!/usr/bin/env python
"""Watching the space: load digests, the merged view, load-aware routing.

The health plane (DESIGN.md §6.4) gives every server a live picture of
the whole space without a single extra connection: each tick's heartbeat
rides the channels earlier traffic already opened.  This walkthrough shows the
loop closing:

1. a warm-up tour opens the links, and one heartbeat later every server
   holds fresh digests of its peers — the merged ``SpaceView``;
2. a pack of parked residents makes ``s01`` visibly busy, and the next
   heartbeat carries the skew to the launcher;
3. an ``alt(s01, s02)`` journey — declared busy-first — is rerouted to
   the idle mirror, and the flight recorder holds the whole decision:
   which digests, how stale, what score, what order;
4. the busy server is partitioned; past ``stale_after`` its digest
   decays to *unknown* (never to idle) and navigation falls back to
   static declaration order, journaled with the reason.

Run:  python examples/space_observatory.py
"""

from __future__ import annotations

import time

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern, alt, seq, singleton
from repro.health.plane import STALE_BEATS
from repro.server import ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, full_mesh
from repro.telemetry import format_record

CADENCE = 0.05
STALE_AFTER = STALE_BEATS * CADENCE


class Tourist(repro.Naplet):
    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        self.travel()


class Parked(repro.Naplet):
    """Sits at its server doing very little — residency is the load."""

    def on_start(self) -> None:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.01)


def show_view(admin: SpaceAdmin, observer: str) -> None:
    view = admin.space_view()[observer]
    print(f"  {observer} sees:")
    for peer, entry in view["peers"].items():
        score = entry["score"]
        label = "unknown (stale)" if score is None else f"score {score:.1f}"
        print(f"    {peer:<6} {label:<18} age {entry['age_s']:.2f}s")


def main() -> None:
    network = VirtualNetwork(full_mesh(3, prefix="s"))
    servers = deploy(
        network,
        config=ServerConfig(health_cadence=CADENCE),
    )
    admin = SpaceAdmin(servers)
    try:
        # 1. Warm-up tour: its frames open the links the heartbeats will
        # ride.  A beat later, every server holds its peers' digests.
        warmup = Tourist("warmup")
        warmup.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["s01", "s02"], post_action=ResultReport("visited")
                )
            )
        )
        listener = repro.NapletListener()
        servers["s00"].launch(warmup, owner="demo", listener=listener)
        listener.next_report(timeout=10)
        for server in servers.values():
            server.health.tick()
        print("=== 1. the merged space view after one heartbeat ===")
        show_view(admin, "s00")

        # 2. Pin a busy mirror: five parked residents at s01.
        for i in range(5):
            parked = Parked(f"parked-{i}")
            parked.set_itinerary(Itinerary(seq(singleton("s01"))))
            servers["s00"].launch(parked, owner="demo")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if servers["s01"].manager.resident_count >= 5:
                break
            time.sleep(0.05)
        for server in servers.values():
            server.health.tick()
        print("\n=== 2. the view after pinning 5 residents at s01 ===")
        show_view(admin, "s00")

        # 3. An alt(s01, s02) journey, busy mirror declared first: the
        # Navigator consults the view and goes idle-first instead.
        tourist = Tourist("tourist")
        tourist.set_itinerary(
            Itinerary(
                seq(
                    alt(
                        singleton("s01", post_action=ResultReport("visited")),
                        singleton("s02", post_action=ResultReport("visited")),
                    )
                )
            )
        )
        listener = repro.NapletListener()
        servers["s00"].launch(tourist, owner="demo", listener=listener)
        report = listener.next_report(timeout=10)
        print("\n=== 3. alt(s01, s02) with s01 busy ===")
        print(f"  journey landed at: {report.payload[0]}")
        print(f"  reroutes at s00:   {servers['s00'].health.reroutes()}")
        print("  the decision, from the flight recorder alone:")
        for record in servers["s00"].journal.records(kind="load"):
            print("   ", format_record(record))

        # 4. Partition s01 and let its digest age out: unknown, not idle.
        network.partition_host("s01")
        time.sleep(STALE_AFTER + 0.3)
        print(f"\n=== 4. s01 partitioned, {STALE_AFTER}s stale_after elapsed ===")
        show_view(admin, "s00")
        blind = Tourist("blind")
        blind.set_itinerary(
            Itinerary(
                seq(
                    alt(
                        singleton("s02", post_action=ResultReport("visited")),
                        singleton("s01", post_action=ResultReport("visited")),
                    )
                )
            )
        )
        listener = repro.NapletListener()
        servers["s00"].launch(blind, owner="demo", listener=listener)
        report = listener.next_report(timeout=10)
        fallback = servers["s00"].journal.records(kind="load")[-1]
        print(f"  journey landed at: {report.payload[0]} (static declaration order)")
        print(f"  fallback reason:   {fallback.detail['fallback']}")
    finally:
        network.shutdown()


if __name__ == "__main__":
    main()
