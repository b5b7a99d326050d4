#!/usr/bin/env python
"""The flight recorder: one causal timeline for a clock-skewed space.

Three servers run with deliberately skewed journal clocks — h00 five
seconds fast, h01 five seconds slow — while a tourist naplet bounces
between them under a seeded fault plan injecting delivery delays.  Each
server's flight-recorder journal (DESIGN.md §6.5) captures the journey's
events, spans and injected faults, stamped with hybrid logical clocks
that piggyback on every frame header and naplet pickle.

Back home we show:

1. the harvested space-wide timeline, causally ordered — every hop
   span precedes its landing span despite the skew;
2. the same records sorted by raw wall time, where the skew visibly
   *inverts* hops (the proof the HLC is doing the work);
3. a journey query (``select``/``order``, what ``tools/naplet.py log``
   runs) reconstructing the itinerary; and
4. the probe harvest (``harvest_via_probe(..., kinds=("journal",))``)
   reading the ``"harvest"`` service at every stop — the MAN pattern
   applied to the platform's own black box.

Run:  python examples/flight_recorder.py
"""

from __future__ import annotations

import dataclasses
import time

import repro
from repro.faults import FaultPlan
from repro.health import harvest_via_probe, merged_journal
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import NapletServer, ServerConfig, SpaceAdmin
from repro.simnet import VirtualNetwork, full_mesh
from repro.telemetry.journal import causal_key, format_record, order

ROUTE = ["h01", "h02", "h01"]
SKEWS = {"h00": +5.0, "h01": -5.0, "h02": 0.0}


class Tourist(repro.Naplet):
    """Appends each visited hostname to its state and travels on."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        self.travel()


def build_skewed_space():
    """Three servers whose journal clocks disagree by ±5 seconds."""
    plan = FaultPlan(seed=29).delay(0.002)
    network = VirtualNetwork(full_mesh(3, prefix="h"), fault_plan=plan)
    base = ServerConfig(health_cadence=0.05)
    servers = {}
    for hostname, skew in SKEWS.items():
        config = dataclasses.replace(
            base, journal_time_source=lambda skew=skew: time.time() + skew
        )
        servers[hostname] = NapletServer.attach(network.host(hostname), config)
    return network, servers


def show(title: str, records) -> None:
    print(f"\n=== {title} ===")
    for record in records:
        print("  " + format_record(record))
    print(f"  ({len(records)} records)")


def main() -> None:
    network, servers = build_skewed_space()
    try:
        print("space: " + ", ".join(
            f"{h} ({skew:+.0f}s)" for h, skew in SKEWS.items()
        ))

        listener = repro.NapletListener()
        agent = Tourist("skew-tour")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited"))
            )
        )
        nid = servers["h00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=20)
        print(f"tour complete: {report.payload}")
        admin = SpaceAdmin(servers)
        admin.wait_space_idle()

        # 1. The causally merged timeline for this journey.
        story = admin.harvest_journal(naplet=str(nid))
        show("causal order (harvest_journal)", story)

        # 2. Raw wall order inverts hops: a hop span begun at wall+5 sorts
        #    after its landing begun at wall-5.
        hops = [r for r in story if r.kind in ("hop", "landing")]
        by_wall = sorted(hops, key=lambda r: (r.wall, r.server, r.seq))
        show("the same hops by raw wall clock (inverted!)", by_wall)
        causal_hops = sorted(hops, key=causal_key)
        inverted = [r.kind for r in by_wall] != [r.kind for r in causal_hops]
        print(f"\nwall order differs from causal order: {inverted}")

        # 3. Reconstruct the itinerary from landings alone.
        arrived = admin.harvest_journal(journey=str(nid), kind="landing")
        arrivals = [r.server for r in order(arrived, causal=True)]
        print(f"itinerary reconstructed from the journal: {arrivals}")
        assert arrivals == ROUTE

        # 4. The over-the-wire harvest: a probe naplet tours the space
        #    reading the journal kind of each server's "harvest" service.
        probed = merged_journal(
            harvest_via_probe(
                servers["h00"], list(SKEWS), repro.NapletListener(),
                kinds=("journal",),
            )
        )
        faults = [r for r in probed if r.category == "fault"]
        print(
            f"\nprobe harvest: {len(probed)} records from {len(SKEWS)} servers, "
            f"{len(faults)} injected faults on the timeline"
        )
    finally:
        network.shutdown()


if __name__ == "__main__":
    main()
