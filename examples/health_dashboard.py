#!/usr/bin/env python
"""The health plane end to end: watchdog, critical path, Chrome trace.

A chaos space (seeded delays) runs three workloads:

1. a **worker** touring the ring and burning CPU at each stop — it shows
   up in the per-naplet resource profiles;
2. a **wedged** naplet that sleeps without checkpointing — the watchdog
   flags it as a ``stuck_naplet`` finding within one deadline;
3. a **harvest probe** (:class:`repro.health.HarvestProbe`) touring the
   space and carrying every server's ``health`` payload home from the
   ``harvest`` open service — the rows ``tools/naplet.py stat`` renders,
   collected the way one reaches a space that is not in-process.

Then the worker's journey is stitched and analysed: ``critical_path()``
attributes each hop's latency to serialize / wire / landing / execute
segments (the injected delays make the wire dominate), and the whole run
— spans, resource-profile counters, injected-fault instants — is
exported as a Chrome trace-event JSON you can load in ``chrome://tracing``
or https://ui.perfetto.dev.

Run:  python examples/health_dashboard.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import repro
from repro.faults import FaultPlan
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.itinerary.pattern import singleton
from repro.health import harvest_via_probe
from repro.server import ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, ring
from repro.telemetry import write_chrome_trace


class RingWorker(repro.Naplet):
    """Computes at each stop (checkpointing), then travels on."""

    def on_start(self) -> None:
        total = self.state.get("total") or 0
        for _ in range(30):
            total += sum(j * j for j in range(5000))
            self.checkpoint()
        self.state.set("total", total)
        self.travel()


class WedgedNaplet(repro.Naplet):
    """Sleeps forever without checkpointing: no CPU, no messages, no exit."""

    def on_start(self) -> None:
        while True:
            time.sleep(0.2)


def main() -> None:
    plan = FaultPlan(seed=11).delay(0.003)
    network = VirtualNetwork(ring(4, prefix="h"), fault_plan=plan)
    servers = deploy(
        network,
        config=ServerConfig(health_cadence=0.1, health_stuck_deadline=0.4),
    )
    admin = SpaceAdmin(servers)
    hosts = network.hostnames()

    listener = repro.NapletListener()
    worker = RingWorker("ring-worker")
    worker.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(hosts[1:] * 2, post_action=ResultReport("total"))
        )
    )
    worker_nid = servers[hosts[0]].launch(worker, owner="demo", listener=listener)

    wedged = WedgedNaplet("wedged")
    wedged.set_itinerary(Itinerary(singleton(hosts[1])))
    servers[hosts[0]].launch(wedged, owner="demo")

    listener.next_report(timeout=30)

    # Give the watchdog a couple of cadence periods to flag the sleeper.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and not admin.space_findings():
        time.sleep(0.05)

    print("— watchdog findings (SpaceAdmin.space_findings) —")
    for finding in admin.space_findings():
        print(f"  {finding}")

    print("\n— health harvest, carried home by a probe naplet —")
    probe_listener = repro.NapletListener()
    rows = harvest_via_probe(
        servers[hosts[0]], hosts, probe_listener, kinds=("health",)
    )
    for row in rows:
        health = row.get("health", {})
        print(
            f"  {row['server']}: {len(health.get('profiles', []))} profiles, "
            f"{len(health.get('findings', []))} findings, "
            f"dead letters {health.get('dead_letter_depth', 0)}"
        )

    print("\n— the worker's critical path —")
    journey = admin.journey(worker_nid)
    print(journey.critical_path().render())

    trace_path = Path(tempfile.gettempdir()) / "naplet_health_trace.json"
    trace = write_chrome_trace(
        str(trace_path),
        admin.harvest_journal(journey=str(worker_nid)),
        profiles=admin.top_naplets_by_cpu(10),
    )
    print(
        f"\nChrome trace: {len(trace['traceEvents'])} events -> {trace_path}\n"
        "(load it in chrome://tracing or https://ui.perfetto.dev)"
    )

    network.shutdown()


if __name__ == "__main__":
    main()
