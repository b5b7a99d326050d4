#!/usr/bin/env python
"""Observing a naplet space from the inside.

The paper's MAN agents itinerate a network harvesting SNMP variables; here
observability itself is the network-centric workload.  The platform's
own :class:`~repro.health.HarvestProbe` tours every host, opens the one
``harvest`` service each server exposes, and carries home a row per server:
the metrics registry as a dict and, filtered on-site, the span records of
the journal.  Back home we print:

1. a table read off the rows the probe assembled host by host;
2. the space-wide merged metrics (``SpaceAdmin.space_metrics``), which
   also fold in the transport's wire counters;
3. the probe's **own journey tree** — every hop, landing and post-action
   of the telemetry sweep, stitched from the per-server tracers
   (``SpaceAdmin.journey``).

Run:  python examples/space_telemetry.py
"""

from __future__ import annotations

import repro
from repro.health import HarvestProbe
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, full_mesh
from repro.util.concurrency import wait_until


# The journal's per-kind tally: the one count of launches, hops, landings.
RECORDS = "naplet_journal_records_total"


def total(row: dict, name: str, **labels: str) -> float:
    """Sum of one metric family's samples carrying *labels* in a harvest row."""
    family = row["metrics"]["families"].get(name, {"samples": []})
    return sum(
        sample["value"]
        for sample in family["samples"]
        if labels.items() <= sample["labels"].items()
    )


class Tourist(repro.Naplet):
    """Background traffic: hops its line and reports home."""

    def on_start(self) -> None:
        self.travel()


def generate_traffic(servers) -> None:
    """A little background work so the harvest has something to show."""
    listener = repro.NapletListener()
    for i in range(3):
        agent = Tourist(f"tourist-{i}")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["h01", "h02", "h03"], post_action=ResultReport("done")
                )
            )
        )
        servers["h00"].launch(agent, owner="traffic", listener=listener)
        listener.next_report(timeout=10)


def main() -> None:
    network = VirtualNetwork(full_mesh(4, prefix="h"))
    servers = deploy(network)
    admin = SpaceAdmin(servers)

    generate_traffic(servers)

    listener = repro.NapletListener()
    # What harvest_via_probe() does, spelled out to keep the probe's id.
    harvester = HarvestProbe(
        kinds=("metrics", "journal"), filters={"category": "span"}
    )
    harvester.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["h00", "h01", "h02", "h03"], post_action=ResultReport("rows")
            )
        )
    )
    nid = servers["h00"].launch(harvester, owner="noc", listener=listener)
    rows = listener.next_report(timeout=15).payload
    admin.wait_space_idle()
    # A hop span closes on the *source* server only after the destination
    # acknowledged the landing; give the last one a beat to flush so the
    # journey stitches to a single root.
    wait_until(lambda: len(admin.journey(nid).roots) == 1)

    print("— per-host snapshot (harvested in-space by the probe) —")
    print(f"  {'host':<6}{'landings':>9}{'hops':>6}{'delivered':>11}{'spans':>7}")
    for row in rows:
        print(
            f"  {row['server']:<6}{total(row, RECORDS, kind='landing'):>9.0f}"
            f"{total(row, RECORDS, kind='hop'):>6.0f}"
            f"{total(row, 'naplet_messages_delivered_total'):>11.0f}"
            f"{len(row['journal']):>7}"
        )

    merged = admin.space_metrics()
    print("\n— space-wide merged counters —")
    for kind in ("naplet-launch", "hop", "landing"):
        print(f"  {kind + ' records':<28} {merged.value(RECORDS, kind=kind):,.0f}")
    for name in ("wire_frames_total", "wire_bytes_total"):
        print(f"  {name:<28} {merged.total(name):,.0f}")
    latency = merged.value("naplet_hop_latency_seconds")
    print(
        f"  hop latency: {latency.count:.0f} hops, "
        f"mean {latency.mean * 1e3:.2f} ms"
    )

    print("\n— the harvester's own journey —")
    print(admin.journey(nid).render())

    network.shutdown()


if __name__ == "__main__":
    main()
