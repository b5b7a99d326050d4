#!/usr/bin/env python
"""Quickstart: a roaming naplet in ten lines of agent code.

Builds a four-host virtual network, deploys one NapletServer per host,
and launches an agent whose business logic (collect hostnames) is cleanly
separated from its itinerary (a Seq tour of three servers).  The final
ResultReport post-action sends the collected list back to the home
listener — the paper's Example 1.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line


class GreeterNaplet(repro.Naplet):
    """Visits servers and remembers who it met."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        print(f"  [{context.hostname}] hello from {self.naplet_id}")
        self.travel()


def main() -> None:
    # One millisecond per link; bytes and virtual delay are metered.
    network = VirtualNetwork(line(4, prefix="host", latency=0.001))
    servers = deploy(network)

    listener = repro.NapletListener()
    agent = GreeterNaplet("greeter")
    agent.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["host01", "host02", "host03"],
                post_action=ResultReport("visited"),
            )
        )
    )

    print("launching from host00 ...")
    nid = servers["host00"].launch(agent, owner="quickstart", listener=listener)
    report = listener.next_report(timeout=10)
    SpaceAdmin(servers).wait_space_idle()  # the last hop is booked once its sender returns

    print(f"\nnaplet id     : {nid}")
    print(f"visited       : {report.payload}")
    print(f"network bytes : {network.transport.meter.total_bytes}")
    print(f"virtual delay : {network.clock.virtual_time * 1000:.1f} ms accounted")
    log = [f"{r.server_urn} ({r.dwell:.4f}s)" for r in agent.navigation_log if r.dwell]
    print(f"navigation log: {log if log else '(travelled copy holds the full log)'}")
    network.shutdown()


if __name__ == "__main__":
    main()
