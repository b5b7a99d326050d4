#!/usr/bin/env python
"""Lazy code loading (paper §2.1): codebases and on-demand class fetch.

The agent class below is bundled into a CodeBase — the JAR analogue — and
*stamped*, so migrating instances travel as ``(codebase, module, qualname,
state)`` references instead of by import path.  Each destination server
resolves the class through its local CodeCache:

- first arrival at a server → cache **miss** → the bundle is fetched from
  the codebase registry (billed as network traffic from the codebase host)
  and executed by the restricted loader;
- revisits → cache **hit** → no fetch.

Compare the ``codebase-fetch`` events and per-server cache stats printed at
the end, and rerun with ``eager=True`` to ship code with every transfer
instead (bigger payloads, zero fetches).

Run:  python examples/code_shipping.py
"""

from __future__ import annotations

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import ServerConfig, deploy
from repro.simnet import VirtualNetwork, line


class ShippedProbe(repro.Naplet):
    """A tiny probe whose *code* is delivered lazily."""

    def __init__(self, name: str, **kwargs) -> None:
        super().__init__(name, codebase="codebase://examples/probe", **kwargs)

    def on_start(self) -> None:
        context = self.require_context()
        hops = (self.state.get("hops") or []) + [context.hostname]
        self.state.set("hops", hops)
        self.travel()


def main(eager: bool = False) -> None:
    network = VirtualNetwork(line(4, prefix="srv", latency=0.001))
    config = ServerConfig(eager_code=eager, codebase_host="srv00")
    servers = deploy(network, config=config)

    # Author the codebase once, at the home side.
    codebase = network.code_registry.create("codebase://examples/probe")
    codebase.add_class(ShippedProbe)
    print(f"codebase bundled: {codebase.total_bytes} bytes of source, eager={eager}")

    # Tour out and back: srv01 -> srv02 -> srv03 -> srv02 (revisit = cache hit)
    listener = repro.NapletListener()
    agent = ShippedProbe("probe")
    agent.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["srv01", "srv02", "srv03", "srv02"],
                post_action=ResultReport("hops"),
            )
        )
    )
    servers["srv00"].launch(agent, owner="shipper", listener=listener)
    report = listener.next_report(timeout=10)
    print(f"hops: {report.payload}")

    print("\nper-server lazy-loading stats:")
    for hostname in sorted(servers):
        journal = servers[hostname].journal
        hits = journal.count("codeshipping-cache-hit")
        misses = journal.count("codeshipping-cache-miss")
        fetches = journal.count("codebase-fetch")
        print(f"  {hostname}: cache hits={hits} misses={misses} fetch events={fetches}")
    network.shutdown()


if __name__ == "__main__":
    main(eager=False)
