#!/usr/bin/env python
"""Distributed computation with compute naplets (the Traveler heritage).

Two workloads on a five-host mesh:

1. **Monte-Carlo pi** — a Par itinerary fans one clone out per host; each
   clone draws its samples through the host's open math service and
   reports a partial count home;
2. **data-local mean** — numpy shards live in per-host DataStores; a Seq
   tour accumulates (sum, count) on-site and reports one global pair, so
   only a few floats ever cross the network instead of the raw arrays.

Run:  python examples/distributed_computing.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.hpc import (
    DATASTORE_SERVICE,
    MATH_SERVICE,
    DataStore,
    MathService,
    MonteCarloPiNaplet,
    ShardAggregateNaplet,
    combine_mean_reports,
    combine_pi_reports,
)
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, full_mesh


def main() -> None:
    network = VirtualNetwork(full_mesh(5, prefix="node", latency=0.001))
    servers = deploy(network)

    rng = np.random.default_rng(7)
    shard_bytes = 0
    for server in servers.values():
        server.register_open_service(MATH_SERVICE, MathService())
        store = DataStore()
        shard = rng.normal(20.0, 5.0, size=50_000)
        shard_bytes += shard.nbytes
        store.put("telemetry", shard)
        server.register_open_service(DATASTORE_SERVICE, store)

    home = "node00"
    workers = [h for h in sorted(servers) if h != home]

    # --- Monte-Carlo pi ------------------------------------------------- #
    listener = repro.NapletListener()
    pi_agent = MonteCarloPiNaplet("pi", workers, samples_per_host=400_000)
    servers[home].launch(pi_agent, owner="hpc", listener=listener)
    estimate = combine_pi_reports(listener, expected=len(workers))
    print(f"monte-carlo pi over {len(workers)} hosts: {estimate:.5f} "
          f"(error {abs(estimate - np.pi):.5f})")

    # --- data-local mean -------------------------------------------------- #
    network.transport.meter.reset()
    listener2 = repro.NapletListener()
    mean_agent = ShardAggregateNaplet("mean", workers, shard_key="telemetry", mode="seq")
    servers[home].launch(mean_agent, owner="hpc", listener=listener2)
    reports = listener2.reports(1, timeout=15)
    mean = combine_mean_reports(reports)
    SpaceAdmin(servers).wait_space_idle()  # the last hop is booked once its sender returns
    moved = network.transport.meter.total_bytes
    print(f"global mean of {len(workers)} shards: {mean:.4f}")
    print(f"bytes moved by the agent: {moved}  "
          f"(raw shards would have been {shard_bytes} bytes)")
    print(f"data-reduction factor: {shard_bytes / max(moved, 1):,.0f}x")
    network.shutdown()


if __name__ == "__main__":
    main()
