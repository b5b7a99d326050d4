"""Simulated network substrate: hosts, topologies, clock (traffic is counted
by the transport's frame ledger, ``network.transport.meter``)."""

from repro.transport.clock import SimClock
from repro.simnet.host import VirtualHost
from repro.simnet.network import GraphLatency, VirtualNetwork
from repro.simnet.topology import (
    full_mesh,
    line,
    random_geometric,
    ring,
    star,
    tree,
)

__all__ = [
    "SimClock",
    "VirtualHost",
    "VirtualNetwork",
    "GraphLatency",
    "star",
    "ring",
    "line",
    "tree",
    "full_mesh",
    "random_geometric",
]
