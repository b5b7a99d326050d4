"""Virtual network assembly.

A :class:`VirtualNetwork` bundles everything one experiment needs:

- the topology graph (hostnames + links with latency/bandwidth attributes);
- a :class:`GraphLatency` model that routes over shortest paths;
- one shared :class:`InMemoryTransport` with its clock (the transport's
  frame ledger, ``transport.meter``, counts the traffic);
- the process-wide fixtures servers expect — a
  :class:`~repro.core.credential.SigningAuthority` (stand-in PKI) and a
  :class:`~repro.codeshipping.codebase.CodeBaseRegistry` (codebase host).

Hosts are created from graph nodes; naplet servers attach to hosts (one per
host).  The network always holds a :class:`~repro.faults.plan.FaultPlan`
(an empty one unless given), set as its transport's ``fault_plan``: a
chaos experiment partitions, drops or refuses through ``fault_plan``, and
a full :meth:`~repro.faults.plan.FaultPlan.heal` requeues dead letters
space-wide.
"""

from __future__ import annotations

import threading
from typing import Iterator

import networkx as nx

from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.core.errors import NapletError
from repro.faults.plan import FaultPlan
from repro.transport.clock import SimClock
from repro.simnet.host import VirtualHost
from repro.transport.base import host_of
from repro.transport.inmemory import InMemoryTransport
from repro.transport.latency import LatencyModel

__all__ = ["GraphLatency", "VirtualNetwork"]


class GraphLatency(LatencyModel):
    """Latency model routed over the topology graph.

    One-way delay between two hosts is the sum of edge latencies along the
    shortest (latency-weighted) path, plus transfer time at the bottleneck
    (minimum) bandwidth along that path.  Paths are cached.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self._graph = graph
        self._cache: dict[tuple[str, str], tuple[float, float]] = {}
        self._lock = threading.Lock()

    def _path_params(self, src: str, dst: str) -> tuple[float, float]:
        key = (src, dst)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        try:
            path = nx.shortest_path(self._graph, src, dst, weight="latency")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            # Unknown or unreachable hosts: charge nothing; reachability is
            # the transport's concern, not the latency model's.
            params = (0.0, 0.0)
            with self._lock:
                self._cache[key] = params
            return params
        latency = 0.0
        bandwidth = float("inf")
        for u, v in zip(path, path[1:]):
            data = self._graph.edges[u, v]
            latency += float(data.get("latency", 0.0))
            bw = float(data.get("bandwidth", 0.0))
            if bw > 0:
                bandwidth = min(bandwidth, bw)
        if bandwidth == float("inf"):
            bandwidth = 0.0
        params = (latency, bandwidth)
        with self._lock:
            self._cache[key] = params
        return params

    def delay(self, src: str, dst: str, nbytes: int) -> float:
        if src == dst:
            return 0.0
        latency, bandwidth = self._path_params(src, dst)
        transfer = (nbytes / bandwidth) if bandwidth > 0 else 0.0
        return latency + transfer


class VirtualNetwork:
    """A topology of virtual hosts sharing one transport and its fixtures."""

    def __init__(
        self,
        graph: nx.Graph,
        latency: LatencyModel | None = None,
        sleep_scale: float = 0.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.graph = graph
        self.clock = SimClock(scale=sleep_scale)
        self.latency = latency if latency is not None else GraphLatency(graph)
        self.transport = InMemoryTransport(latency=self.latency, clock=self.clock)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.transport.fault_plan = self.fault_plan
        self.fault_plan.on_heal(self._requeue_dead_letters)
        self.authority = SigningAuthority()
        self.code_registry = CodeBaseRegistry()
        self._hosts: dict[str, VirtualHost] = {}
        self._lock = threading.Lock()
        for name in graph.nodes:
            self._hosts[str(name)] = VirtualHost(str(name), self)

    # -- hosts ------------------------------------------------------------- #

    def host(self, hostname: str) -> VirtualHost:
        hostname = host_of(hostname)
        with self._lock:
            try:
                return self._hosts[hostname]
            except KeyError:
                raise NapletError(f"no such host in network: {hostname!r}") from None

    def add_host(self, hostname: str, connect_to: str | None = None, **link_attrs: float) -> VirtualHost:
        """Grow the topology at runtime (used by elasticity tests)."""
        with self._lock:
            if hostname in self._hosts:
                raise NapletError(f"host already exists: {hostname!r}")
            self.graph.add_node(hostname)
            if connect_to is not None:
                self.graph.add_edge(hostname, connect_to, **link_attrs)
            host = VirtualHost(hostname, self)
            self._hosts[hostname] = host
            if isinstance(self.latency, GraphLatency):
                # topology changed: drop the path cache
                self.latency._cache.clear()
            return host

    def hostnames(self) -> list[str]:
        with self._lock:
            return sorted(self._hosts)

    def hosts(self) -> Iterator[VirtualHost]:
        for name in self.hostnames():
            yield self.host(name)

    def __contains__(self, hostname: str) -> bool:
        with self._lock:
            return host_of(hostname) in self._hosts

    def heal(self) -> None:
        """Clear the fault plan and requeue dead letters space-wide."""
        self.fault_plan.heal()

    def _requeue_dead_letters(self) -> None:
        for host in self.hosts():
            server = host.server
            if server is not None and hasattr(server, "messenger"):
                server.messenger.requeue_dead_letters()

    # -- lifecycle -------------------------------------------------------------- #

    def shutdown(self) -> None:
        """Stop every attached server and close the transport."""
        for host in self.hosts():
            server = host.server
            if server is not None and hasattr(server, "shutdown"):
                server.shutdown()
        self.transport.close()
