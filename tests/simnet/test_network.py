"""VirtualNetwork and GraphLatency."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.errors import NapletError
from repro.simnet.network import GraphLatency, VirtualNetwork
from repro.simnet.topology import line, star


class TestGraphLatency:
    def test_adjacent_hosts_single_hop(self):
        network = VirtualNetwork(line(3, prefix="h", latency=0.01))
        assert network.latency.delay("h00", "h01", 0) == pytest.approx(0.01)

    def test_multi_hop_sums_latencies(self):
        network = VirtualNetwork(line(4, prefix="h", latency=0.01))
        assert network.latency.delay("h00", "h03", 0) == pytest.approx(0.03)

    def test_bottleneck_bandwidth(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", latency=0.0, bandwidth=1000.0)
        graph.add_edge("b", "c", latency=0.0, bandwidth=100.0)
        model = GraphLatency(graph)
        # 100 bytes over a 100 B/s bottleneck
        assert model.delay("a", "c", 100) == pytest.approx(1.0)

    def test_loopback_free(self):
        network = VirtualNetwork(line(2, latency=5.0))
        assert network.latency.delay("host00", "host00", 10**6) == 0.0

    def test_unknown_hosts_charge_nothing(self):
        model = GraphLatency(line(2, latency=0.5))
        assert model.delay("ghost1", "ghost2", 100) == 0.0

    def test_path_cache_consistency(self):
        model = GraphLatency(line(3, prefix="h", latency=0.01))
        first = model.delay("h00", "h02", 0)
        second = model.delay("h00", "h02", 0)
        assert first == second == pytest.approx(0.02)


class TestVirtualNetwork:
    def test_hosts_from_graph_nodes(self):
        network = VirtualNetwork(star(3))
        assert set(network.hostnames()) == {"station", "dev00", "dev01", "dev02"}
        assert network.host("dev00").urn == "naplet://dev00"
        assert "dev00" in network
        assert "ghost" not in network

    def test_host_accepts_urn(self):
        network = VirtualNetwork(star(1))
        assert network.host("naplet://station").hostname == "station"

    def test_unknown_host_raises(self):
        with pytest.raises(NapletError):
            VirtualNetwork(star(1)).host("ghost")

    def test_add_host_grows_topology(self):
        network = VirtualNetwork(line(2, prefix="h", latency=0.01))
        network.add_host("h99", connect_to="h01", latency=0.02)
        assert "h99" in network
        assert network.latency.delay("h00", "h99", 0) == pytest.approx(0.03)

    def test_add_duplicate_host_rejected(self):
        network = VirtualNetwork(line(2, prefix="h"))
        with pytest.raises(NapletError):
            network.add_host("h00")

    def test_one_server_per_host_invariant(self):
        network = VirtualNetwork(line(1, prefix="h"))
        host = network.host("h00")
        host.install_server(object())
        with pytest.raises(NapletError):
            host.install_server(object())
        host.remove_server()
        host.install_server(object())  # allowed again

    def test_attachments(self):
        network = VirtualNetwork(line(1, prefix="h"))
        host = network.host("h00")
        host.attach("device", "dev-object")
        assert host.attachment("device") == "dev-object"
        assert host.attachment("absent", 1) == 1

    def test_fault_injection_delegates(self):
        """The network's fault plan is its transport's: an empty one by
        default, whose rules every frame in the space then meets."""
        network = VirtualNetwork(line(2, prefix="h"))
        assert network.transport.fault_plan is network.fault_plan
        network.transport.register("naplet://h01", lambda f: b"ok")
        from repro.core.errors import NapletCommunicationError
        from repro.transport.base import Frame

        ping = Frame(kind="ping", source="naplet://h00", dest="naplet://h01")
        network.transport.send(ping)
        network.fault_plan.refuse_dial(src="h00", dst="h01")
        with pytest.raises(NapletCommunicationError):
            network.transport.send(ping)
        network.heal()
        network.fault_plan.partition("h01")
        with pytest.raises(NapletCommunicationError):
            network.transport.request(ping)
        network.fault_plan.heal_host("h01")
        assert network.transport.request(ping) == b"ok"

    def test_shared_fixtures_exist(self):
        network = VirtualNetwork(star(1))
        assert network.authority is not None
        assert network.code_registry is not None
        assert network.clock is network.transport.clock
