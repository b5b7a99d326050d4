"""NapletServer assembly: config validation, frame dispatch, facade bits."""

from __future__ import annotations

import pytest

from repro.core.errors import NapletError
from repro.server.directory import DirectoryMode
from repro.server.monitor import ResourceQuota
from repro.server.server import NapletServer, ServerConfig
from repro.simnet.network import VirtualNetwork
from repro.simnet.topology import line
from repro.transport.base import Frame, FrameKind, read_reply
from tests.conftest import CollectorNaplet


@pytest.fixture
def network():
    net = VirtualNetwork(line(3, prefix="h"))
    yield net
    net.shutdown()


class TestConfig:
    def test_central_mode_requires_directory_urn(self, network):
        with pytest.raises(NapletError):
            NapletServer.attach(
                network.host("h00"),
                ServerConfig(directory_mode=DirectoryMode.CENTRAL),
            )

    def test_home_mode_hosts_local_directory(self, network):
        server = NapletServer.attach(network.host("h00"))
        assert server.local_directory is not None

    def test_central_non_host_has_no_local_directory(self, network):
        config = ServerConfig(
            directory_mode=DirectoryMode.CENTRAL, directory_urn="naplet://h00"
        )
        import dataclasses

        host_server = NapletServer.attach(network.host("h00"), config)
        edge_server = NapletServer.attach(network.host("h01"), dataclasses.replace(config))
        assert host_server.local_directory is not None
        assert edge_server.local_directory is None

    def test_attach_installs_on_host(self, network):
        server = NapletServer.attach(network.host("h00"))
        assert network.host("h00").server is server
        with pytest.raises(NapletError):
            NapletServer.attach(network.host("h00"))


class TestFrameDispatch:
    def test_ping(self, network):
        server = NapletServer.attach(network.host("h00"))
        reply = network.transport.request(
            Frame(kind=FrameKind.PING, source="naplet://x", dest=server.urn)
        )
        assert read_reply(reply, "ping", "pong") == ("pong", [server.urn])

    def test_unknown_kind_raises(self, network):
        """An unknown kind is refused, and reading the refusal raises."""
        server = NapletServer.attach(network.host("h00"))
        reply = network.transport.request(
            Frame(kind="mystery", source="naplet://x", dest=server.urn)
        )
        assert reply == b"refused naplet://h00: unknown frame kind 'mystery'"
        with pytest.raises(NapletError, match="unknown frame kind"):
            read_reply(reply, "mystery", "ok")

    def test_shutdown_refuses_frames(self, network):
        server = NapletServer.attach(network.host("h00"))
        server.shutdown()
        assert not network.transport.is_registered(server.urn)


class TestQuotaPolicy:
    def test_default_quota_used_without_policy(self, network):
        quota = ResourceQuota(cpu_seconds=1.0)
        server = NapletServer.attach(network.host("h00"), ServerConfig(default_quota=quota))
        agent = CollectorNaplet("q")
        nid_quota = _launchable(server, agent)
        assert server.quota_for(agent) == quota

    def test_quota_policy_overrides(self, network):
        special = ResourceQuota(cpu_seconds=0.5)

        def policy(credential):
            if credential.feature("role") == "greedy":
                return special
            return None

        server = NapletServer.attach(network.host("h00"), ServerConfig(quota_policy=policy))
        greedy = CollectorNaplet("greedy")
        _launchable(server, greedy, attributes={"role": "greedy"})
        assert server.quota_for(greedy) == special

        normal = CollectorNaplet("normal")
        _launchable(server, normal)
        assert server.quota_for(normal) == server.config.default_quota


def _launchable(server, agent, attributes=None):
    """Assign identity/credential without actually launching."""
    from repro.core.naplet_id import NapletID

    server.authority.register_owner("unit")
    nid = NapletID.create("unit", server.hostname)
    agent._assign_identity(
        nid, server.authority.issue(nid, agent.codebase, attributes or {})
    )
    return nid


class TestLaunchValidation:
    def test_launch_without_itinerary_rejected(self, network):
        server = NapletServer.attach(network.host("h00"))
        with pytest.raises(NapletError):
            server.launch(CollectorNaplet("lost"), owner="unit")
