"""MAN framework under non-default directory modes + hop-limit edge case."""

from __future__ import annotations

import pytest

from repro.man import ManFramework
from repro.server import DirectoryMode, ServerConfig
from repro.transport.base import urn_of


class TestManDirectoryModes:
    @pytest.mark.parametrize("mode", [DirectoryMode.CENTRAL, DirectoryMode.NONE])
    def test_collection_works(self, mode):
        config = ServerConfig(directory_mode=mode)
        if mode is DirectoryMode.CENTRAL:
            config.directory_urn = urn_of("station")
        framework = ManFramework(n_devices=3, config=config, device_seed=5)
        try:
            table = framework.collect_with_naplets(["sysName"], mode="par")
            assert {host: values["sysName"] for host, values in table.items()} == {
                host: host for host in framework.device_hosts
            }
            framework.wait_idle()
            seq_table = framework.collect_with_naplets(["sysName"], mode="seq")
            assert set(seq_table) == set(framework.device_hosts)
        finally:
            framework.shutdown()


class TestForwardingHopLimit:
    def test_trace_loop_yields_undeliverable(self, space):
        """A corrupted footprint loop must not forward forever."""
        from repro.core.errors import NapletCommunicationError
        from repro.core.naplet_id import NapletID
        from repro.simnet import line
        from tests.conftest import CollectorNaplet

        network, servers = space(line(3, prefix="s"))
        nid = NapletID.create("loopy", "s00", stamp="240101120000")
        # forge a forwarding loop: s01 says "went to s02", s02 says "went to s01"
        agent = CollectorNaplet("ghost")
        network.authority.register_owner("loopy")
        agent._assign_identity(nid, network.authority.issue(nid, "local", {}))
        servers["s01"].manager.record_arrival(agent, None)
        servers["s01"].manager.begin_departure(nid, "naplet://s02")
        servers["s02"].manager.record_arrival(agent, None)
        servers["s02"].manager.begin_departure(nid, "naplet://s01")
        with pytest.raises(NapletCommunicationError):
            servers["s00"].messenger.post(None, nid, "x", dest_urn="naplet://s01")
        # the chase was bounded: forwarding counts stayed finite
        total_forwards = (
            servers["s01"].telemetry.messages_forwarded.value()
            + servers["s02"].telemetry.messages_forwarded.value()
        )
        assert total_forwards <= 20

    def test_trace_loop_bounds_controls_too(self, space):
        """System messages count hops, so the same bound stops their chase."""
        from repro.core.errors import NapletCommunicationError
        from repro.core.naplet_id import NapletID
        from repro.simnet import line
        from tests.conftest import CollectorNaplet

        network, servers = space(line(3, prefix="s"))
        nid = NapletID.create("loopy", "s00", stamp="240101120000")
        agent = CollectorNaplet("ghost")
        network.authority.register_owner("loopy")
        agent._assign_identity(nid, network.authority.issue(nid, "local", {}))
        for here, there in (("s01", "s02"), ("s02", "s01")):
            servers[here].manager.record_arrival(agent, None)
            servers[here].manager.begin_departure(nid, f"naplet://{there}")
        with pytest.raises(NapletCommunicationError, match="undeliverable"):
            servers["s00"].messenger.send_control(nid, "callback", dest_urn="naplet://s01")
        total_forwards = (
            servers["s01"].telemetry.messages_forwarded.value()
            + servers["s02"].telemetry.messages_forwarded.value()
        )
        assert total_forwards <= 20
