"""Code shipping end-to-end: lazy fetches per server, eager bundling."""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line
from tests.transport.shipped_fixture import StampedPayload


# An agent class shipped by codebase reference; module must stay loadable by
# the restricted loader, so it lives in the clean fixture module's terms.
from tests.integration.shipped_agent import RoamingProbe  # noqa: E402


def _build(eager: bool):
    network = VirtualNetwork(line(4, prefix="srv", latency=0.001))
    config = ServerConfig(eager_code=eager, codebase_host="srv00")
    servers = deploy(network, config=config)
    codebase = network.code_registry.create("codebase://tests/probe")
    codebase.add_class(RoamingProbe)
    return network, servers


class TestLazyShipping:
    def test_first_visit_fetches_revisit_hits(self, space):
        network, servers = _build(eager=False)
        try:
            listener = repro.NapletListener()
            agent = RoamingProbe("probe")
            agent.set_itinerary(
                Itinerary(
                    SeqPattern.of_servers(
                        ["srv01", "srv02", "srv01"], post_action=ResultReport("hops")
                    )
                )
            )
            servers["srv00"].launch(agent, owner="ship", listener=listener)
            report = listener.next_report(timeout=15)
            assert report.payload == ["srv01", "srv02", "srv01"]
            assert servers["srv01"].journal.count("codeshipping-cache-miss") == 1
            assert servers["srv01"].journal.count("codeshipping-cache-hit") >= 1  # the revisit
            assert servers["srv02"].journal.count("codeshipping-cache-miss") == 1
            assert servers["srv01"].journal.count("codebase-fetch") == 1
        finally:
            network.shutdown()

    def test_fetch_traffic_metered_from_codebase_host(self, space):
        network, servers = _build(eager=False)
        try:
            listener = repro.NapletListener()
            agent = RoamingProbe("probe")
            agent.set_itinerary(
                Itinerary(
                    SeqPattern.of_servers(["srv03"], post_action=ResultReport("hops"))
                )
            )
            servers["srv00"].launch(agent, owner="ship", listener=listener)
            listener.next_report(timeout=15)
            stats = network.transport.meter.kind_stats("codebase-fetch")
            assert stats.frames == 1
            assert stats.bytes > 100
        finally:
            network.shutdown()


class TestEagerShipping:
    def test_no_fetches_bigger_payloads(self, space):
        lazy_net, lazy_servers = _build(eager=False)
        eager_net, eager_servers = _build(eager=True)
        try:
            for servers, network in ((lazy_servers, lazy_net), (eager_servers, eager_net)):
                listener = repro.NapletListener()
                agent = RoamingProbe("probe")
                agent.set_itinerary(
                    Itinerary(
                        SeqPattern.of_servers(
                            ["srv01", "srv02"], post_action=ResultReport("hops")
                        )
                    )
                )
                servers["srv00"].launch(agent, owner="ship", listener=listener)
                assert listener.next_report(timeout=15).payload == ["srv01", "srv02"]
                # The last hop is booked when its transfer request returns.
                assert SpaceAdmin(servers).wait_space_idle()
            # eager: no fetch events anywhere
            assert all(
                s.journal.count("codebase-fetch") == 0 for s in eager_servers.values()
            )
            assert any(
                s.journal.count("codebase-fetch") > 0 for s in lazy_servers.values()
            )
            # eager transfers carry the code: more naplet-transfer bytes
            lazy_bytes = lazy_net.transport.meter.kind_stats("naplet-transfer").bytes
            eager_bytes = eager_net.transport.meter.kind_stats("naplet-transfer").bytes
            assert eager_bytes > lazy_bytes
        finally:
            lazy_net.shutdown()
            eager_net.shutdown()

    def test_shipped_state_survives_reconstruction(self, space):
        network, servers = _build(eager=False)
        try:
            listener = repro.NapletListener()
            agent = RoamingProbe("probe")
            agent.state.set("payload", StampedPayload(21))
            # also bundle the payload class so it ships lazily too
            payload_cb = network.code_registry.create("codebase://tests/payload")
            payload_cb.add_class(StampedPayload)
            agent.set_itinerary(
                Itinerary(
                    SeqPattern.of_servers(["srv01"], post_action=ResultReport("doubled"))
                )
            )
            servers["srv00"].launch(agent, owner="ship", listener=listener)
            report = listener.next_report(timeout=15)
            assert report.payload == 42
        finally:
            network.shutdown()
