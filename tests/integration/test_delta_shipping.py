"""Delta state shipping end-to-end: repeat hops and the need_full recovery.

The unit suite (tests/transport/test_delta.py) proves the envelope
machinery; this file proves the *space-level* contract over both
transports:

- repeat hops between the same pair of servers ship deltas;
- a destination that lost its base image mid-itinerary (cache eviction,
  restart...) acks ``need_full`` and the sender re-ships the full image
  within the same hop.
"""

from __future__ import annotations

import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import NapletServer, ServerConfig, SpaceAdmin
from repro.simnet import VirtualNetwork, line
from repro.transport.tcp import TcpTransport
from tests.conftest import CollectorNaplet

ROUTE = ["d01", "d00"] * 3  # six hops, ping-pong

# Hook the saboteur courier calls mid-journey (in-process transports run
# agents in this very process, so a module global reaches them).
_SABOTAGE: dict = {}


class SaboteurCourier(CollectorNaplet):
    """Collector that fires the registered sabotage hook at one hop."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        hook = _SABOTAGE.get("hook")
        if hook is not None and len(visited) == _SABOTAGE.get("at"):
            hook(context.hostname)
        self.travel()


class Ouroboros(CollectorNaplet):
    """Holds a reference to itself, and checks at every landing that the
    reference still closes the loop (a per-field image would detach it)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ring = {"me": self}

    def on_start(self) -> None:
        assert self.ring["me"] is self
        super().on_start()


def _tcp_space(config_by_name: dict[str, ServerConfig]):
    transport = TcpTransport()
    authority = SigningAuthority()
    registry = CodeBaseRegistry()
    servers = {
        name: NapletServer(
            hostname=name,
            transport=transport,
            authority=authority,
            code_registry=registry,
            config=config,
        )
        for name, config in config_by_name.items()
    }
    return transport, servers


def _configs() -> dict[str, ServerConfig]:
    return {"d00": ServerConfig(), "d01": ServerConfig()}


def _journey(servers, agent=None) -> str:
    listener = repro.NapletListener()
    agent = agent or CollectorNaplet("courier")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited")))
    )
    nid = servers["d00"].launch(agent, owner="alice", listener=listener)
    assert listener.next_report(timeout=30).payload == ROUTE
    # The report fires from the landing server before the *sender* of the
    # final hop finishes its ack bookkeeping (delta counters included):
    # drain the space before reading telemetry.
    SpaceAdmin(servers).wait_space_idle(timeout=10)
    return str(nid)


def _total(servers, counter: str) -> int:
    return int(sum(getattr(s.telemetry, counter).total() for s in servers.values()))


def _assert_cache_lifetime(servers, nid: str) -> None:
    """Retired at d00: no record there.  Departed from d01 and acked: the
    image stays as a delta base, none of the objects it was pickled from."""
    assert nid not in servers["d00"].serializer.delta_cache
    record = servers["d01"].serializer.delta_cache.peek(nid)
    assert record is not None
    assert not any(entry.live for entry in record.fields.values())


def _journey_with_evicted_base(servers) -> None:
    """While the naplet sits on d01 (hop 3), every other server loses its
    delta cache; the next hop lands on d00, which no longer holds the base."""

    def evict_everywhere_else(current_host: str) -> None:
        for name, server in servers.items():
            if name != current_host:
                server.serializer.delta_cache.clear()

    _SABOTAGE.update(hook=evict_everywhere_else, at=3)
    try:
        _journey(servers, SaboteurCourier("chaos-courier"))
    finally:
        _SABOTAGE.clear()
    # The sender still believed in its base, the receiver had lost it:
    # exactly one need_full round trip, then delta shipping resumed.
    assert _total(servers, "delta_full_reships") == 1
    # Hops #1 (first image) and #4 (the need_full reship) are full;
    # the reship re-seeds both ends, so later hops return to deltas.
    # Hop #5 may go either way — the eviction also hit d00's sender
    # cache, but hop #4's landing re-seeds it in time on most runs.
    assert len(ROUTE) - 3 <= _total(servers, "delta_hops") <= len(ROUTE) - 2


class TestDeltaOverInMemory:
    @pytest.fixture
    def memory_space(self):
        network = VirtualNetwork(line(2, prefix="d"))
        yield network
        network.shutdown()

    def _attach(self, network, configs):
        return {
            name: NapletServer.attach(network.host(name), config)
            for name, config in configs.items()
        }

    def test_repeat_hops_ship_deltas(self, memory_space):
        servers = self._attach(memory_space, _configs())
        nid = _journey(servers)
        # Hop 1 is always a full image; every later hop had an acked base.
        assert _total(servers, "delta_hops") == len(ROUTE) - 1
        assert _total(servers, "delta_saved_bytes") > 0
        assert _total(servers, "delta_full_reships") == 0
        _assert_cache_lifetime(servers, nid)

    def test_evicted_base_forces_transparent_full_reship(self, memory_space):
        _journey_with_evicted_base(self._attach(memory_space, _configs()))

    def test_self_referential_naplet_travels_as_one_pickle(self, memory_space):
        servers = self._attach(memory_space, _configs())
        _journey(servers, Ouroboros("ouroboros"))
        # The input selected the single-pickle envelope on every hop:
        # nothing to delta against, nothing cached, the cycle kept.
        assert _total(servers, "delta_hops") == 0
        assert _total(servers, "delta_full_reships") == 0
        assert all(len(s.serializer.delta_cache) == 0 for s in servers.values())


class TestDeltaOverTcp:
    def test_repeat_hops_ship_deltas_over_sockets(self):
        transport, servers = _tcp_space(_configs())
        try:
            nid = _journey(servers)
            assert _total(servers, "delta_hops") == len(ROUTE) - 1
            assert _total(servers, "delta_full_reships") == 0
            _assert_cache_lifetime(servers, nid)
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()

    def test_self_referential_naplet_travels_over_sockets(self):
        transport, servers = _tcp_space(_configs())
        try:
            _journey(servers, Ouroboros("ouroboros"))
            assert _total(servers, "delta_hops") == 0
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()

    def test_evicted_base_forces_full_reship_over_sockets(self):
        transport, servers = _tcp_space(_configs())
        try:
            _journey_with_evicted_base(servers)
        finally:
            for server in servers.values():
                server.shutdown()
            transport.close()
