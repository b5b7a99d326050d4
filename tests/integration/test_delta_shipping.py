"""Delta state shipping end-to-end: repeat hops and the need_full recovery.

The unit suite (tests/transport/test_delta.py) proves the envelope
machinery; this file proves the *space-level* contract over both
transports:

- repeat hops between the same pair of servers ship deltas, and so do ring
  laps, the hop home and another naplet's first visit with the same cargo:
  a field crosses a link once;
- a destination that lost what a delta leans on mid-itinerary (blob
  eviction, restart, an image that is not what the sender believes) acks
  ``need_full`` and the sender re-ships the full image within the same hop;
- a naplet's image lives on its naplet-table record, cut to a manifest
  once it left or retired, and the blob store stays under its byte budget.
"""

from __future__ import annotations


import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.core.naplet_id import NapletID
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.perf import hop_cost_rows
from repro.server import NapletServer, ServerConfig, SpaceAdmin
from repro.simnet import VirtualNetwork, full_mesh, line
from repro.transport import delta
from repro.transport.delta import Image
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet
from tests.transport.envelopes import read_ack, read_envelope

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


def _journey(servers, agent=None, route=ROUTE) -> str:
    listener = repro.NapletListener()
    agent = agent or CollectorNaplet("courier")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
    )
    nid = servers["d00"].launch(agent, owner="alice", listener=listener)
    assert listener.next_report(timeout=30).payload == route
    # The report fires from the landing server before the *sender* of the
    # final hop finishes its ack bookkeeping (delta counters included):
    # drain the space before reading telemetry.
    SpaceAdmin(servers).wait_space_idle(timeout=10)
    return str(nid)


def _total(servers, counter: str) -> int:
    return int(sum(getattr(s.telemetry, counter).total() for s in servers.values()))


def _tally(servers, kind: str) -> int:
    return sum(s.journal.count(kind) for s in servers.values())


def _image(server, nid: str) -> Image | None:
    """*server*'s image of naplet *nid*, kept on its naplet-table record."""
    record = server.manager.footprint(NapletID.parse(nid))
    return None if record is None else record.image


def _blob(server, nid: str, key: str):
    """The blob *server*'s image of *nid* names for field key *key*."""
    image = _image(server, nid)
    return dict(zip(image.keys, image.blobs))[key]


def _assert_image_lifetime(servers, nid: str) -> None:
    """Retired at d00, departed from d01 and acked: each record keeps the
    manifest of its last image there — hashes and held blobs, none of the
    objects it was pickled from or decoded to."""
    for server in servers.values():
        image = _image(server, nid)
        assert image is not None and image.entries is None
        assert all(blob.hash in server.serializer.blobs for blob in image.blobs)


def _journey_with_evicted_base(servers) -> None:
    """While the naplet sits on d01 (hop 3), every other server loses its
    blobs; the next hop lands on d00, which no longer holds the base."""

    def evict_everywhere_else(current_host: str) -> None:
        for name, server in servers.items():
            if name != current_host:
                server.serializer.blobs.clear()

    _SABOTAGE.update(hook=evict_everywhere_else, at=3)
    try:
        _journey(servers, SaboteurCourier("chaos-courier"))
    finally:
        _SABOTAGE.clear()
    # The sender still believed in its base, the receiver had lost it:
    # exactly one need_full round trip, then delta shipping resumed.
    assert _tally(servers, "delta-full-reship") == 1
    # Hops #1 (first image) and #4 (the need_full reship) are full; the
    # reship's landing re-seeds both ends before the naplet runs again,
    # so every later hop is a delta.
    assert _total(servers, "delta_hops") == len(ROUTE) - 2


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
        assert _tally(servers, "delta-full-reship") == 0
        _assert_image_lifetime(servers, nid)

    def test_evicted_base_forces_transparent_full_reship(self, memory_space):
        _journey_with_evicted_base(self._attach(memory_space, _configs()))

    def test_self_referential_naplet_travels_as_one_pickle(self, memory_space):
        servers = self._attach(memory_space, _configs())
        _journey(servers, Ouroboros("ouroboros"))
        # The input selected the single-pickle envelope on every hop:
        # nothing to delta against, nothing kept, the cycle kept.
        assert _total(servers, "delta_hops") == 0
        assert _tally(servers, "delta-full-reship") == 0
        assert all(s.serializer.blobs.nbytes == 0 for s in servers.values())


class TestDeltaOverTcp:
    def test_repeat_hops_ship_deltas_over_sockets(self):
        transport, servers = _tcp_space(_configs())
        try:
            nid = _journey(servers)
            assert _total(servers, "delta_hops") == len(ROUTE) - 1
            assert _tally(servers, "delta-full-reship") == 0
            _assert_image_lifetime(servers, nid)
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


# --------------------------------------------------------------------- #
# A field crosses a link once: rings, the hop home, the next naplet
# --------------------------------------------------------------------- #

CARGO = bytes(range(256)) * 4096  # 1 MiB
RING = ["d01", "d02", "d03"] * 3


class Courier(CollectorNaplet):
    def __init__(self, name: str, cargo: bytes = CARGO) -> None:
        super().__init__(name)
        self.cargo = cargo


@pytest.fixture(params=["inmemory", "tcp"])
def ring_space(request):
    """Factory ``(configs=None) -> servers`` d00..d03, every pair linked."""
    cleanups = []

    def _build(configs: dict[str, ServerConfig] | None = None):
        names = [f"d{i:02d}" for i in range(4)]
        by_name = {name: (configs or {}).get(name, ServerConfig()) for name in names}
        if request.param == "inmemory":
            network = VirtualNetwork(full_mesh(4, prefix="d"))
            cleanups.append(network.shutdown)
            return {
                name: NapletServer.attach(network.host(name), config)
                for name, config in by_name.items()
            }
        transport, servers = _tcp_space(by_name)
        cleanups.extend([transport.close, *(s.shutdown for s in servers.values())])
        return servers

    yield _build
    for cleanup in reversed(cleanups):
        cleanup()


def _hop_costs(servers, nid: str) -> list[dict]:
    """The journey's hop-cost rows (its hop spans), in hop order."""
    return hop_cost_rows(SpaceAdmin(servers).harvest_journal(kind="hop"), naplet=nid)


def _transfer_envelopes(server) -> list[dict]:
    """Record the image envelope of every transfer *server* is offered,
    with the ack it answered under key ``"ack"``."""
    envelopes: list[dict] = []
    landing = server.navigator.handle_transfer

    def spy(frame):
        envelope = read_envelope(frame.buffers[0], frame.buffers[1:])
        envelopes.append(envelope)
        reply = landing(frame)
        envelope["ack"] = read_ack(reply)
        return reply

    server.navigator.handle_transfer = spy
    return envelopes


class TestAFieldCrossesALinkOnce:
    def test_ring_laps_ship_references_not_bulk(self, ring_space):
        servers = ring_space()
        nid = _journey(servers, Courier("ring-courier"), route=RING)
        hops = _hop_costs(servers, nid)
        assert len(hops) == len(RING)
        # The launch and the first lap over the ring's three links pay for
        # the cargo; from the second lap on no hop does.
        first_lap, later = hops[:4], hops[4:]
        assert all(not h["delta"] and h["total_bytes"] > len(CARGO) for h in first_lap)
        assert all(h["delta"] and h["saved_bytes"] >= len(CARGO) for h in later)
        assert all(h["total_bytes"] < len(CARGO) / 10 for h in later)
        assert _total(servers, "delta_hops") == len(later)
        assert _tally(servers, "delta-full-reship") == 0

    def test_the_hop_home_omits_the_cargo(self, ring_space):
        servers = ring_space()
        home = _transfer_envelopes(servers["d00"])
        nid = _journey(servers, Courier("homing"), route=["d01", "d02", "d01", "d00"])
        hops = _hop_costs(servers, nid)
        # d01 learnt what d00 holds from the launch image d00 shipped it.
        assert hops[3]["delta"] and hops[3]["saved_bytes"] >= len(CARGO)
        (envelope,) = home
        assert envelope["omitted"] is True and "cargo" not in envelope["fields"]
        assert "cargo" not in envelope["refs"] and "base" not in envelope
        # The ack says it landed (and which code is cached): what the peer
        # now holds is what the sender shipped, which the sender knows.
        assert set(envelope["ack"]) == {"ok", "code"}
        assert _tally(servers, "delta-full-reship") == 0

    def test_next_naplet_references_cargo_a_server_holds_under_another_record(
        self, ring_space
    ):
        servers = ring_space()
        # Every server the naplet passed through keeps its manifest.
        route = ["d01", "d02", "d03", "d00"]
        first = _journey(servers, Courier("first"), route=route)
        offered = _transfer_envelopes(servers["d02"])
        second = _journey(servers, Courier("second"), route=route)
        hops = _hop_costs(servers, second)
        # No previous image at the launcher: the launch ships in full.
        assert not hops[0]["delta"] and hops[0]["total_bytes"] > len(CARGO)
        # d02 never saw this naplet, but d01 knows it holds these bytes.
        assert hops[1]["delta"] and hops[1]["saved_bytes"] >= len(CARGO)
        (envelope,) = offered
        assert "omitted" not in envelope and "cargo" not in envelope["fields"]
        d02 = servers["d02"]
        assert envelope["refs"]["cargo"] == _blob(d02, first, "=cargo").hash
        assert _blob(d02, second, "=cargo").data is _blob(d02, first, "=cargo").data
        assert _tally(servers, "delta-full-reship") == 0


def _sabotaged_ping_pong(servers, sabotage, other_landings: int = 0) -> None:
    """Ping-pong d00<->d01; while the naplet sits on d00 after hop 2,
    *sabotage* what d01 holds.  Hop 3 must land through one full re-ship."""
    agent = SaboteurCourier("victim")
    agent.cargo = b"\x5a" * 50_000
    # Launching gave the original its id before the first hop left.
    _SABOTAGE.update(hook=lambda _host: sabotage(servers, str(agent.naplet_id)), at=2)
    try:
        _journey(servers, agent)
    finally:
        _SABOTAGE.clear()
    # Landed exactly once per hop, through exactly one in-hop re-ship.
    assert _tally(servers, "delta-full-reship") == 1
    assert _tally(servers, "landing") == len(ROUTE) + other_landings
    assert _tally(servers, "duplicate-transfer") == 0
    assert _tally(servers, "migration-retry") == 0
    assert _total(servers, "delta_hops") == len(ROUTE) - 2


def _corrupt_a_cached_hash(servers, nid: str) -> None:
    """d01's image names other bytes for the cargo than the sender believes."""
    d01 = servers["d01"]
    record, cargo = d01.manager.footprint(NapletID.parse(nid)), _blob(d01, nid, "=cargo")
    (other,) = d01.serializer.blobs.name([delta.Blob(delta.content_hash(b"other"), b"other")])
    kept = record.image
    blobs = tuple(other if blob is cargo else blob for blob in kept.blobs)
    record.image = Image(kept.hash, kept.cls_ref, kept.keys, blobs)


def _drop_the_record(servers, nid: str) -> None:
    manager = servers["d01"].manager
    manager.keep_image(manager.footprint(NapletID.parse(nid)), None)


def _evict_through_a_capacity_one_cache(servers, nid: str) -> None:
    """A filler's cargo lands at d01 and pushes the victim's out of its
    byte budget."""
    cargo = _blob(servers["d01"], nid, "=cargo")
    filler = CollectorNaplet("filler")
    filler.cargo = b"\x17" * 60_000
    filler.set_itinerary(Itinerary(SeqPattern.of_servers(["d01"])))
    servers["d00"].launch(filler, owner="bob")
    assert wait_until(lambda: cargo.hash not in servers["d01"].serializer.blobs, timeout=10)


class TestAWrongHintCostsOneFullReship:
    """What the destination holds is not what the sender believes: the hop
    still lands, once, through ``need_full`` — never a rejection to retry."""

    @pytest.mark.parametrize(
        "sabotage", [_corrupt_a_cached_hash, _drop_the_record], ids=["hash", "record"]
    )
    def test_record_that_does_not_compose_or_is_gone(self, ring_space, sabotage):
        _sabotaged_ping_pong(ring_space(), sabotage)

    def test_capacity_one_cache_at_the_destination(self, ring_space, monkeypatch):
        # Room for one cargo: the filler's evicts the victim's.
        monkeypatch.setattr(delta, "BLOB_BUDGET", 100_000)
        servers = ring_space()
        _sabotaged_ping_pong(servers, _evict_through_a_capacity_one_cache, other_landings=1)


class TestOneLifetimePerImage:
    """A naplet's image lives on its naplet-table record: cut to a manifest
    when the naplet leaves or retires, its bytes held once, under the
    blob store's byte budget."""

    def test_one_shot_couriers_leave_at_most_the_budget(self, ring_space, monkeypatch):
        monkeypatch.setattr(delta, "BLOB_BUDGET", 1 << 20)
        servers = ring_space()
        cargos = [bytes([n]) * (256 << 10) for n in range(8)]  # 2 MiB in all
        nids = [
            _journey(servers, Courier(f"one-shot-{n}", cargo), route=["d01", "d02"])
            for n, cargo in enumerate(cargos)
        ]
        for server in servers.values():
            assert server.serializer.blobs.nbytes <= delta.BLOB_BUDGET
        # Every courier keeps its footprint and manifest; the eldest cargo
        # is what went.
        assert all(_image(servers["d02"], nid) is not None for nid in nids)
        assert _blob(servers["d01"], nids[0], "=cargo").hash not in servers["d01"].serializer.blobs
        assert _blob(servers["d01"], nids[-1], "=cargo").hash in servers["d01"].serializer.blobs
        # What the retired couriers share stays held: no hop asked again.
        assert _tally(servers, "delta-full-reship") == 0

    def test_bytes_held_only_under_a_retired_naplet_resolve_by_reference(self, ring_space):
        servers = ring_space()
        first = _journey(servers, Courier("first"), route=["d01", "d02"])  # retires at d02
        assert _image(servers["d02"], first).entries is None
        offered = _transfer_envelopes(servers["d02"])
        second = _journey(servers, Courier("second"), route=["d01", "d02"])
        (envelope,) = offered
        assert envelope["refs"]["cargo"] == _blob(servers["d02"], first, "=cargo").hash
        assert envelope["ack"]["ok"] is True
        hops = _hop_costs(servers, second)
        assert hops[1]["delta"] and hops[1]["saved_bytes"] >= len(CARGO)
        assert _tally(servers, "delta-full-reship") == 0
        assert _tally(servers, "delta-need-full") == 0

    def test_a_hop_back_to_a_manifest_omits_the_unchanged_fields(self, ring_space):
        servers = ring_space()
        d01 = servers["d01"]
        agent = SaboteurCourier("boomerang")
        agent.cargo = CARGO
        bases: list = []
        landing = d01.navigator.handle_transfer

        def base_then_land(frame):
            bases.append(_image(d01, read_envelope(frame.buffers[0], frame.buffers[1:])["nid"]))
            return landing(frame)

        def buried_at_d01(_host: str) -> None:  # at d02, before the hop back
            record = lambda: d01.manager.footprint(agent.naplet_id)  # noqa: E731
            assert wait_until(lambda: record().state == "departed", timeout=10)

        d01.navigator.handle_transfer = base_then_land
        offered = _transfer_envelopes(d01)
        _SABOTAGE.update(hook=buried_at_d01, at=2)
        try:
            nid = _journey(servers, agent, route=["d01", "d02", "d01", "d00"])
        finally:
            _SABOTAGE.clear()
        # The hop back found d01's record buried: a manifest, no values.
        assert bases[0] is None and bases[1].entries is None
        envelope = offered[1]
        assert envelope["omitted"] is True and "cargo" not in envelope["fields"]
        assert envelope["ack"]["ok"] is True
        hops = _hop_costs(servers, nid)
        assert hops[2]["delta"] and hops[2]["saved_bytes"] >= len(CARGO)
        assert _tally(servers, "delta-full-reship") == 0
