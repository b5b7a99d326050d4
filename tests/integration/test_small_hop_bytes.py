"""What a small hop ships: each thing once, and compactly.

A counter-only naplet tours a ring of three servers for 12 hops, after one
warm-up tour with the same plan.  Its per-field images never carry the
credential (the transfer frame's payload does), the itinerary's plan ships
on the launch hop only and is referenced or omitted after that, and every
transfer frame stays inside a byte budget a full itinerary, a second
credential, a keyed envelope or a re-shipped navigation log would break.
A 48-hop tour's last lap ships no more field bytes, and no more envelope
bytes than a segment number's extra digit, than a 12-hop one's: the log
ships only its new visits, and a lap hop pickles only the fields that
changed.
"""

from __future__ import annotations

import repro
from repro.core.naplet_id import NapletID
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, ring
from repro.transport.base import FrameKind
from repro.transport.serializer import NapletSerializer
from tests.transport.envelopes import read_envelope

ROUTE = ["s01", "s02", "s00"] * 4  # 12 hops round the ring, the last one home
LAUNCH_BUDGET = 2400  # bytes: the launch hop also ships the plan
HOP_BUDGET = 1250  # bytes: every later hop (the first lap's reach 1 199)
DIGITS = 2  # envelope bytes a longer tour may add: segment numbers' digits


class CounterNaplet(repro.Naplet):
    """Counts its landings and travels on."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.count = 0

    def on_start(self) -> None:
        self.count += 1
        self.travel()


def _tour(servers, listener, route=ROUTE) -> str:
    agent = CounterNaplet("counter")
    agent.set_itinerary(Itinerary(SeqPattern.of_servers(route, post_action=ResultReport())))
    nid = servers["s00"].launch(agent, owner="alice", listener=listener)
    listener.next_report(timeout=10)
    assert SpaceAdmin(servers).wait_space_idle(timeout=10)
    return str(nid)


def _offered(servers) -> list:
    """Every transfer frame any of *servers* is offered, in order."""
    frames = []
    for server in servers.values():
        land = server.navigator.handle_transfer
        server.navigator.handle_transfer = (
            lambda frame, land=land: frames.append(frame) or land(frame)
        )
    return frames


def _lap_bytes(frame) -> tuple[int, int]:
    """A transfer's envelope and field bytes: what a growing log would grow
    (headers name counters — transfer ids, clocks — that lengthen with any
    long run)."""
    return len(frame.buffers[0]), sum(len(segment) for segment in frame.buffers[1:])


def test_a_small_hop_ships_what_changed_once():
    network = VirtualNetwork(ring(3, prefix="s"))
    servers = deploy(network)
    try:
        frames = _offered(servers)
        listener = repro.NapletListener()
        warm_up = _tour(servers, listener)
        frames.clear()
        nid = _tour(servers, listener)

        assert len(frames) == len(ROUTE)
        envelopes = [read_envelope(f.buffers[0], f.buffers[1:]) for f in frames]
        for envelope in envelopes:
            assert "_cred" not in envelope["fields"] and "_cred" not in envelope.get("refs", {})
        images = [
            s.manager.footprint(NapletID.parse(key)).image
            for s in servers.values() for key in (warm_up, nid)
        ]
        assert all("_cred" not in image.keys for image in images)
        launch, *later = zip(frames, envelopes)
        assert "_plan" in launch[1]["fields"] and launch[0].size <= LAUNCH_BUDGET
        for frame, envelope in later:
            assert "_plan" not in envelope["fields"]
            assert frame.size <= HOP_BUDGET
        assert sum(int(s.telemetry.delta_full_reships.total()) for s in servers.values()) == 0
    finally:
        network.shutdown()


def test_a_hops_log_bytes_stop_growing_with_the_tour():
    network = VirtualNetwork(ring(3, prefix="s"))
    servers = deploy(network)
    try:
        frames = _offered(servers)
        listener = repro.NapletListener()
        _tour(servers, listener)
        frames.clear()
        _tour(servers, listener)
        short_lap = [_lap_bytes(frame) for frame in frames[-3:]]
        frames.clear()
        _tour(servers, listener, ROUTE * 4)
        assert len(frames) == 4 * len(ROUTE)
        long_lap = [_lap_bytes(frame) for frame in frames[-3:]]
        for (long_envelope, long_fields), (envelope, fields) in zip(long_lap, short_lap):
            assert long_fields <= fields, (long_lap, short_lap)
            assert long_envelope <= envelope + DIGITS, (long_lap, short_lap)
    finally:
        network.shutdown()


def test_a_lap_hop_pickles_only_what_changed(monkeypatch):
    """Fields that cannot have changed are not re-pickled (nor re-hashed)
    on any hop after the launch: the plan and the frozen listener and trace
    refs by stability, the id and address book by fingerprint."""
    network = VirtualNetwork(ring(3, prefix="s"))
    servers = deploy(network)
    try:
        listener = repro.NapletListener()
        _tour(servers, listener)
        pickled: dict[str, int] = {}
        real = NapletSerializer._pickle_field

        def spy(self, root, name, value):
            pickled[name] = pickled.get(name, 0) + 1
            return real(self, root, name, value)

        monkeypatch.setattr(NapletSerializer, "_pickle_field", spy)
        _tour(servers, listener)
        for name in ("_plan", "_listener", "_trace_ctx", "_nid", "_address_book"):
            assert pickled[name] == 1, name  # the launch hop's image
        for name in ("_itinerary", "_nav_log", "count"):
            assert pickled[name] == len(ROUTE), name  # changed on every hop
        # Each closed log segment is pickled once, where it closed.
        assert {n: c for n, c in pickled.items() if n.startswith("_nav_log") and n != "_nav_log"} == {
            "_nav_log0": 1, "_nav_log1": 1,
        }
    finally:
        network.shutdown()


def test_a_hop_is_one_round_trip_and_names_its_source_once(monkeypatch):
    """The directory adds no round trip to a hop: a landing registers
    one-way, and only where neither end of the hop hosts the naplet's home
    directory; the transfer frame does not repeat its source."""
    network = VirtualNetwork(ring(3, prefix="s"))
    servers = deploy(network)
    try:
        frames = _offered(servers)
        sent = []
        send = network.transport.send
        monkeypatch.setattr(
            network.transport, "send", lambda frame: sent.append(frame) or send(frame)
        )
        listener = repro.NapletListener()
        _tour(servers, listener)

        home = "naplet://s00"
        hops = list(zip(["s00", *ROUTE], ROUTE))
        neither = [hop for hop in hops if "s00" not in hop]
        registrations = [f for f in sent if f.kind == FrameKind.DIRECTORY_EVENT]
        assert len(registrations) == len(neither) == network.transport.meter.kind_stats(
            FrameKind.DIRECTORY_EVENT
        ).frames
        assert network.transport.meter.kind_stats(FrameKind.DIRECTORY_EVENT + "-reply").frames == 0
        for frame in registrations:
            assert frame.dest == home and frame.size <= 70 and not frame.headers
        assert len(frames) == len(hops)
        for frame in frames:
            assert "trace-id" not in frame.headers
            assert "://" not in frame.headers["transfer-id"]
    finally:
        network.shutdown()
