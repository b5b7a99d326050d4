"""What a small hop ships: each thing once, and compactly.

A counter-only naplet tours a ring of three servers for 12 hops, after one
warm-up tour with the same plan.  Its per-field images never carry the
credential (the transfer frame's payload does), the itinerary's plan ships
on the launch hop only and is referenced or omitted after that, and every
transfer frame stays inside a byte budget a full itinerary, a second
credential and field-dict ids would break.
"""

from __future__ import annotations

import pickle

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, ring

ROUTE = ["s01", "s02", "s00"] * 4  # 12 hops round the ring, the last one home
LAUNCH_BUDGET = 2400  # bytes: the launch hop also ships the plan
HOP_BUDGET = 1600  # bytes: every later hop


class CounterNaplet(repro.Naplet):
    """Counts its landings and travels on."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.count = 0

    def on_start(self) -> None:
        self.count += 1
        self.travel()


def _tour(servers, listener) -> str:
    agent = CounterNaplet("counter")
    agent.set_itinerary(Itinerary(SeqPattern.of_servers(ROUTE, post_action=ResultReport())))
    nid = servers["s00"].launch(agent, owner="alice", listener=listener)
    listener.next_report(timeout=10)
    assert SpaceAdmin(servers).wait_space_idle(timeout=10)
    return str(nid)


def test_a_small_hop_ships_what_changed_once():
    network = VirtualNetwork(ring(3, prefix="s"))
    servers = deploy(network)
    try:
        frames = []
        for server in servers.values():
            land = server.navigator.handle_transfer
            server.navigator.handle_transfer = (
                lambda frame, land=land: frames.append(frame) or land(frame)
            )
        listener = repro.NapletListener()
        warm_up = _tour(servers, listener)
        frames.clear()
        nid = _tour(servers, listener)

        assert len(frames) == len(ROUTE)
        envelopes = [pickle.loads(f.buffers[0], buffers=f.buffers[1:]) for f in frames]
        for envelope in envelopes:
            assert "_cred" not in envelope["fields"] and "_cred" not in envelope.get("refs", {})
        records = [
            s.serializer.delta_cache.peek(key) for s in servers.values() for key in (warm_up, nid)
        ]
        assert all("_cred" not in r.fields for r in records if r is not None)
        launch, *later = zip(frames, envelopes)
        assert "_plan" in launch[1]["fields"] and launch[0].size <= LAUNCH_BUDGET
        for frame, envelope in later:
            assert "_plan" not in envelope["fields"]
            assert frame.size <= HOP_BUDGET
        assert sum(int(s.telemetry.delta_full_reships.total()) for s in servers.values()) == 0
    finally:
        network.shutdown()
