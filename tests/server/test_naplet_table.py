"""The naplet table: one record per naplet, its states and its bound."""

from __future__ import annotations

import sys
import threading

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern, seq
from repro.server import SpaceAdmin
from repro.server import manager as manager_module
from repro.simnet import line
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, StallNaplet


def _one_hop(servers, listener):
    agent = CollectorNaplet("once")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(["s01"], post_action=ResultReport("visited")))
    )
    nid = servers["s00"].launch(agent, owner="alice", listener=listener)
    assert listener.next_report(timeout=10).payload == ["s01"]
    return nid


class TestFootprintBound:
    def test_footprints_forget_the_oldest_past_the_cap(self, space, monkeypatch):
        monkeypatch.setattr(manager_module, "_FOOTPRINT_CAPACITY", 3)
        _network, servers = space(line(2, prefix="s"))
        listener = repro.NapletListener()
        nids = [_one_hop(servers, listener) for _ in range(5)]
        s01 = servers["s01"]
        assert wait_until(lambda: s01.journal.count("naplet-retired") == 5)
        assert len(s01.manager.footprints()) == 3
        assert s01.manager.footprint(nids[0]) is None
        assert len(servers["s00"].manager.footprints()) == 3
        trace = SpaceAdmin(servers).trace(nids[-1])
        assert [fp.departed_to for fp in trace] == ["naplet://s01", None]
        assert trace[-1].outcome == "completed"

    def test_a_live_record_is_never_forgotten(self, space, monkeypatch):
        monkeypatch.setattr(manager_module, "_FOOTPRINT_CAPACITY", 1)
        _network, servers = space(line(2, prefix="s"))
        sitter = StallNaplet("sitter", spin_seconds=30.0)
        sitter.set_itinerary(Itinerary(seq("s01")))
        sitter_id = servers["s00"].launch(sitter, owner="alice")
        s01 = servers["s01"]
        assert wait_until(lambda: s01.manager.is_resident(sitter_id))
        listener = repro.NapletListener()
        for _ in range(3):
            _one_hop(servers, listener)
        assert wait_until(lambda: s01.journal.count("naplet-retired") == 3)
        assert s01.manager.is_resident(sitter_id)
        assert len(s01.manager.footprints()) == 2  # the sitter and the newest
        servers["s00"].terminate_naplet(sitter_id)
        assert s01.wait_idle(10)


class TestViews:
    def test_usage_is_visible_while_resident_and_gone_after_retirement(self, space):
        _network, servers = space(line(2, prefix="s"))
        sitter = StallNaplet("sitter", spin_seconds=30.0)
        sitter.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(sitter, owner="alice")
        manager = servers["s01"].manager
        assert wait_until(lambda: manager.control_block(nid) is not None)
        assert nid in manager.usage_table()
        servers["s00"].terminate_naplet(nid)
        assert wait_until(lambda: getattr(manager.footprint(nid), "outcome", None) == "terminated")
        assert manager.control_block(nid) is None
        assert nid not in manager.usage_table()


class Gatherer(repro.Naplet):
    """Reads its mailbox dry at every stop; at its last stop it waits until
    it has read *expected* messages in all, then reports what it read."""

    def __init__(self, name: str, stops: int, expected: int) -> None:
        super().__init__(name)
        self.stops, self.expected = stops, expected

    def on_start(self) -> None:
        messenger = self.require_context().messenger
        seen = self.state.get("seen") or []
        while (message := messenger.poll_message()) is not None:
            seen.append(message.body)
        while len(self.navigation_log) == self.stops and len(seen) < self.expected:
            seen.append(messenger.get_message(timeout=10.0).body)
        self.state.set("seen", seen)
        self.travel()


class TestConcurrentHandOver:
    def test_messages_racing_a_tour_arrive_once_each(self, space):
        """Senders on more threads than cores post to a touring naplet:
        every hand-over, park, forward and chase races a landing or a
        departure, and each message is still read once."""
        _network, servers = space(line(8, prefix="s"))
        senders, per_sender, stops = 6, 30, 7
        route = [f"s0{n}" for n in range(1, stops + 1)]
        agent = Gatherer("gatherer", stops, senders * per_sender)
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("seen")))
        )
        listener = repro.NapletListener()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            nid = servers["s00"].launch(agent, owner="alice", listener=listener)

            def send(sender: int) -> None:
                for i in range(per_sender):
                    servers["s00"].messenger.post(None, nid, (sender, i))

            threads = [threading.Thread(target=send, args=(n,)) for n in range(senders)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            seen = listener.next_report(timeout=30).payload
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == [(n, i) for n in range(senders) for i in range(per_sender)]
