"""Acceptance: one launch over a 4-host line yields a stitched journey tree
with a span per hop, a message-forward span, and a locator-lookup span —
and ``space_metrics()`` aggregates non-zero counters space-wide."""

from __future__ import annotations

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet

# The journal's per-kind tally: the one count of launches, hops, landings.
RECORDS = "naplet_journal_records_total"


class WaitAtLastStop(repro.Naplet):
    """Hops s01 -> s02 quickly, then waits for one message at s02."""

    def on_start(self):
        context = self.require_context()
        if context.hostname == "s02":
            message = context.messenger.get_message(timeout=10.0)
            self.state.set("got", message.body)
        self.travel()


class MessagingTourist(CollectorNaplet):
    """Tours like a collector; at s01 posts to state['target'] through a
    deliberately stale destination (s01 itself), forcing a forward hop."""

    def on_start(self):
        context = self.require_context()
        if context.hostname == "s01" and not self.state.get("posted"):
            self.state.set("posted", True)
            context.messenger.post_message(
                "naplet://s01", self.state.get("target"), "ping"
            )
        super().on_start()


def _tour(agent, route):
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
    )
    return agent


class TestJourneyTree:
    def test_seq_tour_has_one_span_per_hop_with_nested_landings(self, small_line):
        _network, servers = small_line
        admin = SpaceAdmin(servers)
        listener = repro.NapletListener()
        agent = _tour(CollectorNaplet("tour"), ["s01", "s02", "s03"])
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        assert listener.next_report(timeout=10).payload == ["s01", "s02", "s03"]
        assert servers["s00"].wait_idle() and servers["s03"].wait_idle()
        # The sending side records its hop span after the landing completes;
        # wait for all three to surface before stitching.
        assert wait_until(lambda: len(admin.journey(nid).find("hop")) >= 3)

        journey = admin.journey(nid)
        # One root: the launch span recorded at the home server.
        assert len(journey.roots) == 1
        root = journey.roots[0].span
        assert root.name == "launch"
        assert root.server == "s00"
        assert root.attr("naplet") == str(nid)

        hops = journey.find("hop")
        assert [(h.attr("source"), h.attr("dest")) for h in hops] == [
            ("s00", "naplet://s01"),
            ("s01", "naplet://s02"),
            ("s02", "naplet://s03"),
        ]
        for hop in hops:
            assert hop.duration > 0.0
            assert hop.attr("bytes") > 0

        # Every hop has its landing nested beneath it, recorded at the
        # destination server.
        hop_nodes = [n for n in journey.nodes() if n.span.name == "hop"]
        for node in hop_nodes:
            landings = [c.span for c in node.children if c.span.name == "landing"]
            assert len(landings) == 1
            assert node.span.attr("dest") == f"naplet://{landings[0].server}"

        # The ResultReport post-action (attached to the last visit) ran at
        # s03 and joined the tree.
        post = journey.find("post-action")
        assert [p.server for p in post] == ["s03"]
        assert post[0].attr("visit") == "s03"

        # The rendering is a usable ASCII tree.
        text = journey.render()
        assert text.count("hop") >= 3
        assert "landing" in text

    def test_journey_includes_message_forward_and_locator_lookup(self, small_line):
        _network, servers = small_line
        admin = SpaceAdmin(servers)
        target_listener = repro.NapletListener()
        target = _tour(WaitAtLastStop("target"), ["s01", "s02"])
        target_nid = servers["s00"].launch(target, owner="bob", listener=target_listener)
        assert wait_until(lambda: servers["s02"].manager.is_resident(target_nid))

        listener = repro.NapletListener()
        tourist = _tour(MessagingTourist("tourist"), ["s01", "s03"])
        tourist.state.set("target", target_nid)
        nid = servers["s00"].launch(tourist, owner="alice", listener=listener)
        assert listener.next_report(timeout=10).payload == ["s01", "s03"]
        target_listener.next_report(timeout=10)
        assert wait_until(
            lambda: bool(admin.journey(nid).find("message-forward"))
            and len(admin.journey(nid).find("hop")) >= 2
        )

        journey = admin.journey(nid)
        sends = journey.find("message-send")
        assert len(sends) == 1
        send = sends[0]
        assert send.server == "s01"
        assert send.attr("target") == str(target_nid)

        send_node = next(n for n in journey.nodes() if n.span.name == "message-send")
        child_names = {c.span.name for c in send_node.children}
        # The lookup happened on the sending server; the forward hop was
        # recorded at s01's messenger when it chased the departed target.
        assert "locator-lookup" in child_names
        assert "message-forward" in child_names
        forward = next(c.span for c in send_node.children if c.span.name == "message-forward")
        assert forward.server == "s01"
        assert forward.attr("next_hop") == "naplet://s02"
        lookup = next(c.span for c in send_node.children if c.span.name == "locator-lookup")
        assert lookup.attr("resolved") == "naplet://s01"


class TestSpaceMetrics:
    def test_space_metrics_aggregates_nonzero_counters(self, small_line):
        _network, servers = small_line
        admin = SpaceAdmin(servers)
        listener = repro.NapletListener()
        target_listener = repro.NapletListener()
        target = _tour(WaitAtLastStop("target"), ["s01", "s02"])
        target_nid = servers["s00"].launch(target, owner="bob", listener=target_listener)
        assert wait_until(lambda: servers["s02"].manager.is_resident(target_nid))
        tourist = _tour(MessagingTourist("tourist"), ["s01", "s03"])
        tourist.state.set("target", target_nid)
        servers["s00"].launch(tourist, owner="alice", listener=listener)
        listener.next_report(timeout=10)
        target_listener.next_report(timeout=10)
        admin.wait_space_idle()
        # Source-side hop records flush after the destination goes idle.
        assert wait_until(
            lambda: admin.space_metrics().value(RECORDS, kind="hop") >= 4
        )

        merged = admin.space_metrics()
        assert merged.value(RECORDS, kind="naplet-launch") == 2
        assert merged.value(RECORDS, kind="hop") >= 4
        assert merged.value(RECORDS, kind="landing") >= 4
        assert merged.total("naplet_messages_delivered_total") >= 1
        assert merged.total("naplet_messages_forwarded_total") >= 1
        assert merged.total("wire_bytes_total") > 0
        assert merged.total("wire_frames_total") > 0
        # Hop latency histogram saw every hop.
        assert merged.value("naplet_hop_latency_seconds").count >= 4

    def test_per_server_counters_attribute_work_locally(self, small_line):
        _network, servers = small_line
        listener = repro.NapletListener()
        agent = _tour(CollectorNaplet("tour"), ["s01", "s02", "s03"])
        servers["s00"].launch(agent, owner="alice", listener=listener)
        listener.next_report(timeout=10)
        assert servers["s03"].wait_idle()
        assert wait_until(lambda: servers["s02"].journal.count("hop") == 1)

        assert servers["s00"].journal.count("naplet-launch") == 1
        assert servers["s00"].journal.count("hop") == 1  # home -> s01 only
        assert servers["s01"].journal.count("landing") == 1
        assert servers["s02"].journal.count("hop") == 1
        assert servers["s03"].journal.count("landing") == 1
        # Landing depth observed at the last server covers the whole tour.
        depth = servers["s03"].telemetry.itinerary_depth.value()
        assert depth.count == 1
