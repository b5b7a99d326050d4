"""Trace contexts must survive everything a naplet survives: pickling,
freeze/thaw revival, and multi-hop message forwarding chains."""

from __future__ import annotations

import pickle

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin
from repro.telemetry.journal import span_from_record
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet
from tests.integration.test_freeze_thaw import FreezableCollector
from tests.telemetry.test_journey_integration import MessagingTourist, _tour


class SlowTourist(CollectorNaplet):
    """Collector that lingers at every stop so posts can chase it."""

    def on_start(self):
        import time

        context = self.require_context()
        deadline = time.monotonic() + 0.4
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.005)
        super().on_start()


class TestPickleRoundtrip:
    def test_trace_context_travels_in_the_naplet_pickle(self):
        agent = CollectorNaplet("pickled")
        ctx = agent._ensure_trace()
        clone = pickle.loads(pickle.dumps(agent))
        assert clone.trace_context == ctx

    def test_unlaunched_naplet_has_no_trace(self):
        agent = CollectorNaplet("fresh")
        assert agent.trace_context is None


class TestFreezeThaw:
    def test_thawed_naplet_continues_the_same_trace(self, small_line):
        _network, servers = small_line
        admin = SpaceAdmin(servers)
        listener = repro.NapletListener()
        agent = FreezableCollector("freezer")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["s01", "s02", "s03"], post_action=ResultReport("visited")
                )
            )
        )
        nid = servers["s00"].launch(agent, owner="ops", listener=listener)
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        image = servers["s01"].freeze_naplet(nid)

        # The frozen image carries the trace context minted at launch.
        frozen = servers["s01"].serializer.loads(image, servers["s01"].code_cache)
        assert frozen.trace_context is not None
        (launch,) = [
            span_from_record(record)
            for record in servers["s00"].journal.records(
                kind="launch", category="span", naplet=str(nid)
            )
        ]
        assert frozen.trace_context.trace_id == launch.trace_id

        servers["s03"].thaw_naplet(image)
        # Revived at s03, the cursor still points at s02, then s03 again.
        assert listener.next_report(timeout=20).payload == ["s01", "s03", "s02", "s03"]
        assert admin.wait_space_idle()

        journey = admin.journey(nid)
        servers_in_trace = {span.server for span in journey.spans}
        assert {"s00", "s01", "s03"} <= servers_in_trace
        # The thaw landing has no migration frame, so it joins the journey
        # directly under the launch root.
        thaw_landings = [
            span
            for span in journey.find("landing")
            if span.server == "s03" and span.attr("arrived_from") is None
        ]
        assert len(thaw_landings) == 1
        assert thaw_landings[0].parent_id == launch.span_id


class TestForwardingChain:
    def test_chained_forwards_share_the_send_span_parent(self, small_line):
        _network, servers = small_line
        admin = SpaceAdmin(servers)

        # The target tours s01 -> s02 -> s03, lingering at every stop, so a
        # message posted to a stale s01 address has to be forwarded twice.
        target_listener = repro.NapletListener()
        target = _tour(SlowTourist("slow-target"), ["s01", "s02", "s03"])
        target_nid = servers["s00"].launch(
            target, owner="bob", listener=target_listener
        )
        assert wait_until(lambda: servers["s03"].manager.is_resident(target_nid))

        listener = repro.NapletListener()
        tourist = _tour(MessagingTourist("tourist"), ["s01", "s03"])
        tourist.state.set("target", target_nid)
        nid = servers["s00"].launch(tourist, owner="alice", listener=listener)
        listener.next_report(timeout=10)
        target_listener.next_report(timeout=10)
        assert wait_until(
            lambda: len(admin.journey(nid).find("message-forward")) >= 2
        )

        journey = admin.journey(nid)
        send = journey.find("message-send")[0]
        forwards = journey.find("message-forward")
        assert {f.server for f in forwards} == {"s01", "s02"}
        # Every forward in the chain hangs off the original send span, and
        # the hop counts climb as the message chases the target.
        assert {f.parent_id for f in forwards} == {send.span_id}
        assert sorted(f.attr("hops") for f in forwards) == [1, 2]
        assert {f.trace_id for f in forwards} == {send.trace_id}
