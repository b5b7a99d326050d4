"""InMemoryTransport: delivery, ledger booking, clock accounting, its fault plan."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import NapletCommunicationError
from repro.faults import FaultPlan
from repro.transport.base import Frame, FrameKind
from repro.transport.clock import SimClock
from repro.transport.inmemory import InMemoryTransport
from repro.transport.latency import UniformLatency


def _frame(src="naplet://a", dst="naplet://b", payload=b"hello", kind=FrameKind.MESSAGE):
    return Frame(kind=kind, source=src, dest=dst, payload=payload)


@pytest.fixture
def transport():
    t = InMemoryTransport(
        latency=UniformLatency(latency=0.01),
        clock=SimClock(scale=0.0),
    )
    received = []
    t.register("naplet://b", lambda f: pickle.dumps(("echo", len(f.payload))))
    t.register("naplet://sink", lambda f: received.append(f) or None)
    t.received = received  # type: ignore[attr-defined]
    return t


class TestDelivery:
    def test_send_invokes_handler(self, transport):
        transport.send(_frame(dst="naplet://sink"))
        assert len(transport.received) == 1
        assert transport.received[0].payload == b"hello"

    def test_request_returns_reply(self, transport):
        reply = transport.request(_frame())
        assert pickle.loads(reply) == ("echo", 5)

    def test_request_without_reply_raises(self, transport):
        with pytest.raises(NapletCommunicationError):
            transport.request(_frame(dst="naplet://sink"))

    def test_unknown_destination_raises(self, transport):
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame(dst="naplet://nowhere"))


class TestMetering:
    def test_send_metered_once(self, transport):
        transport.send(_frame(dst="naplet://sink"))
        assert transport.meter.total_frames == 1
        assert transport.meter.link("a", "sink").bytes > 0

    def test_request_meters_both_directions(self, transport):
        transport.request(_frame())
        assert transport.meter.total_frames == 2
        assert transport.meter.link("a", "b").frames == 1
        assert transport.meter.link("b", "a").frames == 1

    def test_clock_advances_by_model_delay(self, transport):
        transport.send(_frame(dst="naplet://sink"))
        assert transport.clock.virtual_time == pytest.approx(0.01)
        transport.request(_frame())
        # +0.01 out, +0.01 reply
        assert transport.clock.virtual_time == pytest.approx(0.03)

    def test_kind_stats(self, transport):
        transport.send(_frame(dst="naplet://sink"))
        stats = transport.meter.kind_stats(FrameKind.MESSAGE)
        assert stats.frames == 1


class TestFaults:
    """The transport's fault plan, on a bare in-memory transport."""

    def test_failed_link_blocks_both_ways(self, transport):
        transport.fault_plan = (
            FaultPlan().refuse_dial(src="a", dst="b").refuse_dial(src="b", dst="a")
        )
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame(src="naplet://b", dst="naplet://a"))

    def test_asymmetric_failure(self, transport):
        transport.fault_plan = FaultPlan().refuse_dial(src="a", dst="b")
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        transport.register("naplet://a", lambda f: None)
        transport.send(_frame(src="naplet://b", dst="naplet://a"))  # reverse ok

    def test_a_healed_plan_lets_frames_through(self, transport):
        transport.fault_plan = plan = FaultPlan().refuse_dial(src="a", dst="b")
        plan.heal()
        transport.request(_frame())  # works again

    def test_a_partition_fails_requests_and_loses_sends(self, transport):
        transport.fault_plan = plan = FaultPlan().partition("b")
        with pytest.raises(NapletCommunicationError):
            transport.request(_frame())
        transport.send(_frame())  # one-way loss is silent
        plan.heal_host("b")
        transport.request(_frame())

    def test_failures_not_metered(self, transport):
        transport.fault_plan = FaultPlan().refuse_dial(src="a", dst="b").partition("sink")
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        transport.send(_frame(dst="naplet://sink"))
        assert transport.meter.total_frames == 0 and transport.received == []

    def test_a_delay_advances_the_clock_not_the_wall(self, transport):
        transport.fault_plan = FaultPlan().delay(30.0, times=1)
        transport.send(_frame(dst="naplet://sink"))
        # 30 s of fault delay plus the 0.01 s latency model, all simulated
        assert transport.clock.virtual_time == pytest.approx(30.01)


class TestClockScale:
    def test_scaled_sleep_consumes_wall_time(self):
        import time

        clock = SimClock(scale=0.1)
        start = time.perf_counter()
        clock.advance(0.2)  # should sleep ~20ms
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.015
        assert clock.virtual_time == pytest.approx(0.2)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            SimClock(scale=-0.1)

    def test_reset(self):
        clock = SimClock()
        clock.advance(5)
        clock.reset()
        assert clock.virtual_time == 0.0


class TestLivePeers:
    """live_peers: the heartbeat's no-dial guarantee (DESIGN.md §6.4)."""

    def test_no_traffic_means_no_live_peers(self, transport):
        assert transport.live_peers("naplet://a") == []

    def test_links_are_directed_and_appear_after_first_send(self, transport):
        transport.send(_frame("naplet://a", "naplet://b"))
        assert transport.live_peers("naplet://a") == ["naplet://b"]
        # The reverse direction was never used, so b sees no one.
        assert transport.live_peers("naplet://b") == []

    def test_self_is_never_a_peer(self, transport):
        transport.send(_frame("naplet://a", "naplet://b"))
        assert "naplet://a" not in transport.live_peers("naplet://a")
