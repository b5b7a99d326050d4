"""InMemoryTransport: delivery, metering, clock accounting, fault injection."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import NapletCommunicationError
from repro.transport.base import Frame, FrameKind
from repro.transport.clock import SimClock
from repro.transport.inmemory import InMemoryTransport
from repro.transport.latency import UniformLatency
from repro.transport.traffic import TrafficMeter


def _frame(src="naplet://a", dst="naplet://b", payload=b"hello", kind=FrameKind.MESSAGE):
    return Frame(kind=kind, source=src, dest=dst, payload=payload)


@pytest.fixture
def transport():
    t = InMemoryTransport(
        latency=UniformLatency(latency=0.01),
        clock=SimClock(scale=0.0),
        meter=TrafficMeter(),
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
    def test_failed_link_blocks_both_ways(self, transport):
        transport.fail_link("a", "b")
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame(src="naplet://b", dst="naplet://a"))

    def test_asymmetric_failure(self, transport):
        transport.fail_link("a", "b", symmetric=False)
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        transport.register("naplet://a", lambda f: None)
        transport.send(_frame(src="naplet://b", dst="naplet://a"))  # reverse ok

    def test_heal_link(self, transport):
        transport.fail_link("a", "b")
        transport.heal_link("a", "b")
        transport.request(_frame())  # works again

    def test_partition_host(self, transport):
        transport.partition_host("b")
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        transport.heal_host("b")
        transport.request(_frame())

    def test_failures_not_metered(self, transport):
        transport.fail_link("a", "b")
        with pytest.raises(NapletCommunicationError):
            transport.send(_frame())
        assert transport.meter.total_frames == 0


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


class TestMeterQueries:
    def test_host_bytes_directions(self):
        meter = TrafficMeter()
        meter.record("a", "b", "k", 100, 0.0)
        meter.record("b", "a", "k", 40, 0.0)
        egress, ingress = meter.host_bytes("a")
        assert (egress, ingress) == (100, 40)
        assert meter.host_total("a") == 140

    def test_links_snapshot_is_copy(self):
        meter = TrafficMeter()
        meter.record("a", "b", "k", 10, 0.5)
        snapshot = meter.links()
        snapshot[("a", "b")].bytes = 9999
        assert meter.link("a", "b").bytes == 10

    def test_reset(self):
        meter = TrafficMeter()
        meter.record("a", "b", "k", 10, 0.0)
        meter.reset()
        assert meter.total_bytes == 0
        assert meter.total_virtual_seconds == 0.0


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
