"""Per-endpoint bytes_sent/bytes_received counters on both transports.

The ISSUE's cross-check: the transport-level counters must agree with the
simnet TrafficMeter's per-host totals within 1% (they agree exactly — both
account the same frame sizes), and on real TCP the bytes a client sends
must equal the bytes the server receives.
"""

from __future__ import annotations

import pickle

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin
from repro.simnet import line
from repro.transport.base import Frame, FrameKind
from repro.transport.inmemory import InMemoryTransport
from repro.transport.tcp import TcpTransport
from tests.conftest import CollectorNaplet


def _within_1pct(a: int, b: int) -> bool:
    return abs(a - b) <= 0.01 * max(a, b, 1)


class TestInMemoryCrossCheck:
    def test_counters_mirror_the_traffic_meter(self):
        transport = InMemoryTransport()
        transport.register("naplet://a", lambda f: None)
        transport.register("naplet://b", lambda f: pickle.dumps(b"reply"))
        transport.send(
            Frame(kind=FrameKind.PING, source="naplet://b", dest="naplet://a", payload=b"x" * 100)
        )
        for _ in range(5):
            transport.request(
                Frame(
                    kind=FrameKind.MESSAGE,
                    source="naplet://a",
                    dest="naplet://b",
                    payload=b"y" * 300,
                )
            )
        for host in ("a", "b"):
            egress, ingress = transport.endpoint_bytes(host)
            meter_egress, meter_ingress = transport.meter.host_bytes(host)
            assert _within_1pct(egress, meter_egress)
            assert _within_1pct(ingress, meter_ingress)
            assert (egress, ingress) == (meter_egress, meter_ingress)

    def test_live_space_cross_check(self, small_line):
        """ISSUE acceptance: after a real tour, per-server counter sums
        match the TrafficMeter within 1% on every host."""
        network, servers = small_line
        listener = repro.NapletListener()
        agent = CollectorNaplet("cross-check")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["s01", "s02", "s03"], post_action=ResultReport("visited")
                )
            )
        )
        servers["s00"].launch(agent, owner="perf", listener=listener)
        listener.next_report(timeout=15)
        assert SpaceAdmin(servers).wait_space_idle()

        meter = network.transport.meter
        checked = 0
        for hostname in servers:
            egress, ingress = servers[hostname].transport.endpoint_bytes(hostname)
            meter_egress, meter_ingress = meter.host_bytes(hostname)
            assert _within_1pct(egress, meter_egress), hostname
            assert _within_1pct(ingress, meter_ingress), hostname
            checked += 1
        assert checked == 4
        # Conservation inside one space: every byte sent arrived somewhere.
        transport = network.transport
        total_sent = sum(
            transport.endpoint_bytes(h)[0] for h in servers
        )
        total_received = sum(
            transport.endpoint_bytes(h)[1] for h in servers
        )
        assert total_sent == total_received == meter.total_bytes

    def test_unknown_endpoint_reads_zero(self):
        transport = InMemoryTransport()
        assert transport.endpoint_bytes("naplet://ghost") == (0, 0)


class TestTcpSymmetry:
    @pytest.fixture
    def transport(self):
        t = TcpTransport()
        yield t
        t.close()

    def test_client_sent_equals_server_received(self, transport):
        """Both sides account the same pickled blobs, so egress at the
        requester equals ingress at the responder — byte for byte."""
        transport.register("naplet://server", lambda f: pickle.dumps(f.payload))
        transport.register("naplet://client", lambda f: None)
        for i in range(4):
            reply = transport.request(
                Frame(
                    kind=FrameKind.MESSAGE,
                    source="naplet://client",
                    dest="naplet://server",
                    payload=bytes(50 * (i + 1)),
                ),
                timeout=5,
            )
            assert pickle.loads(reply) == bytes(50 * (i + 1))

        client_egress, client_ingress = transport.endpoint_bytes("client")
        assert client_egress > 0 and client_ingress > 0
        # The server accounts ingress before it replies, so by the time the
        # client holds the reply the request bytes are fully booked...
        assert transport.endpoint_bytes("server")[1] == client_egress
        # ...while its egress is booked on the serving thread just after
        # the write, so it may trail the client's read by a beat.
        from repro.util.concurrency import wait_until

        assert wait_until(
            lambda: transport.endpoint_bytes("server")[0] == client_ingress,
            timeout=5,
        )

    def test_segmented_request_books_the_same_bytes_on_both_ends(self, transport):
        """Out-of-band segments are booked at the size they were received
        at, which is the size they were sent at."""
        transport.register("naplet://server", lambda f: pickle.dumps(len(f.buffers)))
        transport.register("naplet://client", lambda f: None)
        segments = (memoryview(b"\x5a" * 300_000), b"tail")
        reply = transport.request(
            Frame(
                kind=FrameKind.NAPLET_TRANSFER,
                source="naplet://client",
                dest="naplet://server",
                payload=b"core",
                buffers=segments,
            ),
            timeout=5,
        )
        assert pickle.loads(reply) == 2
        client_egress, _ = transport.endpoint_bytes("client")
        assert client_egress > 300_000
        assert transport.endpoint_bytes("server")[1] == client_egress

    def test_one_way_send_accounts_egress_and_ingress(self, transport):
        import threading

        seen = threading.Event()
        transport.register("naplet://sink", lambda f: seen.set())
        transport.register("naplet://src", lambda f: None)
        transport.send(
            Frame(
                kind=FrameKind.PING,
                source="naplet://src",
                dest="naplet://sink",
                payload=b"p" * 128,
            )
        )
        assert seen.wait(5)
        egress, _ = transport.endpoint_bytes("src")
        assert egress > 128  # blob = pickled frame, bigger than the payload
        # The sink's read loop has accounted the same blob once drained.
        from repro.util.concurrency import wait_until

        assert wait_until(
            lambda: transport.endpoint_bytes("sink")[1] == egress, timeout=5
        )
