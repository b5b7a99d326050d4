"""Per-endpoint bytes on both transports, read from the one frame ledger.

``endpoint_bytes`` and the ``bytes_sent_total``/``bytes_received_total``
views agree with the ledger's per-host split, every byte sent in a space is
received somewhere, and on real TCP a client's egress is the server's
ingress byte for byte: both read the same booked frame sizes.
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
        snapshot = transport.metrics.snapshot()
        for host in ("a", "b"):
            egress, ingress = transport.meter.host_bytes(host)
            assert egress and ingress
            assert transport.endpoint_bytes(host) == (egress, ingress)
            assert snapshot.value("bytes_sent_total", endpoint=host) == egress
            assert snapshot.value("bytes_received_total", endpoint=host) == ingress

    def test_live_space_cross_check(self, small_line):
        """After a real tour, every host's egress sum equals the ingress
        sum, which equals the ledger's total."""
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

        snapshot = network.transport.meter.snapshot()
        egress = {src: 0 for src in servers}
        ingress = dict(egress)
        for (src, dst), stats in snapshot["links"].items():
            egress[src] += stats.bytes
            ingress[dst] += stats.bytes
        assert all(egress.values()) and all(ingress.values())
        assert sum(egress.values()) == sum(ingress.values()) == snapshot["total_bytes"]

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
        """Egress at the requester is ingress at the responder, and the
        reverse for replies, as soon as the request returns."""
        transport.register("naplet://server", lambda f: pickle.dumps(f.payload))
        transport.register("naplet://client", lambda f: None)
        sizes = replies = 0
        for i in range(4):
            frame = Frame(
                kind=FrameKind.MESSAGE,
                source="naplet://client",
                dest="naplet://server",
                payload=bytes(50 * (i + 1)),
            )
            reply = transport.request(frame, timeout=5)
            assert pickle.loads(reply) == bytes(50 * (i + 1))
            sizes, replies = sizes + frame.size, replies + len(reply)
        assert transport.endpoint_bytes("client") == (sizes, replies)
        assert transport.endpoint_bytes("server") == (replies, sizes)
        snapshot = transport.metrics.snapshot()
        assert snapshot.value("bytes_sent_total", endpoint="client") == sizes
        assert snapshot.value("bytes_received_total", endpoint="client") == replies

    def test_segmented_request_books_the_same_bytes_on_both_ends(self, transport):
        """Out-of-band segments count at their size, as in Frame.size."""
        transport.register("naplet://server", lambda f: pickle.dumps(len(f.buffers)))
        transport.register("naplet://client", lambda f: None)
        frame = Frame(
            kind=FrameKind.NAPLET_TRANSFER,
            source="naplet://client",
            dest="naplet://server",
            payload=b"core",
            buffers=(memoryview(b"\x5a" * 300_000), b"tail"),
        )
        assert pickle.loads(transport.request(frame, timeout=5)) == 2
        client_egress, _ = transport.endpoint_bytes("client")
        assert client_egress == frame.size > 300_000
        assert transport.endpoint_bytes("server")[1] == client_egress

    def test_one_way_send_accounts_egress_and_ingress(self, transport):
        import threading

        seen = threading.Event()
        transport.register("naplet://sink", lambda f: seen.set())
        transport.register("naplet://src", lambda f: None)
        frame = Frame(
            kind=FrameKind.PING,
            source="naplet://src",
            dest="naplet://sink",
            payload=b"p" * 128,
        )
        transport.send(frame)
        assert seen.wait(5)
        assert transport.endpoint_bytes("src") == (frame.size, 0)
        assert transport.endpoint_bytes("sink") == (0, frame.size)
