"""The frame ledger on both transports: each frame and reply is booked once,
at its :attr:`Frame.size`, so the two transports read the same bytes."""

from __future__ import annotations

import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.core.errors import NapletCommunicationError
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import NapletServer, ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line
from repro.transport.base import Frame, FrameKind
from repro.transport.inmemory import InMemoryTransport
from repro.transport.pool import encode_reply, encode_request
from repro.transport.tcp import TcpTransport
from repro.transport.traffic import REPLY
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet

HOSTS = ("s00", "s01", "s02", "s03")
QUIET = ServerConfig(health_cadence=60.0)  # no load heartbeat during a tour
# Bytes the TCP envelope adds to one frame of each kind on the tour, which
# no counter sees: the struct header, two length bytes per string and four
# per segment size (EXPERIMENTS.md E24).
ENVELOPE_OVERHEAD = {
    FrameKind.DIRECTORY_EVENT: 19,
    FrameKind.NAPLET_TRANSFER: 75,
    FrameKind.NAPLET_TRANSFER + REPLY: 10,
    FrameKind.REPORT: 31,
    FrameKind.REPORT + REPLY: 10,
}


def _tour(servers: dict) -> dict[str, tuple[int, int]]:
    """Run a 3-stop Seq tour from s00; the ledger's (frames, bytes) by kind."""
    listener = repro.NapletListener()
    agent = CollectorNaplet("ledger")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(list(HOSTS[1:]), post_action=ResultReport("visited")))
    )
    servers["s00"].launch(agent, owner="perf", listener=listener)
    assert listener.next_report(timeout=15).payload == list(HOSTS[1:])
    assert SpaceAdmin(servers).wait_space_idle()
    # The source books a hop when its transfer request returns.
    assert wait_until(
        lambda: sum(s.journal.count("hop") for s in servers.values()) == len(HOSTS) - 1
    )
    meter = servers["s00"].transport.meter
    return {
        kind: (stats.frames, stats.bytes)
        for kind, stats in meter.kinds().items()
        if not kind.startswith(FrameKind.LOAD)
    }


@pytest.fixture(scope="module")
def tcp_tour():
    """The tour over sockets, with every frame the pool carried and its reply."""
    transport = TcpTransport()
    carried: list[tuple[Frame, bytes | None]] = []
    pool_request, pool_send = transport.pool.request, transport.pool.send

    def request(frame, timeout=None):
        reply = pool_request(frame, timeout)
        carried.append((frame, reply))
        return reply

    def send(frame):
        pool_send(frame)
        carried.append((frame, None))

    transport.pool.request, transport.pool.send = request, send
    authority, registry = SigningAuthority(), CodeBaseRegistry()
    servers = {
        host: NapletServer(host, transport, authority, registry, config=QUIET)
        for host in HOSTS
    }
    try:
        yield _tour(servers), carried, transport
    finally:
        for server in servers.values():
            server.shutdown()
        transport.close()


class TestTcpViews:
    def test_wire_bytes_view_is_the_sum_of_frame_sizes(self, tcp_tour):
        _rows, carried, transport = tcp_tour
        snapshot = transport.metrics.snapshot()
        assert snapshot.total("wire_bytes_total") == sum(f.size for f, _ in carried)
        assert snapshot.total("wire_frames_total") == len(carried)
        sent = sum(f.size for f, _ in carried) + sum(len(r) for _, r in carried if r)
        assert sum(transport.endpoint_bytes(h)[0] for h in HOSTS) == sent
        assert sum(transport.endpoint_bytes(h)[1] for h in HOSTS) == sent
        with pytest.raises(TypeError):  # a writer beside the view would count twice
            transport.metrics.counter("wire_bytes_total")

    def test_envelope_overhead_per_kind(self, tcp_tour):
        """What the request and reply envelopes add to each kind's frame
        bytes on this tour: the bytes the TCP wire moves beyond what the
        ledger counts."""
        _rows, carried, _transport = tcp_tour
        overhead: dict[str, set[int]] = {}
        for frame, reply in carried:
            sizes = [len(memoryview(b).cast("B")) for b in frame.buffers]
            extra = len(encode_request(frame, 1, True)) + sum(sizes) - frame.size
            overhead.setdefault(frame.kind, set()).add(extra)
            if reply is not None:
                extra = len(encode_reply(1, True, reply)) - len(reply)
                overhead.setdefault(frame.kind + REPLY, set()).add(extra)
        assert overhead == {kind: {n} for kind, n in ENVELOPE_OVERHEAD.items()}


class TestBothTransports:
    def test_tour_rows_match(self, tcp_tour):
        network = VirtualNetwork(line(len(HOSTS), prefix="s"))
        try:
            in_memory = _tour(deploy(network, config=QUIET))
        finally:
            network.shutdown()
        assert in_memory == tcp_tour[0]
        assert set(in_memory) >= {FrameKind.NAPLET_TRANSFER, FrameKind.NAPLET_TRANSFER + REPLY}

    @pytest.mark.parametrize("make", [InMemoryTransport, TcpTransport], ids=["inmemory", "tcp"])
    def test_frame_size_is_computed_once_per_frame(self, make, monkeypatch):
        transport = make()
        try:
            transport.register("naplet://b", lambda f: b"ok")
            transport.register("naplet://a", lambda f: None)
            computed = []
            size = Frame.size.fget
            monkeypatch.setattr(Frame, "size", property(lambda f: computed.append(f) or size(f)))
            frames = [
                Frame(kind=FrameKind.MESSAGE, source="naplet://a", dest="naplet://b",
                      payload=b"m" * n, headers={"id": str(n)})
                for n in (1, 300, 70_000)
            ]
            for frame in frames:
                transport.request(frame, timeout=5)
            one_way = Frame(kind=FrameKind.LOAD, source="naplet://b", dest="naplet://a")
            transport.send(one_way)
            assert computed == [*frames, one_way]
            assert transport.meter.total_frames == 2 * len(frames) + 1
        finally:
            transport.close()

    @pytest.mark.parametrize("make", [InMemoryTransport, TcpTransport], ids=["inmemory", "tcp"])
    def test_a_failed_or_silent_handler_is_a_communication_error(self, make):
        """A handler that raises, or answers a request with nothing, is the
        requester's NapletCommunicationError on either transport, chained
        from the handler's exception where it ran in-process; a reply that
        never came is booked nowhere, and the channel keeps serving."""
        transport = make()
        try:
            transport.register("naplet://silent", lambda f: None)
            transport.register("naplet://broken", lambda f: {}["missing"])
            transport.register("naplet://fine", lambda f: b"ok")
            for dest, why in (("naplet://silent", "no reply"), ("naplet://broken", "KeyError")):
                frame = Frame(kind=FrameKind.PING, source="naplet://a", dest=dest)
                failed = f"failed remotely: .*{why}"
                with pytest.raises(NapletCommunicationError, match=failed) as err:
                    transport.request(frame, timeout=5)
            if make is InMemoryTransport:
                assert isinstance(err.value.__cause__, KeyError)
            assert transport.meter.total_frames == 0
            fine = Frame(kind=FrameKind.PING, source="naplet://a", dest="naplet://fine")
            assert transport.request(fine, timeout=5) == b"ok"
            assert transport.meter.total_frames == 2
        finally:
            transport.close()
