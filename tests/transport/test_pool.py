"""Pooled TCP connections: multiplexing, reuse, reconnects, frame limits."""

from __future__ import annotations

import pickle
import socket
import threading
import time
import tracemalloc

import pytest

from repro.core.errors import NapletCommunicationError
from repro.telemetry.journal import SpaceJournal
from repro.transport import pool as poolmod
from repro.transport.base import Frame, FrameKind
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until


@pytest.fixture
def transport():
    t = TcpTransport()
    yield t
    t.close()


def _frame(dest, payload=b"", kind=FrameKind.MESSAGE):
    return Frame(kind=kind, source="naplet://a", dest=dest, payload=payload)


class TestPooledReuse:
    def test_sequential_requests_share_one_connection(self, transport):
        transport.register("naplet://echo", lambda f: pickle.dumps(f.payload))
        for i in range(20):
            reply = transport.request(_frame("naplet://echo", str(i).encode()), timeout=5)
            assert pickle.loads(reply) == str(i).encode()
        assert transport.connections_opened() == 1
        assert transport.pool_reuse_count() == 19

    def test_concurrent_interleaved_requests_over_one_connection(self, transport):
        def slow_echo(frame):
            time.sleep(0.01)  # force interleaving of in-flight requests
            return pickle.dumps(frame.payload)

        transport.register("naplet://echo", slow_echo)
        results: dict[int, bytes] = {}
        errors: list[Exception] = []

        def worker(i):
            try:
                for j in range(5):
                    payload = f"{i}:{j}".encode()
                    reply = transport.request(_frame("naplet://echo", payload), timeout=10)
                    assert pickle.loads(reply) == payload
                results[i] = b"ok"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(results) == 8
        assert transport.connections_opened() == 1

    def test_correlation_ids_are_distinct(self, transport):
        seen = []
        transport.register(
            "naplet://c", lambda f: seen.append(f.correlation_id) or pickle.dumps(b"ok")
        )
        for _ in range(5):
            transport.request(_frame("naplet://c"), timeout=5)
        assert len(set(seen)) == 5
        assert all(cid is not None for cid in seen)

    def test_dial_per_frame_mode_is_gone(self):
        """``pooled=True`` still constructs (the frozen journey benchmark
        passes it); there is no unpooled wire left to select."""
        TcpTransport(pooled=True).close()
        with pytest.raises(ValueError, match="always pooled"):
            TcpTransport(pooled=False)

    def test_one_way_send_rides_the_pool(self, transport):
        seen = threading.Event()
        transport.register("naplet://sink", lambda f: seen.set() or b"ok")
        transport.request(_frame("naplet://sink"), timeout=5)  # open the conn
        seen.clear()
        transport.send(_frame("naplet://sink"))
        assert seen.wait(5)
        assert transport.connections_opened() == 1


class TestPoolResilience:
    def test_reconnect_after_peer_closes_keepalive(self, transport):
        transport.register("naplet://echo", lambda f: pickle.dumps(b"ok"))
        transport.request(_frame("naplet://echo"), timeout=5)
        assert transport.connections_opened() == 1
        # The peer drops the kept-alive connection (restart, idle timeout).
        endpoint = transport._endpoints["naplet://echo"]
        endpoint.drop_connections()
        conn = transport.pool.connection_to("naplet://echo")
        deadline = time.monotonic() + 5
        while conn.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not conn.alive
        # The next request transparently redials.
        reply = transport.request(_frame("naplet://echo"), timeout=5)
        assert pickle.loads(reply) == b"ok"
        assert transport.connections_opened() == 2

    def test_handler_error_poisons_only_its_request(self, transport):
        def sometimes(frame):
            if frame.payload == b"boom":
                raise RuntimeError("handler exploded")
            return pickle.dumps(b"ok")

        transport.register("naplet://mixed", sometimes)
        with pytest.raises(NapletCommunicationError, match="handler exploded"):
            transport.request(_frame("naplet://mixed", b"boom"), timeout=5)
        # Connection survives: the next request reuses it and succeeds.
        reply = transport.request(_frame("naplet://mixed", b"fine"), timeout=5)
        assert pickle.loads(reply) == b"ok"
        assert transport.connections_opened() == 1

    def test_timeout_leaves_connection_usable(self, transport):
        release = threading.Event()
        replied = threading.Event()

        def slow(frame):
            if frame.payload == b"slow":
                release.wait(5)
                replied.set()
            return pickle.dumps(frame.payload)

        transport.register("naplet://slow", slow)
        with pytest.raises(NapletCommunicationError, match="timed out"):
            transport.request(_frame("naplet://slow", b"slow"), timeout=0.05)
        conn = transport.pool.connection_to("naplet://slow")
        assert conn._pending == {}  # nobody waits for the late reply any more
        release.set()
        assert replied.wait(5)
        # The late reply is dropped by the reader, not handed to the next
        # requester, and the shared connection stays usable.
        for i in range(3):
            reply = transport.request(_frame("naplet://slow", b"fast%d" % i), timeout=5)
            assert pickle.loads(reply) == b"fast%d" % i
        assert conn.alive
        assert transport.connections_opened() == 1


class TestFrameSizeBoundary:
    def test_frame_at_limit_passes_over_limit_rejected(self, transport, monkeypatch):
        monkeypatch.setattr(poolmod, "MAX_FRAME", 64 * 1024)
        transport.register("naplet://big", lambda f: pickle.dumps(len(f.payload)))
        # Comfortably under the limit: passes.
        ok = _frame("naplet://big", b"z" * (32 * 1024))
        assert pickle.loads(transport.request(ok, timeout=5)) == 32 * 1024
        # Encoded size over the limit: rejected at send time, before the wire.
        too_big = _frame("naplet://big", b"z" * (64 * 1024 + 1))
        with pytest.raises(NapletCommunicationError, match="frame too large"):
            transport.request(too_big, timeout=5)
        # The shared connection was not poisoned by the rejected frame.
        assert pickle.loads(transport.request(_frame("naplet://big", b"x"), timeout=5)) == 1

    def test_oversized_length_prefix_counted_as_dropped(self, transport):
        import socket
        import struct

        transport.register("naplet://sturdy", lambda f: pickle.dumps(b"ok"))
        journal = SpaceJournal("sturdy")
        transport.bind_event_log("naplet://sturdy", journal)
        before = int(transport.metrics.counter("wire_dropped_connections_total").total())
        raw = socket.create_connection(("127.0.0.1", transport.port_of("naplet://sturdy")))
        raw.sendall(struct.pack("!I", poolmod.MAX_FRAME + 1) + b"xxxx")
        raw.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            dropped = int(
                transport.metrics.counter("wire_dropped_connections_total").total()
            )
            if dropped > before:
                break
            time.sleep(0.01)
        assert dropped == before + 1
        assert journal.count("transport-connection-dropped", endpoint="naplet://sturdy") == 1
        # Valid traffic still flows.
        assert pickle.loads(transport.request(_frame("naplet://sturdy"), timeout=5)) == b"ok"


class TestOutOfBandSegments:
    """Segmented requests: protocol-5 buffers travel as raw segments, uncopied."""

    def test_request_with_buffers_round_trips_segments(self, transport):
        seen = {}

        def handler(frame):
            seen["buffers"] = [bytes(b) for b in frame.buffers]
            seen["types"] = {type(b) for b in frame.buffers}
            seen["payload"] = frame.payload
            return pickle.dumps(len(frame.buffers))

        transport.register("naplet://segmented", handler)
        buffers = (b"\xaa" * 70_000, b"tail-segment")
        frame = Frame(
            kind=FrameKind.NAPLET_TRANSFER,
            source="naplet://a",
            dest="naplet://segmented",
            payload=pickle.dumps("envelope-core"),
            buffers=buffers,
        )
        assert pickle.loads(transport.request(frame, timeout=10)) == 2
        assert seen["payload"] == pickle.dumps("envelope-core")
        assert seen["buffers"] == [bytes(b) for b in buffers]
        # Each segment is the immutable bytes it was received into: the
        # serializer caches a field segment as it is, with no further copy.
        assert seen["types"] == {bytes}

    @staticmethod
    def _eof_after_104_bytes(sizes):
        near, far = socket.socketpair()
        with near, far:
            far.sendall(b"s" * 100 + b"half")
            far.shutdown(socket.SHUT_WR)
            with pytest.raises(NapletCommunicationError, match="mid-frame"):
                poolmod.recv_segments(near, sizes)

    def test_eof_mid_segment_raises(self):
        self._eof_after_104_bytes([100, 50])  # one coalesced run, cut short

    def test_eof_inside_a_segment_read_alone_raises(self):
        self._eof_after_104_bytes([100, poolmod.COALESCE_MAX])

    @pytest.mark.parametrize("accepts", [1, 3, 7, 64, 10_000])
    def test_short_vectored_writes_deliver_the_identical_stream(self, accepts):
        """However few bytes one sendmsg takes, the wire sees the length
        prefix, the blob and every segment, in order and exactly once."""

        class ShortWriter:
            def __init__(self):
                self.stream = bytearray()
                self.calls = 0

            def sendmsg(self, parts):
                self.calls += 1
                taken = b"".join(bytes(p) for p in parts)[:accepts]
                self.stream += taken
                return len(taken)

        backing = bytearray(b"view-segment-" * 9)
        segments = (b"alpha", memoryview(backing), b"", memoryview(b"tail")[1:], b"z" * 300)
        blob = pickle.dumps(("reqb", 7, "core"))
        fake = ShortWriter()
        total = poolmod.send_blob_segments(fake, blob, segments)
        expected = len(blob).to_bytes(4, "big") + blob + b"".join(bytes(s) for s in segments)
        assert bytes(fake.stream) == expected
        assert total == len(expected) - 4
        assert fake.calls == -(-len(expected) // accepts)  # no empty or repeated write

    def test_more_segments_than_one_sendmsg_takes(self):
        near, far = socket.socketpair()
        with near, far:
            segments = tuple(bytes([i % 251]) for i in range(poolmod._IOV_MAX + 500))
            poolmod.send_blob_segments(far, b"hdr", segments)
            assert poolmod.recv_blob(near) == b"hdr"
            assert poolmod.recv_segments(near, [1] * len(segments)) == segments

    def test_small_fields_coalesce_and_the_bulk_field_is_read_uncopied(self):
        """Twelve small segments and one 1 MiB segment arrive as thirteen
        ``bytes``; the big one is the recv's own buffer, never re-copied."""
        big = 1024 * 1024
        segments = [bytes([i]) * (10 + i) for i in range(6)]
        segments += [b"\xcc" * big]
        segments += [bytes([i]) * (10 + i) for i in range(6, 12)]
        sizes = [len(s) for s in segments]
        near, far = socket.socketpair()
        with near, far:
            sender = threading.Thread(target=far.sendall, args=(b"".join(segments),))
            recvs = []
            real_recv = near.recv

            class Counting:
                def recv(self, n, flags=0):
                    recvs.append(n)
                    return real_recv(n, flags)

            tracemalloc.start()
            try:
                sender.start()
                got = poolmod.recv_segments(Counting(), sizes)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            sender.join(5)
        assert list(got) == segments
        assert {type(s) for s in got} == {bytes}
        assert peak < 1.1 * big
        # one read per run of small segments, one for the bulk segment
        assert recvs == [sum(sizes[:6]), big, sum(sizes[7:])]

    def test_buffer_bytes_are_accounted_on_the_wire(self, transport):
        transport.register("naplet://meter", lambda f: pickle.dumps(f.size))
        frame = Frame(
            kind=FrameKind.NAPLET_TRANSFER,
            source="naplet://a",
            dest="naplet://meter",
            payload=b"p",
            buffers=(b"\xbb" * 10_000,),
        )
        reported = pickle.loads(transport.request(frame, timeout=10))
        # Frame.size counts the out-of-band segments on both ends ...
        assert reported >= 10_000
        assert frame.size >= 10_000
        # ... and so does the ledger for the transfer kind.
        assert transport.meter.kind_stats("naplet-transfer").bytes == frame.size

    def test_bufferless_frames_still_use_plain_req(self, transport):
        # A frame without buffers must not regress to the segmented layout
        # (interop: v1-era peers only speak "req").
        transport.register("naplet://plain", lambda f: pickle.dumps(f.buffers == ()))
        frame = Frame(
            kind=FrameKind.MESSAGE,
            source="naplet://a",
            dest="naplet://plain",
            payload=b"p",
        )
        assert pickle.loads(transport.request(frame, timeout=10)) is True


class TestLivePeers:
    """live_peers/live_destinations: what a heartbeat may ride for free."""

    def test_live_peers_lists_pooled_keepalives_only(self, transport):
        assert transport.live_peers("naplet://a") == []
        transport.register("naplet://echo", lambda f: pickle.dumps(b"ok"))
        transport.request(_frame("naplet://echo"), timeout=5)
        assert transport.live_peers("naplet://a") == ["naplet://echo"]
        assert transport.pool.live_destinations() == ["naplet://echo"]

    def test_live_peers_excludes_self(self, transport):
        transport.register("naplet://echo", lambda f: pickle.dumps(b"ok"))
        transport.request(_frame("naplet://echo"), timeout=5)
        assert transport.live_peers("naplet://echo") == []
