"""TcpTransport edge cases: oversized frames, dead peers, timeouts."""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import pytest

from repro.core.errors import NapletCommunicationError
from repro.telemetry.journal import SpaceJournal
from repro.transport.base import Frame, FrameKind
from repro.transport.pool import MAX_FRAME, send_blob
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until


@pytest.fixture
def transport():
    t = TcpTransport(connect_timeout=1.0)
    yield t
    t.close()


class TestEdges:
    def test_request_timeout_when_handler_stalls(self, transport):
        release = threading.Event()

        def stalled(frame):
            release.wait(10)
            return pickle.dumps(b"late")

        transport.register("naplet://slow", stalled)
        frame = Frame(kind=FrameKind.PING, source="a", dest="naplet://slow")
        try:
            with pytest.raises(NapletCommunicationError, match="timed out"):
                transport.request(frame, timeout=0.2)
        finally:
            release.set()
        # An exchange that never completed is booked nowhere.
        assert transport.meter.total_frames == 0
        assert transport.metrics.snapshot().total("wire_frames_total") == 0

    def test_handler_exception_drops_connection(self, transport):
        def broken(frame):
            raise OSError("handler exploded")

        transport.register("naplet://broken", broken)
        frame = Frame(kind=FrameKind.PING, source="a", dest="naplet://broken")
        with pytest.raises(NapletCommunicationError):
            transport.request(frame, timeout=1.0)

    def test_garbage_frame_is_contained(self, transport):
        """A raw client sending an oversized length prefix gets dropped;
        the endpoint keeps serving valid traffic."""
        transport.register("naplet://sturdy", lambda f: pickle.dumps(b"ok"))
        port = transport.port_of("naplet://sturdy")
        raw = socket.create_connection(("127.0.0.1", port), timeout=1)
        raw.sendall(struct.pack("!I", MAX_FRAME + 1) + b"xxxx")
        raw.close()
        frame = Frame(kind=FrameKind.PING, source="a", dest="naplet://sturdy")
        assert pickle.loads(transport.request(frame, timeout=2)) == b"ok"

    @pytest.mark.parametrize(
        "envelope",
        [
            (Frame(kind=FrameKind.PING, source="a", dest="naplet://strict"), True),
            ("req", 1),
            {"not": "a tuple"},
        ],
        ids=["dial-per-frame-2-tuple", "short-req", "dict"],
    )
    def test_unknown_envelope_never_reaches_the_handler(self, transport, envelope):
        """A well-framed blob that is not a REQ/REQB envelope (the removed
        ``(frame, expects_reply)`` wire, say) costs its sender that one
        connection: counted, recorded, and the endpoint keeps serving."""
        seen = []
        transport.register(
            "naplet://strict", lambda f: seen.append(f.source) or pickle.dumps(b"ok")
        )
        bound = SpaceJournal("strict")
        transport.bind_event_log("naplet://strict", bound)
        dropped = transport.metrics.counter("wire_dropped_connections_total")
        port = transport.port_of("naplet://strict")
        raw = socket.create_connection(("127.0.0.1", port), timeout=1)
        send_blob(raw, pickle.dumps(envelope))
        assert raw.recv(1) == b""  # hung up on, no reply
        raw.close()
        assert wait_until(
            lambda: dropped.value(endpoint="naplet://strict") == 1, timeout=2
        )
        assert seen == []
        events = bound.find("transport-connection-dropped")
        assert len(events) == 1
        assert "not a request envelope" in events[0].detail["error"]
        frame = Frame(kind=FrameKind.PING, source="b", dest="naplet://strict")
        assert pickle.loads(transport.request(frame, timeout=2)) == b"ok"
        assert seen == ["b"]

    def test_half_frame_then_close_is_contained(self, transport):
        transport.register("naplet://sturdy2", lambda f: pickle.dumps(b"ok"))
        port = transport.port_of("naplet://sturdy2")
        raw = socket.create_connection(("127.0.0.1", port), timeout=1)
        raw.sendall(struct.pack("!I", 1000) + b"only-a-little")
        raw.close()
        frame = Frame(kind=FrameKind.PING, source="a", dest="naplet://sturdy2")
        assert pickle.loads(transport.request(frame, timeout=2)) == b"ok"

    def test_close_is_idempotent(self, transport):
        transport.register("naplet://x", lambda f: None)
        transport.close()
        transport.close()

    def test_no_server_thread_survives_close(self, transport):
        """The accept thread holds endpoint -> handler -> server: left
        blocked in accept() it would pin a closed space in memory."""
        import threading

        for name in ("p", "q"):
            transport.register(f"naplet://{name}", lambda f: pickle.dumps(b"ok"))
        frame = Frame(kind=FrameKind.PING, source="naplet://p", dest="naplet://q")
        assert pickle.loads(transport.request(frame, timeout=2)) == b"ok"

        def server_threads(*kinds: str) -> list[str]:
            kinds = kinds or ("accept", "conn", "pool-reader")
            prefixes = tuple(f"tcp-{kind}-naplet://" for kind in kinds)
            return [
                t.name
                for t in threading.enumerate()
                if t.name.startswith(prefixes) and t.name.endswith(("://p", "://q"))
            ]

        # two listeners, one pooled connection: its reader and >= 1 serving thread
        assert len(server_threads()) >= 4
        # Dropping the served connections ends every thread on either end
        # of them, followers parked on the read lock included ...
        transport._endpoints["naplet://q"].drop_connections()
        assert wait_until(lambda: not server_threads("conn", "pool-reader"), timeout=2)
        # ... and so does close(), for the redialed connection too.
        assert pickle.loads(transport.request(frame, timeout=2)) == b"ok"
        assert len(server_threads("conn", "pool-reader")) >= 2
        transport.close()
        assert wait_until(lambda: not server_threads(), timeout=2), server_threads()
