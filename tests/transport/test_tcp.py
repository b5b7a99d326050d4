"""TcpTransport: real localhost sockets carrying frames."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.core.errors import NapletCommunicationError
from repro.transport.base import Frame, FrameKind
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until


@pytest.fixture
def transport():
    t = TcpTransport()
    yield t
    t.close()


class TestTcp:
    def test_request_reply_roundtrip(self, transport):
        transport.register("naplet://b", lambda f: pickle.dumps(f.payload.upper()))
        frame = Frame(kind=FrameKind.MESSAGE, source="naplet://a", dest="naplet://b", payload=b"hello")
        assert pickle.loads(transport.request(frame, timeout=5)) == b"HELLO"

    def test_send_one_way(self, transport):
        import threading

        seen = threading.Event()
        received = []

        def handler(frame):
            received.append(frame.payload)
            seen.set()
            return None

        transport.register("naplet://sink", handler)
        transport.send(Frame(kind=FrameKind.PING, source="naplet://a", dest="naplet://sink", payload=b"x"))
        assert seen.wait(5)
        assert received == [b"x"]

    def test_each_endpoint_gets_distinct_port(self, transport):
        transport.register("naplet://a", lambda f: None)
        transport.register("naplet://b", lambda f: None)
        assert transport.port_of("naplet://a") != transport.port_of("naplet://b")

    def test_unknown_destination_raises(self, transport):
        with pytest.raises(NapletCommunicationError):
            transport.send(Frame(kind=FrameKind.PING, source="a", dest="naplet://ghost"))

    def test_unregister_closes_listener(self, transport):
        transport.register("naplet://temp", lambda f: pickle.dumps(b"ok"))
        transport.unregister("naplet://temp")
        with pytest.raises(NapletCommunicationError):
            transport.port_of("naplet://temp")

    def test_large_payload(self, transport):
        transport.register("naplet://big", lambda f: pickle.dumps(len(f.payload)))
        blob = b"z" * (2 * 1024 * 1024)
        frame = Frame(kind=FrameKind.NAPLET_TRANSFER, source="a", dest="naplet://big", payload=blob)
        assert pickle.loads(transport.request(frame, timeout=10)) == len(blob)

    def test_concurrent_requests(self, transport):
        import threading

        transport.register("naplet://echo", lambda f: pickle.dumps(f.payload))
        results = []

        def call(i):
            frame = Frame(kind=FrameKind.MESSAGE, source="a", dest="naplet://echo", payload=str(i).encode())
            results.append(pickle.loads(transport.request(frame, timeout=5)))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)
        assert sorted(results) == sorted(str(i).encode() for i in range(8))


class TestLeaderFollowers:
    """One connection, up to ``server_workers`` threads serving it."""

    def test_eight_blocked_handlers_all_progress_and_reply_out_of_order(self, transport):
        gates = [threading.Event() for _ in range(8)]
        entered = threading.Semaphore(0)

        def gated(frame):
            entered.release()
            assert gates[int(frame.payload)].wait(10)
            return pickle.dumps(frame.payload)

        transport.register("naplet://gated", gated)
        finished: list[int] = []

        def call(i):
            frame = Frame(
                kind=FrameKind.MESSAGE, source="a", dest="naplet://gated", payload=str(i).encode()
            )
            assert pickle.loads(transport.request(frame, timeout=10)) == str(i).encode()
            finished.append(i)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        for t in callers:
            t.start()
        # All eight handlers run at once on the one pooled connection ...
        for _ in range(8):
            assert entered.acquire(timeout=10)
        assert transport.connections_opened() == 1
        assert finished == []
        # ... and are answered in the order they finish, not the order sent.
        for i in reversed(range(8)):
            gates[i].set()
            assert wait_until(lambda: i in finished, timeout=10)
        for t in callers:
            t.join(10)
            assert not t.is_alive()
        assert finished == list(reversed(range(8)))

    def test_nested_chain_back_to_the_first_endpoint_completes(self, transport):
        def ask(source, dest, payload):
            frame = Frame(kind=FrameKind.MESSAGE, source=source, dest=dest, payload=payload)
            return pickle.loads(transport.request(frame, timeout=10))

        def at_a(frame):
            if frame.payload == b"start":
                return pickle.dumps(b"a(" + ask("naplet://a", "naplet://b", b"via-a") + b")")
            return pickle.dumps(b"a-leaf")

        def at_b(frame):
            return pickle.dumps(b"b(" + ask("naplet://b", "naplet://a", b"leaf") + b")")

        transport.register("naplet://a", at_a)
        transport.register("naplet://b", at_b)
        assert ask("naplet://c", "naplet://a", b"start") == b"a(b(a-leaf))"

    def test_frames_behind_saturated_threads_are_served_once_one_frees(self):
        transport = TcpTransport(server_workers=2)
        try:
            gate = threading.Event()
            entered = threading.Semaphore(0)

            def gated(frame):
                entered.release()
                assert gate.wait(10)
                return pickle.dumps(frame.payload)

            transport.register("naplet://two", gated)
            replies: list[bytes] = []

            def call(i):
                frame = Frame(
                    kind=FrameKind.MESSAGE, source="a", dest="naplet://two", payload=b"%d" % i
                )
                replies.append(pickle.loads(transport.request(frame, timeout=10)))

            callers = [threading.Thread(target=call, args=(i,)) for i in range(5)]
            for t in callers:
                t.start()
            assert entered.acquire(timeout=10) and entered.acquire(timeout=10)
            assert not entered.acquire(timeout=0.2)  # the third frame waits unread
            # Both threads of the connection are inside handlers: that is
            # what the health plane's wedged-server rule reads as backlog.
            assert transport.worker_backlog("naplet://two") >= 1
            assert transport.worker_backlog() >= 1
            assert transport.worker_backlog("naplet://nobody") == 0
            gate.set()
            for t in callers:
                t.join(10)
                assert not t.is_alive()
            assert sorted(replies) == [b"%d" % i for i in range(5)]
            assert wait_until(lambda: transport.worker_backlog("naplet://two") == 0, timeout=5)
            serving = [
                t for t in threading.enumerate() if t.name == "tcp-conn-naplet://two"
            ]
            assert len(serving) <= 2
        finally:
            transport.close()

    def test_counts_survive_a_storm_of_callers(self, transport):
        """More callers than cores, a tiny switch interval: a lost update
        to a connection's thread counts would leave it busy for good, or
        let it outgrow ``server_workers``."""
        transport.register("naplet://storm", lambda f: pickle.dumps(f.payload))
        wrong: list[bytes] = []

        def caller(i):
            for j in range(150):
                payload = b"%d:%d" % (i, j)
                frame = Frame(
                    kind=FrameKind.MESSAGE, source="a", dest="naplet://storm", payload=payload
                )
                if pickle.loads(transport.request(frame, timeout=20)) != payload:
                    wrong.append(payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(16)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        (conn,) = transport._endpoints["naplet://storm"]._conns
        assert wait_until(lambda: conn.busy == 0, timeout=5)
        assert 1 <= conn.threads <= transport.server_workers
        assert transport.worker_backlog() == 0

    def test_backlog_is_zero_while_a_thread_is_free(self, transport):
        gate = threading.Event()
        entered = threading.Event()

        def gated(frame):
            entered.set()
            assert gate.wait(10)
            return pickle.dumps(b"ok")

        transport.register("naplet://one", gated)
        frame = Frame(kind=FrameKind.MESSAGE, source="a", dest="naplet://one")
        caller = threading.Thread(target=transport.request, args=(frame, 10))
        caller.start()
        assert entered.wait(10)
        assert transport.worker_backlog("naplet://one") == 0  # 1 of 8 busy
        gate.set()
        caller.join(10)
        assert not caller.is_alive()
