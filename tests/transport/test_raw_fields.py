"""A field whose value is exactly ``bytes`` is its own image: a landing
installs the bytes it received or holds, never an unpickled copy."""

from __future__ import annotations

import tracemalloc

from repro.transport.base import Frame, FrameKind
from repro.transport.inmemory import InMemoryTransport
from repro.transport.tcp import TcpTransport
from tests.core.test_naplet import _identified
from tests.transport.envelopes import read_envelope
from tests.transport.images import ImageKeeper

CARGO_BYTES = 1 << 20


def _courier():
    agent = _identified("courier")
    agent.cargo = bytes(range(256)) * (CARGO_BYTES // 256)
    return agent


def _blob_of(serializer: ImageKeeper, nid: str) -> bytes:
    """The one bytes object *serializer*'s blob store holds for *nid*'s cargo."""
    return serializer.blobs.get(serializer.image(nid).entries["cargo"].hash)


class TestPingPong:
    def test_a_landing_that_omits_the_cargo_copies_nothing(self):
        here, there = ImageKeeper(), ImageKeeper()
        agent = _courier()
        nid, cargo = str(agent.naplet_id), agent.cargo
        data, buffers, _ = here.dump(agent)
        agent, _ = there.land(data, buffers=buffers or None)  # the full launch hop
        for hop in range(1, 5):
            sender, receiver = (there, here) if hop % 2 else (here, there)
            agent.count = hop
            # The receiver holds the image the sender last dumped or landed.
            data, buffers, _ = sender.dump(agent, held=sender.held(agent))
            envelope = read_envelope(data, buffers)
            assert envelope.get("omitted") and "cargo" not in envelope["fields"]
            tracemalloc.start()
            try:
                agent, info = receiver.loads_with_info(
                    data, buffers=buffers or None, prev=receiver.image(nid)
                )
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            receiver.keep(nid, info["image"])
            assert info["mode"] == "delta" and agent.count == hop
            assert peak < CARGO_BYTES / 10, (hop, peak)
            assert agent.cargo == cargo and agent.cargo is _blob_of(receiver, nid)

    def _land_in_full(self, transport):
        """Ship a courier's launch image over *transport*; the landed naplet,
        the segments it arrived as, its receiver and the bytes the landing
        allocated."""
        sender, receiver = ImageKeeper(), ImageKeeper()
        agent = _courier()
        landed = {}

        def handler(frame):
            landed["segments"] = frame.buffers
            tracemalloc.start()
            try:
                landed["naplet"], info = receiver.loads_with_info(frame.payload, buffers=frame.buffers)
                _now, landed["peak"] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            receiver.keep(info["nid"], info["image"])
            return b"ok"

        try:
            transport.register("naplet://dest", handler)
            data, buffers, _ = sender.dump(agent)
            frame = Frame(
                kind=FrameKind.NAPLET_TRANSFER, source="naplet://src", dest="naplet://dest",
                payload=data, buffers=tuple(buffers),
            )
            assert transport.request(frame, timeout=10) == b"ok"
        finally:
            transport.close()
        cargo = landed["naplet"].cargo
        assert type(cargo) is bytes and cargo == agent.cargo
        assert cargo is _blob_of(receiver, str(agent.naplet_id))
        return cargo, landed

    def test_a_full_landing_over_tcp_keeps_the_received_segment(self):
        cargo, landed = self._land_in_full(TcpTransport())
        assert any(cargo is segment for segment in landed["segments"])

    def test_a_full_landing_in_process_keeps_the_bytes_the_segment_spans(self):
        """In-process a segment is a memoryview over the sender's field
        bytes: the landing takes those bytes, it does not copy them."""
        cargo, landed = self._land_in_full(InMemoryTransport())
        assert any(
            isinstance(segment, memoryview) and cargo is segment.obj
            for segment in landed["segments"]
        )
        assert landed["peak"] < CARGO_BYTES / 10, landed["peak"]
