"""A message is its body: the envelope rides as text headers.

The post office's frame pickles only what the sender sent; a forward
relays those bytes under rewritten headers; a reply is text, and one the
origin cannot read is a failed exchange, retried and then dead-lettered.
"""

from __future__ import annotations

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.core.errors import NapletCommunicationError
from repro.core.naplet_id import NapletID
from repro.itinerary import Itinerary, seq
from repro.server import NapletServer
from repro.server.messages import UserMessage
from repro.transport.base import Frame, FrameKind
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet

BODY = {"pad": "ab" * 48}  # pickles to about 128 bytes, as the journey benchmark's
FRAME_BUDGET = 240  # bytes of Frame.size for a first send of BODY


def _rest_at(servers, host: str) -> NapletID:
    agent = StallNaplet("sitter", spin_seconds=30.0)
    agent.set_itinerary(Itinerary(seq(host)))
    nid = servers["s00"].launch(agent, owner="alice")
    assert wait_until(lambda: servers[host].manager.is_resident(nid), timeout=10)
    return nid


def test_a_message_to_a_shutting_down_server_is_dead_lettered(small_line):
    """A server whose shutdown has begun, but which is still registered,
    refuses with a reply that is no post-office reply: the origin retries
    and dead-letters the message instead of failing on the refusal."""
    _network, servers = small_line
    nid = _rest_at(servers, "s01")
    servers["s01"]._shutdown.set()
    try:
        with pytest.raises(NapletCommunicationError, match="unreadable post-office reply"):
            servers["s00"].messenger.post(None, nid, "hi", dest_urn=servers["s01"].urn)
        (letter,) = servers["s00"].messenger.dead_letters.peek()
        assert letter.message.body == "hi" and letter.message.target == nid
        assert letter.dest_urn == servers["s01"].urn
        assert letter.describe()["origin"] == servers["s00"].urn
    finally:
        servers["s01"]._shutdown.clear()  # or the teardown's shutdown skips s01's sitter


def test_a_message_frame_is_its_body(small_line, monkeypatch):
    """A first send carries the body's pickle and short text headers; a
    forward relays the same payload bytes under its own headers."""
    network, servers = small_line
    nid = _rest_at(servers, "s02")
    frames = []
    request = network.transport.request
    monkeypatch.setattr(
        network.transport,
        "request",
        lambda frame, timeout=None: frames.append(frame) or request(frame, timeout),
    )
    # Sent to s00, which the sitter left for s02: s00 forwards it there.
    receipt = servers["s03"].messenger.post(None, nid, BODY, dest_urn="naplet://s00")
    assert (receipt.status, receipt.final_server) == ("delivered", "naplet://s02")
    assert receipt.hops == 1
    first, forward = [f for f in frames if f.kind == FrameKind.MESSAGE]
    assert first.size <= FRAME_BUDGET, first
    assert b"repro.server.messages" not in first.payload
    assert forward.payload == first.payload
    assert set(first.headers) == {"target", "id", "hlc"}
    assert forward.headers["origin"] == "naplet://s03" and forward.headers["hops"] == "1"
    assert "from" not in forward.headers  # the sender is the origin
    message = servers["s02"].messenger.mailbox_of(nid).poll()
    assert message.body == BODY and message.message_id == receipt.message_id
    assert message.sender == message.origin == "naplet://s03"


@pytest.fixture
def tcp_pair():
    transport = TcpTransport()
    authority, registry = SigningAuthority(), CodeBaseRegistry()
    servers = [
        NapletServer(host, transport, authority=authority, code_registry=registry)
        for host in ("t00", "t01")
    ]
    yield servers
    for server in servers:
        server.shutdown()
    transport.close()


class TestMalformedOverTcp:
    """A malformed message frame poisons only its own request: the sender
    gets a clean error reply and the serving connection keeps serving."""

    @pytest.mark.parametrize(
        "headers",
        [
            {"target": "alice@t00:240101120000:0"},  # no id
            {"target": "alice@t00:240101120000:0", "id": "1", "hops": "many"},
            {"target": "alice@t00:240101120000:0.x", "id": "1"},  # garbled target
        ],
        ids=["missing-id", "non-integer-hops", "garbled-target"],
    )
    def test_gets_an_error_reply_and_the_connection_survives(self, tcp_pair, headers):
        t00, t01 = tcp_pair
        payload = t00.serializer.dumps("x")
        for _ in range(2):
            with pytest.raises(NapletCommunicationError, match="failed remotely"):
                t00.transport.request(
                    Frame(FrameKind.MESSAGE, t00.urn, t01.urn, payload, dict(headers))
                )
        ghost = NapletID.parse("alice@t00:240101120000:0")
        assert t00.messenger.post(None, ghost, "after", dest_urn=t01.urn).status == "parked"
        assert t01.messenger.special_mailbox_size(ghost) == 1
        parked = t01.manager._table[ghost].mailbox.poll()  # the record it parked on
        assert isinstance(parked, UserMessage) and parked.body == "after"
