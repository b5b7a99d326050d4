"""Message value types: hops, join bodies, receipts."""

from __future__ import annotations

import pickle

from repro.core.naplet_id import NapletID
from repro.server.messages import (
    DeliveryReceipt,
    SystemControl,
    SystemMessage,
    UserMessage,
    join_token_of,
    make_join_body,
)
from repro.simnet import line

TARGET = NapletID.parse("t@h:240101120000:0")


class TestUserMessage:
    def test_unique_increasing_ids(self, space):
        """Each origin numbers its own messages: ``(origin, id)`` is unique."""
        _network, servers = space(line(2, prefix="s"))
        post = {host: s.messenger.post for host, s in servers.items()}
        a, b = (post["s00"](None, TARGET, i, dest_urn="naplet://s01") for i in (1, 2))
        c = post["s01"](None, TARGET, 3, dest_urn="naplet://s00")
        assert b.message_id > a.message_id
        assert c.message_id == a.message_id  # another origin's first

    def test_hopped_preserves_identity(self):
        message = UserMessage(sender="x", target=TARGET, body="data", message_id=3)
        forwarded = message.hopped().hopped()
        assert forwarded.hops == 2
        assert forwarded.message_id == message.message_id
        assert forwarded.body == "data"
        assert message.hops == 0  # original untouched

    def test_pickles(self):
        message = UserMessage(
            sender=TARGET, target=TARGET, body={"k": 1}, message_id=7, origin="naplet://s"
        )
        copy = pickle.loads(pickle.dumps(message))
        assert copy.body == {"k": 1}
        assert copy.message_id == message.message_id


class TestSystemMessage:
    def test_controls_enumerated(self):
        assert set(SystemControl.ALL) >= {
            "callback",
            "terminate",
            "suspend",
            "resume",
            "freeze",
        }

    def test_defaults(self):
        message = SystemMessage(control=SystemControl.SUSPEND, target=TARGET)
        assert message.sender == "system"
        assert message.payload is None


class TestJoinBodies:
    def test_roundtrip(self):
        body = make_join_body("token-42")
        assert join_token_of(body) == "token-42"

    def test_non_join_bodies_yield_none(self):
        assert join_token_of("plain string") is None
        assert join_token_of({"other": 1}) is None
        assert join_token_of(None) is None
        assert join_token_of(42) is None


class TestReceipt:
    def test_fields(self):
        receipt = DeliveryReceipt(
            message_id=7, target=TARGET, status="delivered",
            final_server="naplet://s2", hops=3,
        )
        assert receipt.hops == 3
        assert receipt.status == "delivered"
