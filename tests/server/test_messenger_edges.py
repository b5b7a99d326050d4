"""Messenger edge paths: unreachable forwards, missing receipts, reports."""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import NapletCommunicationError
from repro.itinerary import Itinerary, seq
from repro.server import deploy
from repro.simnet import VirtualNetwork, line
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet


class PosterNaplet(repro.Naplet):
    """Posts one message to a naplet parked-for at the next server, then
    retires here, noting what its control block was billed."""

    def on_start(self) -> None:
        from repro.core.naplet_id import NapletID

        ghost = NapletID.create("ghost", "s00", stamp="240101120000")
        receipt = self.require_context().messenger.post_message("naplet://s02", ghost, "hi")
        self.state.set("receipt", receipt)


@pytest.fixture
def trio():
    network = VirtualNetwork(line(3, prefix="s"))
    servers = deploy(network)
    yield network, servers
    network.shutdown()


class TestEdges:
    def test_receipt_for_unknown_id_is_none(self, trio):
        _network, servers = trio
        assert servers["s00"].messenger.receipt_for(999_999) is None

    def test_kept_receipts_forget_the_oldest_past_the_cap(self, trio, monkeypatch):
        from repro.core.naplet_id import NapletID
        from repro.server import messenger as messenger_module
        from repro.server.messenger import NapletMessengerProxy

        monkeypatch.setattr(messenger_module, "_RECEIPT_CAPACITY", 3)
        _network, servers = trio
        messenger = servers["s00"].messenger
        nid = NapletID.create("ghost", "s00", stamp="240101120000")
        receipts = [
            messenger.post(None, nid, i, dest_urn="naplet://s01") for i in range(4)
        ]
        assert messenger.receipt_for(receipts[0].message_id) is None
        assert messenger.receipt_for(receipts[-1].message_id) == receipts[-1]
        proxy = NapletMessengerProxy(messenger, StallNaplet("asker"))
        assert proxy.inquire(receipts[1].message_id) == receipts[1]

    def test_report_to_unknown_listener_raises(self, trio):
        _network, servers = trio
        with pytest.raises(NapletCommunicationError, match="no listener"):
            servers["s01"].messenger.post_report(
                "naplet://s00", "no-such-key", "reporter", {"x": 1}
            )

    def test_chase_swallows_unreachable_destination_for_parked(self, trio):
        network, servers = trio
        from repro.core.naplet_id import NapletID

        nid = NapletID.create("ghost", "s00", stamp="240101120000")
        # park a message at s01 for a naplet that never lands there
        receipt = servers["s00"].messenger.post(
            None, nid, "early", dest_urn="naplet://s01"
        )
        assert receipt.status == "parked"
        network.partition_host("s02")
        # chasing toward a partitioned destination must not raise
        servers["s01"].messenger.chase(nid, "naplet://s02")
        assert servers["s01"].messenger.special_mailbox_size(nid) == 0

    def test_chase_swallows_unreachable_for_mailbox(self, trio):
        network, servers = trio
        agent = StallNaplet("sitting", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(agent, owner="ops")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        # queue a message in the resident's mailbox, then simulate a
        # departure acked toward an unreachable host — must not raise
        mailbox = servers["s01"].messenger.mailbox_of(nid)
        assert mailbox is not None
        servers["s00"].messenger.post(None, nid, "queued")
        network.partition_host("s02")
        record = servers["s01"].manager.begin_departure(nid, "naplet://s02")
        servers["s01"].messenger.chase(nid, "naplet://s02")
        assert servers["s01"].messenger.mailbox_of(nid) is None
        servers["s01"].manager.abort_departure(nid, record)
        servers["s00"].terminate_naplet(nid)

    def test_remove_mailbox_without_forward_drops_quietly(self, trio):
        _network, servers = trio
        from repro.core.naplet_id import NapletID

        # removing a mailbox that never existed is a no-op
        servers["s01"].messenger.remove_mailbox(
            NapletID.create("nobody", "s00", stamp="240101120000")
        )

    def test_a_naplet_sent_message_is_serialized_once(self, trio):
        """The sender's control block is billed the bytes the send built:
        one ``dumps`` per message, no second pickle just to size it."""
        _network, servers = trio
        dumps = servers["s01"].telemetry.serialize_seconds
        agent = PosterNaplet("poster")
        agent.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(agent, owner="ops")
        assert wait_until(lambda: servers["s01"].journal.count("naplet-retired") == 1)
        assert dumps.value(op="dumps").count == 1
        (record,) = servers["s01"].journal.find("naplet-retired", naplet=str(nid))
        assert record.detail["outcome"] == "completed"
        assert servers["s02"].messenger.special_mailbox_size() == 1
