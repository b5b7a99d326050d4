"""Messenger edge paths: unreachable forwards, missing receipts, reports."""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import NapletCommunicationError
from repro.itinerary import Itinerary, seq
from repro.server import SystemControl, deploy
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
        from tests.core.test_naplet import _identified

        ghost = _identified("ghost")
        nid = ghost.naplet_id
        # park a message at s01 for a naplet that has not been there yet
        receipt = servers["s00"].messenger.post(
            None, nid, "early", dest_urn="naplet://s01"
        )
        assert receipt.status == "parked"
        network.fault_plan.partition("s02")
        # it is forked at s01 and leaves toward the partitioned s02: chasing
        # it with the parked message must not raise, and dead-letters it
        manager = servers["s01"].manager
        manager.record_arrival(ghost, arrived_from=None)
        record = manager.begin_departure(nid, "naplet://s02")
        servers["s01"].messenger.chase(manager.end_departure(nid, record), "naplet://s02")
        assert servers["s01"].messenger.special_mailbox_size(nid) == 0
        assert len(servers["s01"].messenger.dead_letters) == 1

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
        network.fault_plan.partition("s02")
        manager = servers["s01"].manager
        block = manager.control_block(nid)
        record = manager.begin_departure(nid, "naplet://s02")
        servers["s01"].messenger.chase(manager.end_departure(nid, record), "naplet://s02")
        assert servers["s01"].messenger.mailbox_of(nid) is None
        # only the footprint is left; the naplet's thread, still spinning
        # at s01, is stopped through its control block
        assert manager.control_block(nid) is None
        block.post_interrupt(SystemControl.TERMINATE, None)
        assert servers["s01"].wait_idle(10)

    def test_remove_mailbox_without_forward_drops_quietly(self, trio):
        _network, servers = trio
        from repro.core.naplet_id import NapletID

        # retiring a naplet that never had a mailbox here is a no-op
        nobody = NapletID.create("nobody", "s00", stamp="240101120000")
        servers["s01"].manager.record_retirement(nobody, "completed")
        assert servers["s01"].manager.footprint(nobody) is None

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
