"""Post-office messaging end-to-end: delivery, forwarding, parking, DataComm."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.core.errors import NapletCommunicationError
from repro.itinerary import (
    Barrier,
    DataComm,
    Itinerary,
    ParPattern,
    ResultReport,
    SeqPattern,
    SingletonPattern,
    seq,
)
from repro.server.messages import UserMessage
from repro.simnet import line, star
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, EchoNaplet, StallNaplet


class Exchanger(CollectorNaplet):
    """Deposits a greeting under 'message' for DataComm to broadcast."""

    def on_start(self):
        context = self.require_context()
        self.state.set("message", f"hi-from-{context.hostname}")
        self.travel()


class Synced(CollectorNaplet):
    """Marks arrival; used with a Barrier post-action."""

    def on_start(self):
        self.state.set("arrived", True)
        self.travel()


class TestDirectDelivery:
    def test_server_posts_to_resident_naplet(self, small_line):
        network, servers = small_line
        agent = EchoNaplet("echo")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["s01", "s02"], post_action=ResultReport("echo"))
            )
        )
        listener = repro.NapletListener()
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        receipt = servers["s00"].messenger.post(None, nid, {"hello": 1})
        assert receipt.status == "delivered"
        assert receipt.final_server == "naplet://s01"
        report = listener.next_report(timeout=10)
        assert report.payload == {"hello": 1}

    def test_confirmation_kept_for_inquiry(self, small_line):
        network, servers = small_line
        agent = EchoNaplet("echo")
        agent.set_itinerary(Itinerary(SeqPattern.of_servers(["s01"])))
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        receipt = servers["s00"].messenger.post(None, nid, "payload")
        kept = servers["s00"].messenger.receipt_for(receipt.message_id)
        assert kept == receipt


class TestForwarding:
    def test_message_chases_moved_naplet(self, space):
        network, servers = space(line(5, prefix="s"))
        agent = StallNaplet("mover", spin_seconds=1.0)
        agent.set_itinerary(Itinerary(seq("s01", "s02", "s03")))

        listener = repro.NapletListener()
        final = StallNaplet("rx", spin_seconds=6.0)
        pattern = SeqPattern(
            [SingletonPattern.to("s03", post_action=ResultReport("controls"))]
        )
        # Simpler: post to the mover after it left s01, addressed at s01.
        nid = servers["s00"].launch(agent, owner="alice")
        # wait until s01's record of it says it has moved on
        assert wait_until(
            lambda: getattr(servers["s01"].manager.footprint(nid), "departed_to", None),
            timeout=10,
        )
        receipt = servers["s00"].messenger.post(
            None, nid, {"chase": True}, dest_urn="naplet://s01"
        )
        # The chase may find the mover resident ("delivered") or BEAT the
        # in-flight mover to the next server ("parked") — parked mail is
        # handed over when it lands.
        assert receipt.status in ("delivered", "parked")
        assert receipt.final_server != "naplet://s01"
        assert servers["s01"].telemetry.messages_forwarded.value() >= 1
        # Whatever raced, the park-then-deliver guarantee holds: the
        # message ends up in the mover's mailbox on some server.
        assert wait_until(
            lambda: sum(
                s.telemetry.messages_delivered.value() for s in servers.values()
            )
            >= 1,
            timeout=10,
        )

    def test_locator_cache_updated_by_confirmation(self, space):
        network, servers = space(line(4, prefix="s"))
        agent = StallNaplet("mover", spin_seconds=1.0)
        agent.set_itinerary(Itinerary(seq("s01", "s02")))
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(lambda: servers["s02"].manager.is_resident(nid), timeout=10)
        servers["s00"].messenger.post(None, nid, "x", dest_urn="naplet://s01")
        # after the chase, s00's locator knows the real location
        assert servers["s00"].locator.locate(nid) == "naplet://s02"


class TestSpecialMailbox:
    def test_early_message_parks_then_delivers(self, small_line):
        network, servers = small_line
        agent = EchoNaplet("late")
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(["s02"], post_action=ResultReport("echo")))
        )
        listener = repro.NapletListener()

        # Pre-assign identity so we can address the naplet before launch.
        from repro.core.naplet_id import NapletID

        servers["s00"].authority.register_owner("alice")
        nid = NapletID.create("alice", "s00", stamp="240101120000")
        agent._assign_identity(
            nid, servers["s00"].authority.issue(nid, agent.codebase, {})
        )

        # The message arrives at s02 before the naplet does.
        receipt = servers["s00"].messenger.post(
            None, nid, {"early": True}, dest_urn="naplet://s02"
        )
        assert receipt.status == "parked"
        assert servers["s02"].messenger.special_mailbox_size(nid) == 1

        servers["s00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=10)
        assert report.payload == {"early": True}
        assert servers["s02"].messenger.special_mailbox_size(nid) == 0

    def test_message_in_spawn_window_chases_the_clone(self, small_line):
        """A clone is marked resident at its fork server before its
        transfer; a message handed in there in that window must follow it."""
        network, servers = small_line
        fork = servers["s00"]
        real_transfer = fork.navigator.transfer
        injected = []

        def transfer(naplet, dest_urn):
            nid = naplet.naplet_id
            if nid not in injected and fork.manager.is_resident(nid):
                injected.append(nid)
                peer = servers["s01"]
                message = UserMessage(
                    sender="peer", target=nid, body=f"early-{nid}", origin=peer.urn
                )
                frame = peer.messenger._frame(message, fork.urn)
                reply = fork.messenger.handle_message_frame(frame).decode().split(" ")
                assert reply[0] == "delivered"
            real_transfer(naplet, dest_urn)

        fork.navigator.transfer = transfer
        agent = EchoNaplet("forked")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(["s01", "s02"], per_branch_action=ResultReport("echo"))
            )
        )
        listener = repro.NapletListener()
        parent = fork.launch(agent, owner="alice", listener=listener)
        reports = listener.reports(2, timeout=20)
        (clone,) = [nid for nid in injected if nid != parent]
        assert sorted(r.payload for r in reports) == sorted(f"early-{n}" for n in injected)
        assert fork.messenger.mailbox_of(clone) is None
        assert fork.messenger.special_mailbox_size() == 0


class TestUndeliverable:
    def test_unlocatable_naplet_raises(self, small_line):
        network, servers = small_line
        from repro.core.naplet_id import NapletID

        ghost = NapletID.create("ghost", "s03", stamp="240101120000")
        with pytest.raises(NapletCommunicationError):
            servers["s00"].messenger.post(None, ghost, "x")


class TestCollectives:
    def test_datacomm_exchanges_between_siblings(self, space):
        network, servers = space(star(3))

        agent = Exchanger("xchg")
        listener = repro.NapletListener()
        exchange = DataComm(message_key="message", gather_key="gathered", timeout=15.0)
        from repro.itinerary import ChainOperable

        action = ChainOperable((exchange, ResultReport("gathered")))
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(
                    ["dev00", "dev01", "dev02"], per_branch_action=action
                )
            )
        )
        servers["station"].launch(agent, owner="alice", listener=listener)
        reports = listener.reports(3, timeout=30)
        for envelope in reports:
            bodies = sorted(m.body for m in envelope.payload)
            assert len(bodies) == 2  # one message from each sibling
            assert all(b.startswith("hi-from-dev") for b in bodies)

    def test_barrier_synchronises_siblings(self, space):
        network, servers = space(star(3))

        agent = Synced("barrier")
        listener = repro.NapletListener()
        from repro.itinerary import ChainOperable

        action = ChainOperable((Barrier(timeout=20.0), ResultReport("arrived")))
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(
                    ["dev00", "dev01", "dev02"], per_branch_action=action
                )
            )
        )
        servers["station"].launch(agent, owner="alice", listener=listener)
        reports = listener.reports(3, timeout=30)
        assert len(reports) == 3
