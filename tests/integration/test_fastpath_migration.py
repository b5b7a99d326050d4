"""The one migration path: outcome, wire accounting, chase, rollback."""

from __future__ import annotations

import dataclasses
import pickle
import time

import repro
from repro.core.errors import LandingDeniedError
from repro.faults import RetryPolicy
from repro.itinerary import Itinerary, ResultReport, SeqPattern, seq
from repro.server import ServerConfig, SpaceAdmin
from repro.server.security import Rule, SecurityPolicy
from repro.simnet import line
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, StallNaplet
from tests.transport.envelopes import read_ack, read_envelope, write_envelope


class DenialSurvivor(repro.Naplet):
    """Travels into a denial, reports it home, then stays put spinning."""

    def on_start(self):
        try:
            self.travel()
        except LandingDeniedError as exc:
            self.report_home(f"denied: {exc}")
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.005)


class BrokenRule(Rule):
    """Grants everything, once its backend is up: while ``outages`` lasts,
    an evaluation raises."""

    outages = [0]

    def applies_to(self, features):
        if self.outages[0]:
            self.outages[0] -= 1
            raise RuntimeError("rule backend down")
        return super().applies_to(features)


def _tour_agent(route):
    agent = CollectorNaplet("tour")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
    )
    return agent


def _wire_frames(network, kind: str) -> int:
    return network.transport.meter.kind_stats(kind).frames


class TestOneExchangePerHop:
    def test_tour_outcome_and_directory_state(self, space):
        network, servers = space(line(4, prefix="s"))
        listener = repro.NapletListener()
        nid = servers["s00"].launch(_tour_agent(["s01", "s02", "s03"]), owner="alice",
                                    listener=listener)
        report = listener.next_report(timeout=10)
        assert report.payload == ["s01", "s02", "s03"]
        record = servers["s00"].directory_client.lookup(nid)
        assert record is not None
        assert record.server_urn == "naplet://s03"
        assert wait_until(lambda: servers["s01"].manager.footprint(nid) is not None)
        assert servers["s01"].manager.footprint(nid).departed_to == "naplet://s02"
        # A hop is exactly one transfer request, plus one one-way directory
        # registration when neither end hosts the authority: the launch
        # from home (the HOME-mode authority) is booked there on the ack.
        assert SpaceAdmin(servers).wait_space_idle(timeout=10)
        hops = 3
        assert _wire_frames(network, "naplet-transfer") == hops
        assert _wire_frames(network, "directory-event") == hops - 1
        assert sum(s.journal.count("hop") for s in servers.values()) == hops

    def test_transfer_dedup_table_keeps_only_the_id_text(self, space):
        _network, servers = space(line(4, prefix="s"))
        listener = repro.NapletListener()
        nid = servers["s00"].launch(_tour_agent(["s01", "s02", "s03"]), owner="alice",
                                    listener=listener)
        assert listener.next_report(timeout=10).payload == ["s01", "s02", "s03"]
        for name in ("s01", "s02", "s03"):
            table = servers[name].navigator._landed_transfers
            # A landing is remembered after the naplet starts, which can report first.
            assert wait_until(lambda: table, timeout=10)
            remembered = list(table.values())
            assert remembered == [str(nid)] and type(remembered[0]) is str

    def test_message_chases_moved_naplet(self, space):
        network, servers = space(line(5, prefix="s"))
        agent = StallNaplet("mover", spin_seconds=2.0)
        agent.set_itinerary(Itinerary(seq("s01", "s02")))
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(lambda: servers["s02"].manager.is_resident(nid), timeout=10)
        # Addressed at the server it already left: must chase along the trace.
        receipt = servers["s00"].messenger.post(
            None, nid, {"chase": True}, dest_urn="naplet://s01"
        )
        assert receipt.status == "delivered"
        assert receipt.final_server == "naplet://s02"
        assert servers["s01"].telemetry.messages_forwarded.value() >= 1
        servers["s00"].terminate_naplet(nid)
        assert servers["s02"].wait_idle(10)


class TestDenialRollback:
    """A denied landing must leave the naplet fully functional at the source."""

    def test_denial_rolls_back_residency_directory_and_mailbox(self, space):
        config = ServerConfig(max_residents=1)
        network, servers = space(line(3, prefix="s"), config=config)
        # A blocker fills s02 so the mover's landing there is denied.
        blocker = StallNaplet("blocker", spin_seconds=30.0)
        blocker.set_itinerary(Itinerary(seq("s02")))
        blocker_nid = servers["s00"].launch(blocker, owner="bob")
        assert wait_until(lambda: servers["s02"].manager.is_resident(blocker_nid))

        mover = DenialSurvivor("mover")
        mover.set_itinerary(Itinerary(seq("s01", "s02")))
        listener = repro.NapletListener()
        nid = servers["s00"].launch(mover, owner="alice", listener=listener)
        report = listener.next_report(timeout=10)
        assert "denied" in report.payload
        assert "server full" in report.payload
        # Rollback restored residency at the source ...
        assert servers["s01"].manager.is_resident(nid)
        # ... the directory still points at the source ...
        record = servers["s00"].directory_client.lookup(nid)
        assert record is not None
        assert record.server_urn == "naplet://s01"
        # ... and the mailbox still receives mail there.
        receipt = servers["s00"].messenger.post(None, nid, {"ping": 1})
        assert receipt.status == "delivered"
        assert receipt.final_server == "naplet://s01"
        for victim in (nid, blocker_nid):
            servers["s00"].terminate_naplet(victim)
        assert servers["s01"].wait_idle(10)
        assert servers["s02"].wait_idle(10)


class TestBrokenLandingCheck:
    def test_a_check_that_raises_is_a_retriable_rejection_not_a_denial(self, space):
        retry = RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.05, jitter=0.0)
        network, servers = space(
            line(3, prefix="s"), config=ServerConfig(migration_retry=retry)
        )
        BrokenRule.outages[0] = 1
        servers["s02"].security.policy = SecurityPolicy([BrokenRule.of({}, grants={"*"})])
        listener = repro.NapletListener()
        servers["s00"].launch(_tour_agent(["s01", "s02"]), owner="alice", listener=listener)
        # The broken check cost one attempt; the retry landed.
        assert listener.next_report(timeout=10).payload == ["s01", "s02"]
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle(timeout=10)
        assert servers["s01"].journal.count("migration-retry") == 1
        errors = [r for r in admin.harvest_journal() if r.kind == "landing-check-error"]
        assert len(errors) == 1
        assert "RuntimeError: rule backend down" in errors[0].detail["error"]
        # Never booked or reported as a denial, at either end.
        assert int(servers["s02"].telemetry.landings_denied.total()) == 0
        assert servers["s01"].journal.count("landing-denied") == 0


_WENT_OFF: list[str] = []


def _detonate() -> None:
    _WENT_OFF.append("boom")


class _Bomb:
    """Unpickling one is observable: it calls :func:`_detonate`."""

    def __reduce__(self):
        return (_detonate, ())


class TestTransferFrameChecks:
    """What the destination refuses, and in which order it looks."""

    @staticmethod
    def _landed_frame(space):
        """A space with a naplet resting at s01, and the frame that took it there."""
        network, servers = space(line(2, prefix="s"))
        captured = []
        landing = servers["s01"].navigator.handle_transfer
        servers["s01"].navigator.handle_transfer = (
            lambda frame: captured.append(frame) or landing(frame)
        )
        agent = StallNaplet("sitter", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        del servers["s01"].navigator.handle_transfer
        return servers, nid, captured[0]

    @staticmethod
    def _offer(servers, frame, **changes):
        """Hand s01 a doctored copy of *frame* under a fresh transfer-id."""
        headers = {**frame.headers, "transfer-id": "naplet://s00#doctored"}
        doctored = dataclasses.replace(frame, headers=headers, **changes)
        return read_ack(servers["s01"].navigator.handle_transfer(doctored))

    def test_landing_check_precedes_any_unpickling_of_the_image(self, space):
        servers, nid, frame = self._landed_frame(space)
        bomb = (pickle.dumps(_Bomb()),)
        _WENT_OFF.clear()
        servers["s01"].config.max_residents = 1  # the sitter fills it
        ack = self._offer(servers, frame, buffers=bomb)
        assert ack["denied"] and "server full" in ack["reason"]
        assert _WENT_OFF == []
        # Admitted, the same segment is unpickled (and refused as an image).
        servers["s01"].config.max_residents = None
        ack = self._offer(servers, frame, buffers=bomb)
        assert ack == {"ok": False, "reason": ack["reason"]}
        assert _WENT_OFF == ["boom"]
        assert servers["s01"].journal.count("landing") == 1
        servers["s00"].terminate_naplet(nid)

    def test_frame_without_image_or_with_undecodable_credential_is_rejected(self, space):
        servers, nid, frame = self._landed_frame(space)
        ack = self._offer(servers, frame, buffers=())
        assert ack == {"ok": False, "reason": "bad transfer frame: no image segment"}
        ack = self._offer(servers, frame, payload=b"\xde\xad" + frame.payload[2:])
        assert ack["ok"] is False and ack["reason"].startswith("bad transfer frame: ")
        assert "denied" not in ack and "need_full" not in ack
        assert servers["s01"].journal.count("landing") == 1
        assert int(servers["s01"].telemetry.landings_denied.total()) == 0
        servers["s00"].terminate_naplet(nid)

    def test_full_image_with_a_wrong_hash_is_corrupt_not_a_miss_to_recover(self, space):
        """Only a delta may ask for the full image: a full one that does not
        hash to what it announces has nothing left to re-ship."""
        servers, nid, frame = self._landed_frame(space)
        envelope = read_envelope(frame.buffers[0], frame.buffers[1:])
        assert envelope["mode"] == "full" and "base" not in envelope
        envelope["fields"] = {n: bytes(b) for n, b in envelope["fields"].items()}
        envelope["hash"] = "0" * 32
        ack = self._offer(servers, frame, buffers=(write_envelope(envelope),))
        assert ack["ok"] is False and "content hash" in ack["reason"]
        assert "need_full" not in ack and "denied" not in ack
        assert servers["s01"].journal.count("landing") == 1
        servers["s00"].terminate_naplet(nid)
