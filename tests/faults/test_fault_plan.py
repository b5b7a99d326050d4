"""FaultPlan grammar, and the plan carried out by a transport (no servers involved)."""

from __future__ import annotations

import pytest

from repro.core.errors import NapletCommunicationError
from repro.faults import FaultPlan, FaultRule
from repro.telemetry.journal import SpaceJournal
from repro.transport.base import Frame, FrameKind, Transport, urn_of


def frame(kind=FrameKind.MESSAGE, src="a", dst="b", payload=b"payload-bytes"):
    return Frame(kind=kind, source=urn_of(src), dest=urn_of(dst), payload=payload)


class FakeTransport(Transport):
    """Transport double recording every frame its own delivery moved."""

    def __init__(self, plan: FaultPlan | None = None):
        super().__init__()
        self.fault_plan = plan
        self.sent: list[Frame] = []
        self.requested: list[Frame] = []
        self.paused: list[float] = []

    def _send(self, f: Frame) -> None:
        self.sent.append(f)

    def _request(self, f: Frame, timeout=None) -> bytes:
        self.requested.append(f)
        return b"reply"

    def pause(self, seconds: float) -> None:
        self.paused.append(seconds)


class TestFaultPlan:
    def test_rule_matches_kind_src_dst(self):
        rule = FaultRule("drop", kind=FrameKind.MESSAGE, src="a", dst="b")
        assert rule.matches(frame())
        assert not rule.matches(frame(kind=FrameKind.REPORT))
        assert not rule.matches(frame(src="x"))
        assert not rule.matches(frame(dst="x"))

    def test_src_dst_match_host_portion_of_urns(self):
        rule = FaultRule("drop", src="a")
        assert rule.matches(frame(src="a"))

    def test_nth_fires_exactly_once_on_the_nth_match(self):
        plan = FaultPlan().drop(kind=FrameKind.MESSAGE, nth=2)
        decisions = [plan.decide(frame()) for _ in range(4)]
        assert [d.drop for d in decisions] == [False, True, False, False]

    def test_times_caps_firings(self):
        plan = FaultPlan().drop(times=2)
        assert [plan.decide(frame()).drop for _ in range(4)] == [
            True, True, False, False,
        ]

    def test_kill_link_is_directional_and_bounded(self):
        plan = FaultPlan().kill_link("a", "b", sends=1)
        assert plan.decide(frame(src="a", dst="b")).drop
        assert not plan.decide(frame(src="b", dst="a")).drop
        assert not plan.decide(frame(src="a", dst="b")).drop  # budget spent

    def test_probability_is_deterministic_under_a_seed(self):
        def firing_pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.rule(FaultRule("drop", probability=0.5))
            return [plan.decide(frame()).drop for _ in range(32)]

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert any(firing_pattern(7))
        assert not all(firing_pattern(7))

    def test_partition_drops_both_directions_before_rules(self):
        plan = FaultPlan().partition("b")
        out = plan.decide(frame(src="a", dst="b"))
        back = plan.decide(frame(src="b", dst="a"))
        assert out.drop and back.drop
        assert out.labels == ["partition"]

    def test_composing_delay_duplicate_corrupt(self):
        plan = (
            FaultPlan()
            .delay(0.25, kind=FrameKind.MESSAGE)
            .duplicate(kind=FrameKind.MESSAGE)
            .corrupt(kind=FrameKind.MESSAGE)
        )
        decision = plan.decide(frame())
        assert decision.delay == 0.25
        assert decision.duplicate and decision.corrupt and not decision.terminal

    def test_terminal_drop_stops_rule_evaluation(self):
        plan = FaultPlan().drop().delay(1.0)
        decision = plan.decide(frame())
        assert decision.drop and decision.delay == 0.0

    def test_crash_during_transfer_is_one_shot(self):
        plan = FaultPlan().crash_during_transfer(when="after")
        transfer = frame(kind=FrameKind.NAPLET_TRANSFER)
        assert plan.decide(transfer).crash_after
        assert not plan.decide(transfer).crash_after
        assert not plan.decide(frame()).crash_after  # wrong kind never matched

    def test_heal_clears_partitions_and_exhausts_rules(self):
        plan = FaultPlan().drop().partition("b")
        plan.heal()
        assert not plan.decide(frame(src="a", dst="b")).drop
        assert not plan.is_partitioned("b")

    def test_full_heal_notifies_listeners_but_partial_does_not(self):
        plan = FaultPlan().partition("b")
        calls = []
        plan.on_heal(lambda: calls.append(True))
        plan.heal_host("b")  # partial: other faults may still be active
        assert calls == []
        plan.heal()
        assert len(calls) == 1

    def test_summary_reports_match_and_fire_counts(self):
        plan = FaultPlan().drop(times=1)
        plan.decide(frame())
        plan.decide(frame())
        (row,) = plan.summary()
        assert row["fired"] == 1 and row["matched"] == 2 and row["exhausted"]


class TestTransportFaults:
    def test_clean_frames_pass_through_untouched(self):
        transport = FakeTransport(FaultPlan())
        f = frame()
        transport.send(f)
        assert transport.request(frame()) == b"reply"
        assert transport.sent == [f] and len(transport.requested) == 1

    def test_dropped_send_is_silent_but_dropped_request_raises(self):
        transport = FakeTransport(FaultPlan().drop(times=2))
        transport.send(frame())  # one-way loss: no error, nothing delivered
        with pytest.raises(NapletCommunicationError):
            transport.request(frame())
        assert transport.sent == [] and transport.requested == []

    def test_refuse_dial_raises_before_any_bytes_move(self):
        transport = FakeTransport(FaultPlan().refuse_dial())
        with pytest.raises(NapletCommunicationError, match="injected"):
            transport.request(frame())
        with pytest.raises(NapletCommunicationError, match="refused dial"):
            transport.send(frame())  # as a real refused dial does
        assert transport.requested == [] and transport.sent == []

    def test_duplicate_delivers_twice(self):
        transport = FakeTransport(FaultPlan().duplicate(times=1))
        transport.request(frame())
        assert len(transport.requested) == 2

    def test_delay_pauses_on_the_transport_then_delivers(self):
        transport = FakeTransport(FaultPlan().delay(0.25, times=1))
        transport.send(frame())
        assert transport.paused == [0.25] and len(transport.sent) == 1

    def test_corrupt_mangles_leading_payload_bytes(self):
        transport = FakeTransport(FaultPlan().corrupt(times=1))
        transport.send(frame(payload=b"hello world"))
        (delivered,) = transport.sent
        assert delivered.payload.startswith(b"\xde\xad")
        assert delivered.payload[2:] == b"llo world"

    def test_crash_after_delivers_then_raises(self):
        plan = FaultPlan()
        plan.rule(FaultRule("crash", when="after", times=1))
        transport = FakeTransport(plan)
        with pytest.raises(NapletCommunicationError):
            transport.request(frame())
        assert len(transport.requested) == 1  # the exchange DID complete remotely

    def test_fault_counter_lands_on_the_transport_registry(self):
        transport = FakeTransport(FaultPlan().drop(times=1))
        transport.send(frame())
        assert transport.metrics.snapshot().total("fault_injected_total") == 1.0

    def test_faults_are_journaled_at_the_source(self):
        transport = FakeTransport(FaultPlan().drop(times=1))
        journal = SpaceJournal("a")
        transport.bind_event_log(urn_of("a"), journal)
        transport.send(frame())
        (record,) = journal.records(category="fault")
        assert record.kind == "fault-injected"
        assert record.detail == {
            "labels": ["drop"],
            "kind": FrameKind.MESSAGE,
            "source": urn_of("a"),
            "dest": urn_of("b"),
        }

    @pytest.mark.parametrize("op", ["send", "request"])
    def test_a_failing_duplicate_copy_is_journaled_not_swallowed(self, op):
        transport = FakeTransport(FaultPlan().duplicate(times=1))
        deliver = getattr(transport, f"_{op}")
        calls = []

        def first_copy_raises(f, *args):
            calls.append(f)
            if len(calls) == 1:
                raise RuntimeError("duplicate copy blew up")
            return deliver(f, *args)

        setattr(transport, f"_{op}", first_copy_raises)
        journal = SpaceJournal("a")
        transport.bind_event_log(urn_of("a"), journal)
        getattr(transport, op)(frame())  # the real exchange still goes through
        assert len(calls) == 2
        (error,) = journal.find("fault-duplicate-error")
        assert error.category == "fault"
        assert error.detail["labels"] == ["duplicate"]
        assert error.detail["error"] == repr(RuntimeError("duplicate copy blew up"))
