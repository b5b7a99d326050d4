"""Chrome trace export: valid JSON, one consistent timeline, fault pins.

The exporter reads journal records only: an exported trace for a 3-hop
journey in a chaos space must be valid JSON with monotonically consistent
timestamps and contain the injected-fault annotation events.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.faults import FaultPlan
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line
from repro.telemetry import chrome_trace, write_chrome_trace
from repro.telemetry.journal import JournalRecord, SpaceJournal
from repro.telemetry.trace import Span
from repro.util.hlc import HLCStamp

from tests.conftest import CollectorNaplet

pytestmark = [pytest.mark.health, pytest.mark.chaos]


@pytest.fixture
def chaos_journey(space):
    """3-hop tour under injected delays: (admin, the space's merged journal).

    The tour naplet is the space's only one, so the journal holds its
    journey's spans and every fault the plan injected."""
    plan = FaultPlan(seed=13).delay(0.002)
    network, servers = space(
        VirtualNetwork(line(4, prefix="s"), fault_plan=plan),
        config=ServerConfig(health_cadence=0.05),
    )
    listener = repro.NapletListener()
    agent = CollectorNaplet("trace-tour")
    agent.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["s01", "s02", "s03"], post_action=ResultReport("visited")
            )
        )
    )
    admin = SpaceAdmin(servers)
    nid = servers["s00"].launch(agent, owner="alice", listener=listener)
    listener.next_report(timeout=15)
    assert admin.wait_space_idle()
    return admin, admin.harvest_journal()


def _non_meta(trace: dict) -> list[dict]:
    return [e for e in trace["traceEvents"] if e["ph"] != "M"]


def _span_record(span: Span) -> JournalRecord:
    """*span* as the journal of its server records it."""
    journal = SpaceJournal(span.server)
    journal.observe_span(span)
    (record,) = journal.snapshot()
    return record


def _record(server: str, kind: str, mono: float, **detail) -> JournalRecord:
    return JournalRecord(
        seq=1,
        hlc=HLCStamp(wall=1000.0 + mono, logical=0, node=server),
        kind=kind,
        category="event",
        server=server,
        wall=1000.0 + mono,
        mono=mono,
        detail=detail,
    )


class TestChromeTrace:
    def test_three_hop_chaos_trace_is_valid_and_consistent(self, chaos_journey):
        admin, records = chaos_journey
        assert any(
            r.category == "fault" for r in records
        ), "the fault plan injected nothing?"
        trace = chrome_trace(records, profiles=admin.top_naplets_by_cpu())
        # Valid JSON end to end.
        decoded = json.loads(json.dumps(trace))
        assert decoded["displayTimeUnit"] == "ms"
        events = _non_meta(decoded)
        # Monotonically consistent: sorted, non-negative, shared origin.
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert all(t >= 0 for t in timestamps)
        # The journey's hops and landings are there as complete events.
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "hop" in names and "landing" in names
        assert sum(1 for e in events if e["ph"] == "X" and e["name"] == "hop") == 3
        # Injected faults are pinned as instant annotations.
        faults = [e for e in events if e["ph"] == "i"]
        assert faults and all(e["cat"] == "fault" for e in faults)
        assert all(e["args"]["labels"] == ["delay"] for e in faults)

    def test_metadata_names_every_process_and_thread(self, chaos_journey):
        _admin, records = chaos_journey
        trace = chrome_trace(records)
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        named_pids = {
            e["pid"] for e in metadata if e["name"] == "process_name"
        }
        used_pids = {e["pid"] for e in _non_meta(trace)}
        assert used_pids <= named_pids
        process_names = {
            e["args"]["name"] for e in metadata if e["name"] == "process_name"
        }
        assert {"s00", "s01", "fault-injector"} <= process_names

    def test_write_chrome_trace_round_trips_through_disk(self, chaos_journey, tmp_path):
        _admin, records = chaos_journey
        path = tmp_path / "journey.json"
        written = write_chrome_trace(str(path), records)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == json.loads(json.dumps(written))
        assert loaded["traceEvents"]

    def test_profile_samples_become_counter_events(self):
        from repro.health.profile import ResourceProfile, ResourceSample

        profile = ResourceProfile("nap-1")
        for i in range(3):
            profile.append(
                ResourceSample(
                    wall=1000.0 + i,
                    mono=float(i),
                    cpu_seconds=0.1 * i,
                    wall_seconds=float(i),
                    messages_sent=i,
                    message_bytes=100 * i,
                )
            )
        trace = chrome_trace([], profiles=[("s01", profile)])
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 3
        assert counters[0]["name"] == "resources nap-1"
        assert counters[-1]["args"] == {"cpu_seconds": 0.2, "message_bytes": 200}

    def test_error_spans_keep_their_status(self):
        span = Span(
            trace_id="t",
            span_id="s",
            parent_id=None,
            name="hop",
            server="a",
            start_wall=1.0,
            start_mono=1.0,
            duration=0.1,
            status="error",
        )
        trace = chrome_trace([_span_record(span)])
        event = _non_meta(trace)[0]
        assert event["cat"] == "span,error"
        assert event["args"]["status"] == "error"

    def test_empty_inputs_yield_an_empty_but_valid_trace(self):
        trace = chrome_trace([])
        assert trace["traceEvents"] == []
        json.dumps(trace)


class TestInstantEvents:
    """Regression: dead-letter transitions and Alt failovers render as
    instant (``"i"``) events pinned to their server's row."""

    def test_instant_kinds_become_pinned_instants(self):
        records = [
            _record("s00", "message-dead-lettered", 1.0, target="n1"),
            _record("s00", "dead-letters-requeued", 2.0, delivered=3),
            _record("s01", "alt-failover", 3.0, failed="s02", error="down"),
            _record("s01", "naplet-launch", 4.0, naplet="n1"),  # not instant
        ]
        trace = chrome_trace(records)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == [
            "message-dead-lettered",
            "dead-letters-requeued",
            "alt-failover",
        ]
        assert all(e["cat"] == "event" and e["s"] == "t" for e in instants)
        assert instants[0]["args"] == {"target": "n1"}
        assert instants[2]["args"] == {"failed": "s02", "error": "down"}
        # Each instant pins to its server's process row.
        names_by_pid = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names_by_pid[instants[0]["pid"]] == "s00"
        assert names_by_pid[instants[2]["pid"]] == "s01"
        json.dumps(trace)

    def test_instants_share_the_monotonic_origin_with_spans(self):
        span = Span(
            trace_id="t", span_id="s", parent_id=None, name="hop", server="s00",
            start_wall=1001.0, start_mono=1.0, duration=0.5,
        )
        trace = chrome_trace(
            [_span_record(span), _record("s00", "alt-failover", 1.25)]
        )
        by_ph = {e["ph"]: e for e in _non_meta(trace)}
        assert by_ph["X"]["ts"] == 0.0
        assert by_ph["i"]["ts"] == pytest.approx(0.25e6)

    def test_journal_records_render_as_instants(self):
        journal = SpaceJournal("s00")
        journal.record("message-dead-lettered", target="n1")
        journal.record("dead-letters-requeued", requeued=1)
        journal.record("naplet-arrive", naplet="n1")
        trace = chrome_trace(journal.snapshot())
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == [
            "message-dead-lettered",
            "dead-letters-requeued",
        ]

    def test_live_alt_failover_lands_in_journal_and_trace(self, space):
        """A partitioned Alt primary burns over to its mirror; the burn is
        journaled as an ``alt-failover`` event and rendered as an instant."""
        import repro
        from repro.faults import FaultPlan, RetryPolicy
        from repro.itinerary import Itinerary
        from repro.itinerary.pattern import alt, seq, singleton
        from repro.simnet import full_mesh

        plan = FaultPlan(seed=11).partition("s02")
        network, servers = space(
            VirtualNetwork(full_mesh(4, prefix="s"), fault_plan=plan),
            config=ServerConfig(
                migration_retry=RetryPolicy(
                    max_attempts=3, base_delay=0.005, multiplier=1.5,
                    max_delay=0.02, jitter=0.0,
                )
            ),
        )
        listener = repro.NapletListener()
        agent = CollectorNaplet("mirror-tour")
        agent.set_itinerary(
            Itinerary(
                seq(
                    alt("s02", "s01"),
                    singleton("s03", post_action=ResultReport("visited")),
                )
            )
        )
        servers["s00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=15)
        assert report.payload == ["s01", "s03"]
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        burns = admin.harvest_journal(kind="alt-failover")
        assert burns and burns[0].detail["failed"] == "s02"
        trace = chrome_trace(admin.harvest_journal())
        instants = [e for e in _non_meta(trace) if e["ph"] == "i"]
        assert any(e["name"] == "alt-failover" for e in instants)
