"""Flight-recorder journal: ring mechanics, writing and reading, the one
record selection, harvest, metrics.

Unit half: a bare :class:`SpaceJournal` fed synthetic events and spans,
and ``select``/``order``/dump round-trip over synthetic timelines.
Integration half: a live 3-server space whose journals fill as its
components run, harvested both in-process
(:meth:`SpaceAdmin.harvest_journal`) and over the wire (the harvest probe),
with the journal's own gauges and per-kind counter on the metrics page.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin
from repro.simnet import line
from repro.telemetry import render_metrics_text
from repro.telemetry.journal import (
    RING_BOUND,
    JournalRecord,
    SpaceJournal,
    causal_key,
    dump_records,
    format_record,
    load_records,
    merge_journals,
    order,
    select,
    span_from_record,
)
from repro.telemetry.trace import Span
from repro.util.hlc import HLCStamp

from tests.conftest import CollectorNaplet, synthetic_timeline

pytestmark = pytest.mark.health


def _tour(servers, hosts, name="journal-tour"):
    listener = repro.NapletListener()
    agent = CollectorNaplet(name)
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(hosts, post_action=ResultReport("visited")))
    )
    nid = servers[sorted(servers)[0]].launch(agent, owner="alice", listener=listener)
    report = listener.next_report(timeout=15)
    return nid, report


class TestSpaceJournal:
    def test_append_stamps_and_bounds_the_ring(self):
        """Past RING_BOUND the ring keeps the newest records, in seq order,
        and counts exactly what it let go."""
        journal = SpaceJournal("s00")
        extra = 5
        for i in range(RING_BOUND + extra):
            journal.append(kind=f"k{i}")
        assert journal.depth == RING_BOUND
        assert journal.total_appended == RING_BOUND + extra
        assert journal.dropped == journal.total_appended - journal.depth == extra
        kept = journal.snapshot()
        assert kept[0].kind == f"k{extra}"
        assert kept[-1].kind == f"k{RING_BOUND + extra - 1}"
        # Stamps and sequence numbers strictly increase.
        assert [r.seq for r in kept] == list(range(extra + 1, RING_BOUND + extra + 1))
        assert kept == sorted(kept, key=causal_key)

    def test_disabled_journal_records_nothing(self):
        journal = SpaceJournal("s00", enabled=False)
        journal.append(kind="k")
        assert journal.record("e", naplet="n1") is None
        assert journal.depth == 0
        assert journal.header_stamp() is None

    def test_record_extracts_naplet_and_category(self):
        journal = SpaceJournal("s00")
        journal.record("naplet-depart", naplet="alice@s00:1:0", dest="naplet://s01")
        journal.record("message-dead-lettered", target="bob@s00:2:0")
        journal.record("clone-spawned", parent="alice@s00:1:0", clone="alice@s00:1:1")
        depart, dead, spawned = journal.snapshot()
        assert depart.naplet == "alice@s00:1:0"
        assert depart.category == "event"
        assert depart.detail == {"naplet": "alice@s00:1:0", "dest": "naplet://s01"}
        assert dead.naplet == "bob@s00:2:0"
        assert dead.category == "deadletter"
        assert spawned.naplet == "alice@s00:1:1"

    def test_find_and_count_match_kind_and_every_detail(self):
        journal = SpaceJournal("s00")
        journal.record("arrive", naplet="a", server="s1")
        journal.record("arrive", naplet="b", server="s1")
        journal.record("depart", naplet="a", server="s1")
        assert journal.count("arrive") == 2
        assert journal.count("arrive", naplet="a") == 1
        assert journal.count("depart", server="s1") == 1
        assert journal.count("arrive", naplet="a", server="s2") == 0
        (found,) = journal.find("depart")
        assert found.matches("depart", naplet="a")
        assert not found.matches("depart", naplet="a", missing=3)
        assert not found.matches("arrive")

    def test_observe_span_round_trips_through_span_from_record(self):
        journal = SpaceJournal("s00")
        span = Span(
            trace_id="t1",
            span_id="sp1",
            parent_id="pp1",
            name="hop",
            server="s00",
            start_wall=10.0,
            start_mono=5.0,
            duration=0.25,
            attributes={"naplet": "n1", "dest": "naplet://s01"},
            status="error",
        )
        journal.observe_span(span)
        (record,) = journal.snapshot()
        assert record.category == "span"
        assert record.trace_id == "t1"
        assert span_from_record(record) == span

    def test_span_from_record_rejects_non_spans(self):
        journal = SpaceJournal("s00")
        journal.append(kind="k")
        with pytest.raises(ValueError):
            span_from_record(journal.snapshot()[0])

    def test_receive_advances_the_clock_and_ignores_garbage(self):
        journal = SpaceJournal("s00")
        future = HLCStamp(wall=9e9, logical=0, node="other")
        journal.receive(future.encode())
        assert journal.clock.peek().wall == 9e9
        journal.receive("not-a-stamp")  # must not raise
        journal.receive("")  # must not raise

    def test_records_filters_compose(self):
        journal = SpaceJournal("s00")
        journal.append(kind="a", category="event", naplet="n1")
        journal.append(kind="b", category="span", naplet="n1", trace_id="t")
        journal.append(kind="a", category="event", naplet="n2")
        assert [r.naplet for r in journal.records(kind="a")] == ["n1", "n2"]
        assert [r.kind for r in journal.records(naplet="n1")] == ["a", "b"]
        assert [r.kind for r in journal.records(category="span")] == ["b"]
        assert [r.kind for r in journal.records(trace_id="t")] == ["b"]
        assert [r.seq for r in journal.records(after_seq=2)] == [3]
        assert len(journal.records(limit=2)) == 2

    def test_slice_for_matches_detail_mentions(self):
        journal = SpaceJournal("s00")
        journal.append(kind="x", detail={"target": "n9"})
        journal.append(kind="y", naplet="n9")
        journal.append(kind="z", naplet="other")
        assert [r.kind for r in journal.slice_for("n9")] == ["x", "y"]

    def test_merge_journals_realizes_the_hlc_total_order(self):
        a = SpaceJournal("a", time_source=lambda: 100.0)
        b = SpaceJournal("b", time_source=lambda: 200.0)
        a.append(kind="a1")
        b.append(kind="b1")
        a.append(kind="a2")
        timeline = merge_journals([a.snapshot(), b.snapshot()])
        assert [r.kind for r in timeline] == ["a1", "a2", "b1"]

    def test_describe_from_dict_round_trips(self):
        journal = SpaceJournal("s00")
        journal.append(kind="k", naplet="n", trace_id="t", detail={"x": 1})
        record = journal.snapshot()[0]
        assert JournalRecord.from_dict(record.describe()) == record

    def test_format_record_is_one_line_and_greppable(self):
        journal = SpaceJournal("s00")
        journal.append(kind="naplet-depart", naplet="n1", detail={"dest": "d"})
        line_out = format_record(journal.snapshot()[0])
        assert "\n" not in line_out
        assert "naplet-depart" in line_out and "dest=d" in line_out


class TestSelect:
    def test_criteria_compose_with_and_semantics(self):
        records = synthetic_timeline()
        assert select(records) == records
        assert [r.kind for r in select(records, naplet="n1")] == [
            "naplet-launch",
            "naplet-depart",
            "naplet-arrive",
        ]
        assert [r.kind for r in select(records, naplet="n1", server="s01")] == [
            "naplet-arrive"
        ]
        assert [r.kind for r in select(records, category="deadletter")] == [
            "message-dead-lettered"
        ]
        assert [r.kind for r in select(records, since=150.0)] == [
            "naplet-arrive",
            "hop",
        ]
        assert len(select(records, until=150.0)) == 3
        assert [r.kind for r in select(records, trace_id="t1", limit=1)] == ["hop"]
        assert [r.seq for r in select(records, server="s00", after_seq=2)] == [3]

    def test_journey_is_the_whole_trace_under_either_spelling(self):
        """A naplet id resolves to its trace, a trace id to the naplets it
        names (clones included); both spellings select the same records."""
        records = synthetic_timeline()
        by_naplet = select(records, journey="n1")
        assert [r.kind for r in by_naplet] == [
            "naplet-launch",
            "naplet-depart",
            "naplet-arrive",
            "hop",  # written under the clone's name, kept by the shared trace
        ]
        assert select(records, journey="t1") == by_naplet
        assert select(records, journey="n1", kind="hop") == by_naplet[-1:]
        assert select(records, journey="nobody") == []

    def test_order_causal_vs_wall(self):
        records = synthetic_timeline()
        causal = order(records, causal=True)
        assert [r.kind for r in causal] == [
            "naplet-launch",
            "naplet-depart",
            "message-dead-lettered",
            "naplet-arrive",
            "hop",
        ]
        assert causal == order(records)  # no skew here: the two orders agree


class TestDumpRoundTrip:
    def test_dump_then_load_preserves_records(self, tmp_path):
        records = synthetic_timeline()
        path = tmp_path / "journal.json"
        dump_records(str(path), records)
        assert load_records(str(path)) == records

    def test_load_accepts_a_bare_list_and_rejects_anything_else(self, tmp_path):
        records = synthetic_timeline()
        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps([r.describe() for r in records]), encoding="utf-8"
        )
        assert load_records(str(path)) == records
        for bogus in ('"just a string"', '{"records": [{"kind": "x"}]}', "[1]"):
            path.write_text(bogus, encoding="utf-8")
            with pytest.raises(ValueError, match="not a journal dump"):
                load_records(str(path))


class TestJournalInSpace:
    def test_observers_feed_the_journal_without_new_call_sites(self, space):
        _net, servers = space(line(3, prefix="s"))
        nid, _ = _tour(servers, ["s01", "s02"])
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        timeline = admin.harvest_journal()
        kinds = {r.kind for r in timeline}
        # Component events and tracer spans both land in the one ring.
        assert {"naplet-launch", "naplet-depart", "naplet-arrive"} <= kinds
        assert {"hop", "landing"} <= kinds
        assert timeline == sorted(timeline, key=causal_key)
        # Filtered harvest: only this naplet's records.
        mine = admin.harvest_journal(naplet=str(nid))
        assert mine and all(r.naplet == str(nid) for r in mine)

    def test_journal_service_is_an_open_service(self, space):
        """The journal is a kind of the one open ``harvest`` service."""
        _net, servers = space(line(2, prefix="s"))
        _tour(servers, ["s01"])
        manager = servers["s01"].resource_manager
        assert manager.open_service_names() == ["harvest"]
        service = manager._open_services["harvest"]
        row = service.harvest(("journal",), category="span")
        assert row["status"]["journal"] == "enabled"
        assert row["status"]["journal_depth"] > 0
        assert row["status"]["journal_dropped"] == 0
        dicts = row["journal"]
        assert dicts and all(d["category"] == "span" for d in dicts)
        with pytest.raises(ValueError, match="unknown harvest kind"):
            service.harvest(("spans",))

    def test_on_site_filter_carries_only_what_was_asked_for(self, space):
        from repro.health import harvest_via_probe

        _net, servers = space(line(3, prefix="s"))
        _tour(servers, ["s01", "s02"])
        assert SpaceAdmin(servers).wait_space_idle()
        rows = harvest_via_probe(
            servers["s00"],
            ["s00", "s01", "s02"],
            repro.NapletListener(),
            kinds=("journal",),
            category="perf",
        )
        kinds = [d["kind"] for row in rows for d in row["journal"]]
        assert kinds and set(kinds) == {"hop-cost"}
        assert all(set(row) == {"server", "status", "journal"} for row in rows)

    def test_probe_harvest_matches_in_process_harvest(self, space):
        from repro.health import harvest_via_probe, merged_journal

        _net, servers = space(line(3, prefix="s"))
        nid, _ = _tour(servers, ["s01", "s02"])
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        listener = repro.NapletListener()
        over_wire = merged_journal(
            harvest_via_probe(
                servers["s00"], ["s00", "s01", "s02"], listener, kinds=("journal",)
            )
        )
        assert over_wire == sorted(over_wire, key=causal_key)
        # The tour settled before the probe launched, so both collection
        # paths must agree exactly on the tour naplet's records (the
        # probe's own journey adds records under other naplet ids).
        key = str(nid)
        wire_keys = {(r.server, r.seq) for r in over_wire if r.naplet == key}
        local_keys = {
            (r.server, r.seq) for r in admin.harvest_journal(naplet=key)
        }
        assert wire_keys and wire_keys == local_keys

    def test_depth_and_dropped_gauges_and_kind_counter(self, space):
        _net, servers = space(line(2, prefix="s"))
        _tour(servers, ["s01"])
        server = servers["s00"]
        text = render_metrics_text(server.telemetry.registry.snapshot())
        assert "naplet_journal_depth" in text
        assert "naplet_journal_dropped_records 0" in text
        assert 'naplet_journal_records_total{kind="naplet-launch"} 1' in text
        # Past the ring bound the gauges follow the ring (background
        # loops stopped so nothing else appends between the reads).
        for each in servers.values():
            each.health.stop()
        for _ in range(RING_BOUND):
            server.journal.record("tick")
        snap = server.telemetry.registry.snapshot()
        journal = server.journal
        assert snap.total("naplet_journal_depth") == journal.depth == RING_BOUND
        assert (
            snap.total("naplet_journal_dropped_records")
            == journal.dropped
            == journal.total_appended - RING_BOUND
            > 0
        )
        assert snap.total("naplet_journal_records_total") == journal.total_appended

    def test_kind_label_is_escaped_on_the_metrics_page(self, space):
        """An event kind with exposition-reserved characters must not
        corrupt the page: one sample per line, reserved chars escaped."""
        _net, servers = space(line(2, prefix="s"))
        server = servers["s00"]
        server.journal.record('odd"kind\nwith\\chars', naplet="n1")
        text = render_metrics_text(server.telemetry.registry.snapshot())
        assert 'kind="odd\\"kind\\nwith\\\\chars"' in text
        samples = [l for l in text.splitlines() if "naplet_journal_records" in l]
        assert all(l.startswith("#") or l.count("} ") == 1 for l in samples)

    def test_journal_disabled_space_still_works(self, space):
        """The journal is on exactly when telemetry is: a dark space tours
        as usual and records nothing at all."""
        from repro.server import ServerConfig

        _net, servers = space(
            line(2, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        _tour(servers, ["s01"])
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        assert admin.harvest_journal() == []
        assert all(s.journal.total_appended == 0 for s in servers.values())
        (row, _) = admin.harvest(("journal",))
        assert row["status"]["journal"] == "disabled"
        assert row["status"]["telemetry"] == "disabled"
