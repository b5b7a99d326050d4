"""Per-hop cost attribution, end to end on a live space.

Every successful migration must leave (a) a ``hop`` span — its hop-cost
record — in the flight recorder, (b) observations in the ``naplet_hop_bytes`` /
``naplet_serialize_seconds`` histograms, (c) a bytes column in the
journey's critical path, and (d) counter tracks in the Chrome export —
the four surfaces DESIGN.md §6.6 promises — and ``naplet hops`` prints the
table from a saved dump of (a).
"""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.perf import hop_cost_rows, render_hop_costs
from repro.server import ServerConfig, SpaceAdmin
from repro.simnet import line
from repro.telemetry import chrome_trace, dump_records
from tests.conftest import CollectorNaplet

pytestmark = pytest.mark.perf

ROUTE = ["s01", "s02", "s03"]


def _tour(servers):
    listener = repro.NapletListener()
    agent = CollectorNaplet("hop-cost-tour")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited")))
    )
    nid = servers["s00"].launch(agent, owner="perf", listener=listener)
    assert listener.next_report(timeout=15).payload == ROUTE
    return nid


@pytest.fixture
def toured(small_line):
    _network, servers = small_line
    admin = SpaceAdmin(servers)
    nid = _tour(servers)
    assert admin.wait_space_idle()
    return servers, admin, nid


class TestJournalRecords:
    def test_every_hop_leaves_one_perf_record(self, toured):
        servers, admin, nid = toured
        records = admin.harvest_journal(category="span", naplet=str(nid))
        hops = [r for r in records if r.kind == "hop"]
        assert len(hops) == len(ROUTE)
        # Causal order follows the route.
        assert [r.detail["attributes"]["source"] for r in hops] == ["s00", "s01", "s02"]

    def test_record_sorts_at_its_departure_however_late_it_is_written(
        self, small_line, monkeypatch
    ):
        """The hop span closes after the ack, when the naplet is already
        running — and may have left again — at the destination; its causal
        position is the acked frame's stamp, not the moment it closes."""
        from repro.util.concurrency import wait_until

        _network, servers = small_line
        navigator = servers["s01"].navigator
        real = navigator._transfer_acked

        def landings() -> int:
            return sum(server.journal.count("landing") for server in servers.values())

        def late(*args, **kwargs):
            # The whole rest of the tour lands before this ack is booked.
            wait_until(lambda: landings() == len(ROUTE), timeout=10)
            real(*args, **kwargs)

        monkeypatch.setattr(navigator, "_transfer_acked", late)
        admin = SpaceAdmin(servers)
        nid = _tour(servers)
        assert admin.wait_space_idle()
        assert wait_until(lambda: len(admin.harvest_journal(naplet=str(nid), kind="hop")) == 3)
        merged = admin.harvest_journal(naplet=str(nid))
        sources = [r.detail["attributes"]["source"] for r in merged if r.kind == "hop"]
        assert sources == ["s00", "s01", "s02"]
        kinds = [(r.server, r.kind) for r in merged]
        assert kinds.index(("s01", "hop")) < kinds.index(("s02", "landing"))

    def test_record_detail_decomposes_the_frame(self, toured):
        _servers, admin, nid = toured
        record = admin.harvest_journal(kind="hop", naplet=str(nid))[0]
        (detail,) = hop_cost_rows([record])
        assert detail["serialize_s"] > 0
        assert detail["payload_bytes"] > 0
        assert detail["header_bytes"] > 0
        assert detail["code_bytes"] == 0  # lazy shipping, local codebase
        assert (
            detail["payload_bytes"] + detail["header_bytes"] + detail["code_bytes"]
            == detail["total_bytes"]
        )
        assert record.trace_id  # joinable against the journey's spans

    def test_disabled_journal_records_nothing_and_nothing_breaks(self, space):
        _network, servers = space(
            line(4, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        admin = SpaceAdmin(servers)
        _tour(servers)
        assert admin.wait_space_idle()
        assert admin.harvest_journal(kind="hop") == []


class TestHopCostTable:
    def test_rows_and_render_from_a_live_harvest(self, toured):
        _servers, admin, nid = toured
        records = admin.harvest_journal(kind="hop")
        rows = hop_cost_rows(records, naplet=str(nid))
        assert len(rows) == len(ROUTE)
        assert rows[0]["source"] == "s00"
        text = render_hop_costs(records, naplet=str(nid))
        assert f"{len(ROUTE)} hop(s)" in text
        assert "(all hops)" in text
        # The totals row really sums the hops.
        total = sum(row["total_bytes"] for row in rows)
        assert str(total) in text


class TestHopsCommand:
    def test_renders_table_from_a_journal_dump(
        self, toured, naplet_cli, tmp_path, capsys
    ):
        _servers, admin, nid = toured
        dump = tmp_path / "journal.json"
        dump_records(str(dump), admin.harvest_journal())
        assert naplet_cli.main(["hops", str(dump)]) == 0
        out = capsys.readouterr().out
        assert f"{len(ROUTE)} hop(s)" in out
        assert "s00 -> naplet://s01" in out and "full" in out
        assert "(all hops)" in out
        assert naplet_cli.main(["hops", str(dump), "--naplet", str(nid)]) == 0
        assert f"{len(ROUTE)} hop(s) for {nid}" in capsys.readouterr().out

    def test_naplet_filter_and_empty_message(self, naplet_cli, tmp_path, capsys):
        dump = tmp_path / "journal.json"
        dump_records(str(dump), [])
        assert naplet_cli.main(["hops", str(dump), "--naplet", "ghost"]) == 0
        assert "no hop-cost records for ghost" in capsys.readouterr().out


class TestHistograms:
    def test_hop_bytes_split_by_part(self, toured):
        servers, _admin, _nid = toured
        merged = SpaceAdmin(servers).space_metrics()
        payload = merged.value("naplet_hop_bytes", part="payload")
        header = merged.value("naplet_hop_bytes", part="header")
        assert payload.count == len(ROUTE)
        assert header.count == len(ROUTE)
        assert payload.total > header.total  # the naplet outweighs the header

    def test_serialize_seconds_split_by_op(self, toured):
        servers, _admin, _nid = toured
        merged = SpaceAdmin(servers).space_metrics()
        dumps = merged.value("naplet_serialize_seconds", op="dumps")
        loads = merged.value("naplet_serialize_seconds", op="loads")
        # One dumps per departure; loads covers arrivals plus message bodies.
        assert dumps.count >= len(ROUTE)
        assert loads.count >= len(ROUTE)
        assert dumps.total > 0 and loads.total > 0


class TestCriticalPathBytes:
    def test_journey_renders_a_bytes_column(self, toured):
        _servers, admin, nid = toured
        path = admin.journey(nid).critical_path()
        assert len(path) == len(ROUTE)
        for hop in path.hops:
            assert hop.bytes > 0
        assert path.total_bytes == sum(h.bytes for h in path.hops)
        text = path.render()
        assert "bytes" in text
        assert str(path.total_bytes) in text


class TestChromeCounterTracks:
    def test_hop_spans_emit_byte_and_serialize_counters(self, toured):
        _servers, admin, nid = toured
        trace = chrome_trace(admin.harvest_journal(journey=str(nid)))
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        byte_tracks = [e for e in counters if e["name"] == "hop bytes"]
        ser_tracks = [e for e in counters if e["name"] == "hop serialize ms"]
        assert len(byte_tracks) == len(ROUTE)
        assert len(ser_tracks) == len(ROUTE)
        for event in byte_tracks:
            assert event["args"]["payload"] > 0
            assert event["args"]["header"] > 0
            assert event["args"]["code"] == 0
        for event in ser_tracks:
            assert event["args"]["ms"] > 0


class TestWireBytes:
    def test_endpoint_bytes_visible_through_the_telemetry_service(self, toured):
        _servers, admin, _nid = toured
        wire = admin.harvest(("metrics",))[0]["metrics"]
        assert wire["egress_bytes"] > 0  # launched three departures
        assert wire["ingress_bytes"] > 0  # acks came back
