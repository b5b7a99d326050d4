"""What a journal record is on disk and in memory.

A golden dump, recorded before records were slotted, pins the JSON form
and the ``naplet log --causal`` rendering byte for byte.  A traced tour
pins what a record retains: the rings hold about 7 800 records at the
point where the journey benchmark reads ``tour_small``'s peak RSS, so a
container byte per record is a MiB of RSS per 134 bytes.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.simnet import line
from repro.telemetry import journal as journal_module
from repro.telemetry.journal import JournalRecord, dump_records, load_records
from repro.util import hlc as hlc_module
from repro.util.concurrency import wait_until

from tests.conftest import CollectorNaplet, load_tool

pytestmark = pytest.mark.health

# Recorded from a two-hop tour of a three-server space, plus a load record,
# a hop-cost stamped by another node, an error span and a dead letter.
GOLDEN = Path(__file__).with_name("golden_journal.json")

# The journal's retained bytes per record on the tour below, as tracemalloc
# counts them (record, value tuple, wall/mono/HLC floats, ring blocks): 265
# measured on CPython 3.11, plus 15 %.  The frozen-dataclass record this
# layout replaced retained 399 by the same count.
RETAINED_BYTES_PER_RECORD = 305

# tour_small's route: round the three peers, the twelfth hop home.
TOUR = [("s01", "s02", "s03")[i % 3] for i in range(11)] + ["s00"]


class TestGoldenDump:
    def test_the_golden_dump_holds_every_record_shape(self):
        records = load_records(str(GOLDEN))
        assert {"event", "span", "perf", "load"} <= {r.category for r in records}
        assert any(r.kind == "hop-cost" and r.hlc.node != r.server for r in records)

    def test_a_dump_of_the_loaded_golden_is_byte_identical(self, tmp_path):
        again = tmp_path / "again.json"
        dump_records(str(again), load_records(str(GOLDEN)))
        assert again.read_bytes() == GOLDEN.read_bytes()

    def test_the_causal_log_prints_the_recorded_lines(self, capsys):
        naplet = load_tool("naplet")
        assert naplet.main(["log", str(GOLDEN), "--causal"]) == 0
        expected = GOLDEN.with_suffix(".causal.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


def _tour(servers) -> None:
    listener = repro.NapletListener()
    agent = CollectorNaplet("tour")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(TOUR, post_action=ResultReport("visited")))
    )
    hops = sum(s.journal.count("hop") for s in servers.values())
    servers["s00"].launch(agent, owner="alice", listener=listener)
    assert listener.next_report(timeout=15).payload == TOUR
    # The last hop's source closes its hop span after the report is home.
    assert wait_until(
        lambda: sum(s.journal.count("hop") for s in servers.values())
        == hops + len(TOUR),
        timeout=10,
    )


class TestRetainedBytes:
    def test_a_record_has_no_instance_dict(self):
        record = JournalRecord(
            seq=1, hlc=hlc_module.HLCStamp(1.0, 0, "s00"), kind="k", category="event",
            server="s00", wall=1.0, mono=1.0, detail={"x": 1},
        )
        assert not hasattr(record, "__dict__")

    def test_a_tour_retains_a_bounded_number_of_bytes_per_record(self, space):
        _net, servers = space(line(4, prefix="s"))
        _tour(servers)  # warm: interned key sets, clock state, ring blocks
        appended = sum(s.journal.total_appended for s in servers.values())
        tracemalloc.start()
        try:
            _tour(servers)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        records = sum(s.journal.total_appended for s in servers.values()) - appended
        own = snapshot.filter_traces(
            [tracemalloc.Filter(True, journal_module.__file__),
             tracemalloc.Filter(True, hlc_module.__file__)]
        )
        retained = sum(stat.size for stat in own.statistics("filename"))
        assert records >= 2 * len(TOUR)
        assert retained / records <= RETAINED_BYTES_PER_RECORD, (retained, records)
