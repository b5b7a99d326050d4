"""The CI failure hook: harvest journals + traces when a chaos test dies.

The hook itself (``pytest_runtest_makereport`` in this package's
conftest) only fires on failure, so these tests exercise its two halves
directly: finding live spaces among a test's fixtures, and dumping their
flight-recorder journals as JSON + Chrome trace artifacts.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, line
from repro.telemetry.journal import JournalRecord

from tests.conftest import CollectorNaplet
from tests.faults.conftest import _dump_chaos_artifacts, _spaces_in

pytestmark = pytest.mark.chaos


@pytest.fixture
def toured_space():
    network = VirtualNetwork(line(2, prefix="s"))
    servers = deploy(network)
    listener = repro.NapletListener()
    agent = CollectorNaplet("artifact-tour")
    agent.set_itinerary(
        Itinerary(SeqPattern.of_servers(["s01"], post_action=ResultReport("v")))
    )
    servers["s00"].launch(agent, owner="ops", listener=listener)
    listener.next_report(timeout=15)
    assert SpaceAdmin(servers).wait_space_idle()
    try:
        yield servers
    finally:
        network.shutdown()


class TestSpacesIn:
    def test_finds_server_dicts_in_plain_and_tuple_fixtures(self, toured_space):
        funcargs = {
            "plain": toured_space,
            "tupled": (object(), toured_space),
            "noise": {"s00": "not a server"},
            "scalar": 7,
        }
        found = _spaces_in(funcargs)
        assert len(found) == 2
        assert all(space is toured_space for space in found)

    def test_empty_fixtures_find_nothing(self):
        assert _spaces_in({"request": object(), "n": 3}) == []


class TestDumpArtifacts:
    def test_dump_writes_journal_and_trace_per_space(
        self, toured_space, tmp_path
    ):
        written = _dump_chaos_artifacts(
            "tests/faults/test_x.py::TestY::test_z[inmemory]",
            [toured_space, toured_space],  # duplicates collapse
            str(tmp_path),
        )
        assert len(written) == 2
        journal_path, trace_path = written
        assert journal_path.endswith(".journal.json")
        assert trace_path.endswith(".trace.json")

        dump = json.loads((tmp_path / journal_path.rsplit("/", 1)[-1]).read_text())
        records = [JournalRecord.from_dict(d) for d in dump["records"]]
        assert any(r.kind == "landing" for r in records)

        trace = json.loads((tmp_path / trace_path.rsplit("/", 1)[-1]).read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "hop" in names

    def test_nodeid_is_sanitized_into_the_filename(self, toured_space, tmp_path):
        written = _dump_chaos_artifacts(
            "tests/a.py::T::t[tcp]", [toured_space], str(tmp_path)
        )
        for path in written:
            name = path.rsplit("/", 1)[-1]
            assert "::" not in name and "[" not in name
            assert name.startswith("tests_a.py_T_t_tcp")

    def test_no_spaces_writes_nothing(self, tmp_path):
        assert _dump_chaos_artifacts("n", [], str(tmp_path)) == []
        assert list(tmp_path.iterdir()) == []
