"""``tools/naplet.py log``: the query CLI end to end, over dump files
written by a live space and over the demo space, plus its text renderer.

The selection itself (``select``/``order``/dump round-trip) is library
code and is tested in ``tests/telemetry/test_journal.py``.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import SpaceAdmin
from repro.simnet import line
from repro.telemetry.journal import SpaceJournal, dump_records, load_records

from tests.conftest import CollectorNaplet, synthetic_timeline

pytestmark = pytest.mark.health


class TestFilters:
    def test_every_filter_flag_reaches_the_selection(
        self, naplet_cli, tmp_path, capsys
    ):
        path = str(tmp_path / "synthetic.json")
        dump_records(path, synthetic_timeline())
        for flags, expected in (
            ([], 5),
            (["--naplet", "n1"], 3),
            (["--naplet", "n1", "--server", "s01"], 1),
            (["--category", "deadletter"], 1),
            (["--kind", "naplet-depart"], 1),
            (["--since", "150"], 2),
            (["--until", "150"], 3),
            (["--journey", "t1"], 4),  # the trace names n1: its whole journey
        ):
            assert naplet_cli.main(["log", path, *flags]) == 0
            assert f"({expected} records)" in capsys.readouterr().out

    def test_render_lines_has_header_and_count(self, naplet_cli):
        lines = naplet_cli.render_lines(synthetic_timeline())
        assert lines[0].startswith("hlc")
        assert lines[-1] == "(5 records)"
        assert len(lines) == 7


class TestCli:
    @pytest.fixture()
    def dumpfile(self, space, tmp_path):
        """A dump of a live 3-server journey, plus the tour's naplet id."""
        _network, servers = space(line(3, prefix="s"))
        listener = repro.NapletListener()
        agent = CollectorNaplet("cli-tour")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["s01", "s02"], post_action=ResultReport("visited")
                )
            )
        )
        nid = servers["s00"].launch(agent, owner="alice", listener=listener)
        listener.next_report(timeout=15)
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle()
        path = tmp_path / "space.json"
        dump_records(str(path), admin.harvest_journal())
        return str(path), str(nid)

    def test_journey_query_reconstructs_the_route(
        self, naplet_cli, dumpfile, capsys
    ):
        path, nid = dumpfile
        assert (
            naplet_cli.main(["log", path, "--journey", nid, "--kind", "naplet-arrive",
                            "--causal"])
            == 0
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "naplet-arrive" in l]
        assert [l.split()[1] for l in lines] == ["s01", "s02"]

    def test_limit_keeps_the_tail(self, naplet_cli, dumpfile, capsys):
        path, _nid = dumpfile
        assert naplet_cli.main(["log", path, "--limit", "2", "--causal"]) == 0
        out = capsys.readouterr().out
        assert "(2 records)" in out

    def test_chrome_output_is_a_valid_trace(
        self, naplet_cli, dumpfile, tmp_path, capsys
    ):
        path, nid = dumpfile
        trace_path = tmp_path / "trace.json"
        assert (
            naplet_cli.main(["log", path, "--journey", nid, "--chrome", str(trace_path)])
            == 0
        )
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"hop", "landing"} <= names

    def test_no_input_is_an_error(self, naplet_cli):
        with pytest.raises(SystemExit):
            naplet_cli.main(["log"])

    def test_a_file_that_is_no_dump_is_a_usage_error(self, naplet_cli, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('"just a string"')
        for command in ("log", "hops"):
            with pytest.raises(SystemExit) as exit_info:
                naplet_cli.main([command, str(bogus)])
            assert exit_info.value.code == 2

    @pytest.mark.slow
    def test_demo_dump_then_journey_query(
        self, naplet_cli, tmp_path, capsys, monkeypatch
    ):
        """``log --demo``: the demo space's harvest, saved with --dump and
        queried live with --journey (ids pinned so two demo runs agree)."""
        stamps = iter(f"2601010000{i:02d}" for i in range(100))
        monkeypatch.setattr(
            "repro.server.manager.unique_compact_timestamp", lambda: next(stamps)
        )
        path = tmp_path / "demo.json"
        assert naplet_cli.main(["log", "--demo", "--dump", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        launched = [r for r in load_records(str(path)) if r.kind == "naplet-launch"]
        assert [r.naplet for r in launched] == [
            f"demo@d00:2601010000{i:02d}:0" for i in range(3)
        ]

        stamps = iter(f"2601010000{i:02d}" for i in range(100))
        nid = launched[0].naplet
        assert naplet_cli.main(["log", "--demo", "--journey", nid, "--causal"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:-1]
        assert len([l for l in lines if "naplet-arrive" in l]) == 12
        assert all(nid in l for l in lines)


class TestLoadRecords:
    """Load records (DESIGN.md §6.4) flow through the same CLI."""

    def _dump_with_load(self, tmp_path):
        journal = SpaceJournal("s00", time_source=lambda: 100.0)
        journal.append(kind="naplet-launch", naplet="n1")
        journal.append(
            kind="load",
            category="load",
            naplet="n1",
            detail={"pattern": "alt", "order": [1, 0], "changed": True},
        )
        journal.append(
            kind="load-digest",
            category="load",
            detail={"peer": "s01", "score": 3.0},
        )
        path = tmp_path / "load.json"
        dump_records(str(path), journal.snapshot())
        return str(path)

    def test_kind_load_selects_only_ordering_decisions(
        self, naplet_cli, tmp_path, capsys
    ):
        path = self._dump_with_load(tmp_path)
        assert naplet_cli.main(["log", path, "--kind", "load"]) == 0
        out = capsys.readouterr().out
        assert "(1 records)" in out
        assert "order=[1, 0]" in out

    def test_category_load_selects_decisions_and_digests(
        self, naplet_cli, tmp_path, capsys
    ):
        path = self._dump_with_load(tmp_path)
        assert naplet_cli.main(["log", path, "--category", "load"]) == 0
        out = capsys.readouterr().out
        assert "(2 records)" in out

    def test_journey_plus_kind_load_reconstructs_one_decision(
        self, naplet_cli, tmp_path, capsys
    ):
        path = self._dump_with_load(tmp_path)
        assert naplet_cli.main(["log", path, "--journey", "n1", "--kind", "load"]) == 0
        out = capsys.readouterr().out
        assert "changed=True" in out
