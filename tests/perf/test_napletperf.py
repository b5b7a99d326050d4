"""tools/napletperf.py: the regression gate CLI over the perf plane.

``tools/`` is not a package, so the module is loaded by file path.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.perf.bench import write_bench

pytestmark = pytest.mark.perf

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "napletperf.py"


@pytest.fixture(scope="module")
def napletperf():
    spec = importlib.util.spec_from_file_location("napletperf", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("napletperf", module)
    spec.loader.exec_module(module)
    return module


def _snapshot(path: Path, p50_ms: float, frames: float = 1.0) -> Path:
    write_bench(
        path,
        "transport: one-exchange hops over pooled connections",
        {"fastpath": {"hop_latency_p50_ms": p50_ms, "rt_frames_per_hop": frames}},
    )
    return path


class TestDiffCommand:
    def test_unchanged_rerun_exits_zero(self, napletperf, tmp_path, capsys):
        old = _snapshot(tmp_path / "old.json", 10.0)
        new = _snapshot(tmp_path / "new.json", 10.0)
        assert napletperf.main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_seeded_30pct_slowdown_exits_nonzero(self, napletperf, tmp_path, capsys):
        """ISSUE acceptance: `napletperf diff` flags a ~30% slowdown."""
        old = _snapshot(tmp_path / "old.json", 10.0)
        new = _snapshot(tmp_path / "new.json", 13.0)
        assert napletperf.main(["diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "hop_latency_p50_ms" in out

    def test_structural_mode_ignores_timing_gates_on_protocol(
        self, napletperf, tmp_path, capsys
    ):
        old = _snapshot(tmp_path / "old.json", 10.0, frames=1.0)
        slow = _snapshot(tmp_path / "slow.json", 30.0, frames=1.0)
        # Pure timing noise passes the CI gate...
        assert napletperf.main(["diff", str(old), str(slow), "--structural"]) == 0
        capsys.readouterr()
        # ...a protocol change (more exchanges per hop) does not.
        chatty = _snapshot(tmp_path / "chatty.json", 10.0, frames=3.0)
        assert napletperf.main(["diff", str(old), str(chatty), "--structural"]) == 1
        assert "rt_frames_per_hop" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, napletperf, tmp_path, capsys):
        old = _snapshot(tmp_path / "old.json", 10.0)
        new = _snapshot(tmp_path / "new.json", 13.0)
        napletperf.main(["diff", str(old), str(new), "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["ok"] is False
        assert any(e["verdict"] == "regression" for e in payload["entries"])

    def test_provenance_header_names_both_snapshots(self, napletperf, tmp_path, capsys):
        old = _snapshot(tmp_path / "old.json", 10.0)
        new = _snapshot(tmp_path / "new.json", 10.0)
        napletperf.main(["diff", str(old), str(new)])
        out = capsys.readouterr().out
        assert "old: transport: one-exchange hops" in out
        assert "new: transport: one-exchange hops" in out


class TestHopsCommand:
    def test_renders_table_from_a_journal_dump(self, napletperf, tmp_path, capsys):
        dump = tmp_path / "journal.json"
        dump.write_text(
            json.dumps(
                {
                    "records": [
                        {
                            "kind": "hop-cost",
                            "naplet": "nap-1",
                            "detail": {
                                "source": "s00",
                                "dest": "naplet://s01",
                                "serialize_s": 0.001,
                                "payload_bytes": 1800,
                                "header_bytes": 200,
                                "code_bytes": 0,
                                "total_bytes": 2000,
                            },
                        },
                        {"kind": "naplet-depart", "naplet": "nap-1", "detail": {}},
                    ]
                }
            )
        )
        assert napletperf.main(["hops", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "s00 -> naplet://s01" in out
        assert "2000" in out and "full" in out
        assert "fast" not in out and "2ph" not in out
        assert "(all hops)" in out

    def test_naplet_filter_and_empty_message(self, napletperf, tmp_path, capsys):
        dump = tmp_path / "journal.json"
        dump.write_text(json.dumps({"records": []}))
        assert napletperf.main(["hops", str(dump), "--naplet", "ghost"]) == 0
        assert "no hop-cost records for ghost" in capsys.readouterr().out

    def test_non_dump_file_is_a_usage_error(self, napletperf, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('"just a string"')
        assert napletperf.main(["hops", str(bogus)]) == 2


class TestListAndRun:
    def test_list_names_every_suite(self, napletperf, capsys):
        assert napletperf.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "transport" in out
        assert "BENCH_transport.json" in out

    def test_run_rejects_unknown_suites(self, napletperf, capsys):
        assert napletperf.main(["run", "no-such-suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_every_suite_target_exists(self, napletperf):
        for suite in napletperf.SUITES.values():
            assert (Path(__file__).resolve().parents[2] / suite["target"]).is_file()
