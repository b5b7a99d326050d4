"""tools/napletperf.py: the regression gate CLI over the perf plane."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.bench import write_bench
from tests.conftest import load_tool

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def napletperf():
    return load_tool("napletperf")


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


class TestListAndRun:
    def test_list_names_every_suite(self, napletperf, capsys):
        assert napletperf.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "transport" in out
        assert "BENCH_transport.json" in out

    def test_hop_tables_moved_to_the_naplet_cli(self, napletperf, tmp_path):
        with pytest.raises(SystemExit):
            napletperf.main(["hops", str(tmp_path / "dump.json")])

    def test_run_rejects_unknown_suites(self, napletperf, capsys):
        assert napletperf.main(["run", "no-such-suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_every_suite_target_exists(self, napletperf):
        for suite in napletperf.SUITES.values():
            assert (Path(__file__).resolve().parents[2] / suite["target"]).is_file()
