"""BENCH_*.json schema v2: provenance, history, flattening, and the differ."""

from __future__ import annotations

import json

import pytest

from repro.perf.bench import (
    SCHEMA_VERSION,
    append_history,
    bench_snapshot,
    diff_bench,
    flatten_metrics,
    is_timing_metric,
    load_bench,
    metric_direction,
    write_bench,
)
from tests.conftest import load_tool

pytestmark = pytest.mark.perf

_DATA = {
    "baseline": {"hop_latency_p50_ms": 10.0, "rt_frames_per_hop": 3.0},
    "fastpath": {"hop_latency_p50_ms": 4.0, "rt_frames_per_hop": 1.0},
    "speedup_messages_per_sec": 2.5,
}


class TestSnapshot:
    def test_snapshot_carries_full_provenance(self):
        snap = bench_snapshot("e8", _DATA)
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["experiment"] == "e8"
        assert snap["timestamp"].endswith("Z")
        assert set(snap["machine"]) >= {"hostname", "platform", "python"}
        # This repo is a git checkout, so the SHA resolves.
        assert snap["git_sha"] and len(snap["git_sha"]) == 40
        # The benchmark's own keys survive untouched.
        assert snap["baseline"]["rt_frames_per_hop"] == 3.0

    def test_write_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        written = write_bench(path, "e8", _DATA)
        loaded = load_bench(path)
        assert loaded == json.loads(json.dumps(written))

    def test_v1_snapshot_upgraded_in_memory(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"experiment": "e8", "speedup": 2.0}))
        loaded = load_bench(path)
        assert loaded["schema_version"] == 1
        assert loaded["git_sha"] is None
        assert loaded["speedup"] == 2.0

    def test_history_appends_never_clobbers(self, tmp_path):
        history = tmp_path / "hist"
        snap = bench_snapshot("e8", _DATA)
        first = append_history(history, snap)
        second = append_history(history, snap)  # same stamp + sha
        assert first != second
        assert len(list(history.glob("*.json"))) == 2
        assert json.loads(first.read_text())["experiment"] == "e8"

    def test_write_bench_with_history_dir(self, tmp_path):
        history = tmp_path / "hist"
        write_bench(tmp_path / "BENCH_x.json", "e8", _DATA, history_dir=history)
        assert len(list(history.glob("*.json"))) == 1


class TestFlattenAndDirections:
    def test_flatten_walks_nested_numeric_leaves(self):
        flat = flatten_metrics(bench_snapshot("e8", _DATA))
        assert flat["baseline.hop_latency_p50_ms"] == 10.0
        assert flat["speedup_messages_per_sec"] == 2.5
        # Metadata (timestamp, machine.cpu_count, ...) never leaks in.
        assert not any(key.startswith("machine") for key in flat)

    def test_flatten_skips_bools(self):
        flat = flatten_metrics({"schema_version": 2, "run": {"pooled": True, "n": 3}})
        assert flat == {"run.n": 3.0}

    @pytest.mark.parametrize(
        ("key", "direction"),
        [
            ("baseline.hop_latency_p50_ms", "lower"),
            ("fastpath.connections_per_hop", "lower"),
            ("overhead_fraction", "lower"),
            ("speedup_messages_per_sec", "higher"),
            ("messages_per_sec", "higher"),
            ("hops", "neutral"),
            ("rt_frames_per_hop", "lower"),
            ("delta_on.bytes_per_hop", "lower"),
            ("delta_on.ring_bytes_per_hop", "lower"),
            ("delta_on.hops_per_sec", "higher"),
            ("tour.journal_records_per_hop", "lower"),
            ("tour.journal_bytes_per_hop", "lower"),
            ("delta_on.cargo_copies_per_hop", "lower"),
        ],
    )
    def test_metric_direction(self, key, direction):
        assert metric_direction(key) == direction

    def test_timing_metrics_identified_for_structural_mode(self):
        assert is_timing_metric("hop_latency_p50_ms")
        assert is_timing_metric("messages_per_sec")
        assert is_timing_metric("hops_per_sec")
        assert not is_timing_metric("rt_frames_per_hop")
        assert not is_timing_metric("connections_opened_for_hops")

    def test_bytes_per_hop_is_structural_despite_reading_like_a_rate(self):
        # Wire bytes per migration hop are a protocol fact, not machine
        # speed: CI's structural gate must compare them (lower is better).
        assert not is_timing_metric("bytes_per_hop")
        assert not is_timing_metric("delta_on.ring_bytes_per_hop")
        assert metric_direction("delta_full.bytes_per_hop") == "lower"

    def test_the_tour_legs_journal_metrics_are_structural(self):
        # What the flight recorder keeps per hop is a count of records and
        # of their bytes, not machine speed: the structural gate reads both.
        assert not is_timing_metric("tour.journal_records_per_hop")
        assert not is_timing_metric("tour.journal_bytes_per_hop")
        old = bench_snapshot("e8", {"tour": {"journal_records_per_hop": 8.4,
                                             "journal_bytes_per_hop": 4000.0}})
        new = bench_snapshot("e8", {"tour": {"journal_records_per_hop": 10.5,
                                             "journal_bytes_per_hop": 8000.0}})
        regressed = {e.key for e in diff_bench(old, new, structural_only=True).regressions}
        assert regressed == {"tour.journal_records_per_hop", "tour.journal_bytes_per_hop"}

    def test_cargo_copies_per_hop_is_gated_by_the_structural_diff(self, tmp_path, capsys):
        # A landing that copies its bytes cargo again is a protocol fact:
        # `napletperf diff --structural` (CI's gate) fails on it.
        napletperf = load_tool("napletperf")
        assert not is_timing_metric("delta_on.cargo_copies_per_hop")
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_bench(old, "e8", {"delta_on": {"cargo_copies_per_hop": 0.0, "hops_per_sec": 50.0}})
        write_bench(new, "e8", {"delta_on": {"cargo_copies_per_hop": 1.0, "hops_per_sec": 50.0}})
        assert napletperf.main(["diff", str(old), str(new), "--structural"]) == 1
        assert "delta_on.cargo_copies_per_hop" in capsys.readouterr().out


class TestDiff:
    def _pair(self, old_ms: float, new_ms: float):
        return (
            bench_snapshot("e8", {"hop_latency_p50_ms": old_ms, "hops": 12}),
            bench_snapshot("e8", {"hop_latency_p50_ms": new_ms, "hops": 12}),
        )

    def test_unchanged_rerun_passes(self):
        old, new = self._pair(10.0, 10.4)  # within tolerance
        diff = diff_bench(old, new, tolerance=0.2)
        assert diff.ok
        assert not diff.regressions

    def test_30pct_slowdown_flags_a_regression(self):
        """ISSUE acceptance: a seeded ~30% slowdown must be flagged."""
        old, new = self._pair(10.0, 13.0)
        diff = diff_bench(old, new, tolerance=0.2)
        assert not diff.ok
        assert [e.key for e in diff.regressions] == ["hop_latency_p50_ms"]
        assert diff.regressions[0].change == pytest.approx(0.3)
        assert "REGRESSION" in diff.render()

    def test_higher_is_better_regresses_downward(self):
        old = bench_snapshot("e8", {"messages_per_sec": 100.0})
        new = bench_snapshot("e8", {"messages_per_sec": 60.0})
        diff = diff_bench(old, new, tolerance=0.2)
        assert not diff.ok
        improvement = diff_bench(new, old, tolerance=0.2)
        assert improvement.ok and improvement.improvements

    def test_neutral_metrics_inform_but_never_regress(self):
        old = bench_snapshot("e8", {"hops": 12})
        new = bench_snapshot("e8", {"hops": 24})
        diff = diff_bench(old, new, tolerance=0.2)
        assert diff.ok
        assert diff.entries[0].verdict == "info"

    def test_new_and_removed_metrics_reported(self):
        old = bench_snapshot("e8", {"a_ms": 1.0})
        new = bench_snapshot("e8", {"b_ms": 2.0})
        diff = diff_bench(old, new)
        verdicts = {e.key: e.verdict for e in diff.entries}
        assert verdicts == {"a_ms": "removed", "b_ms": "new"}
        assert diff.ok

    def test_structural_only_ignores_timing_noise(self):
        old = bench_snapshot(
            "e8", {"hop_latency_p50_ms": 10.0, "rt_frames_per_hop": 1.0}
        )
        new = bench_snapshot(
            "e8", {"hop_latency_p50_ms": 30.0, "rt_frames_per_hop": 3.0}
        )
        timing = diff_bench(old, new, tolerance=0.2)
        assert {e.key for e in timing.regressions} == {
            "hop_latency_p50_ms",
            "rt_frames_per_hop",
        }
        structural = diff_bench(old, new, tolerance=0.2, structural_only=True)
        assert [e.key for e in structural.regressions] == ["rt_frames_per_hop"]

    def test_structural_gate_catches_bytes_per_hop_growth(self):
        old = bench_snapshot("e8", {"delta_on": {
            "bytes_per_hop": 100_000.0, "ring_bytes_per_hop": 527_000.0, "hops_per_sec": 50.0,
        }})
        new = bench_snapshot("e8", {"delta_on": {
            "bytes_per_hop": 180_000.0, "ring_bytes_per_hop": 2_100_000.0, "hops_per_sec": 12.0,
        }})
        structural = diff_bench(old, new, tolerance=0.2, structural_only=True)
        # hops_per_sec noise is excluded; the byte growth — the ping-pong's
        # and the ring's, where every hop ships in full again — is not.
        assert sorted(e.key for e in structural.regressions) == [
            "delta_on.bytes_per_hop", "delta_on.ring_bytes_per_hop",
        ]

    def test_zero_baseline_does_not_divide(self):
        old = bench_snapshot("e8", {"dials": 0.0})
        new = bench_snapshot("e8", {"dials": 5.0})
        diff = diff_bench(old, new, tolerance=0.2)
        assert not diff.ok  # 0 -> 5 dials is a 100% regression
