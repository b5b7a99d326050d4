"""TrafficMeter under concurrency: totals, host splits, snapshot consistency."""

from __future__ import annotations

import threading

from repro.transport.traffic import LinkStats, TrafficMeter

RECORDERS = 8
PER_RECORDER = 400


class TestConcurrentRecorders:
    def _hammer(self, meter: TrafficMeter) -> None:
        """RECORDERS threads record on distinct and shared links at once."""
        barrier = threading.Barrier(RECORDERS)

        def work(index: int) -> None:
            barrier.wait()
            for i in range(PER_RECORDER):
                # Half the traffic contends on one shared link, half fans
                # out per-thread, so both dict-hit and dict-miss paths race.
                if i % 2:
                    meter.record("hub", "spoke", "message", 100)
                else:
                    meter.record(f"h{index}", "hub", "transfer", 50)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(RECORDERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)

    def test_totals_lose_no_frames_or_bytes(self):
        meter = TrafficMeter()
        self._hammer(meter)
        expected_frames = RECORDERS * PER_RECORDER
        assert meter.total_frames == expected_frames
        assert meter.total_bytes == RECORDERS * (
            (PER_RECORDER // 2) * 100 + (PER_RECORDER // 2) * 50
        )
        assert meter.kind_stats("message").frames == RECORDERS * PER_RECORDER // 2

    def test_host_bytes_sum_egress_and_ingress(self):
        meter = TrafficMeter()
        self._hammer(meter)
        egress, ingress = meter.host_bytes("hub")
        assert egress == RECORDERS * (PER_RECORDER // 2) * 100
        assert ingress == RECORDERS * (PER_RECORDER // 2) * 50
        assert meter.host_total("hub") == egress + ingress
        # Per-thread sources saw only egress.
        assert meter.host_bytes("h0") == ((PER_RECORDER // 2) * 50, 0)

    def test_snapshot_is_internally_consistent_mid_race(self):
        """A snapshot taken while recorders run must always balance:
        its link sums equal its totals (one lock acquisition, not two)."""
        meter = TrafficMeter()
        stop = threading.Event()

        def record_forever() -> None:
            while not stop.is_set():
                meter.record("a", "b", "message", 7)
                meter.record("b", "c", "transfer", 13)

        recorders = [threading.Thread(target=record_forever) for _ in range(4)]
        for t in recorders:
            t.start()
        try:
            for _ in range(200):
                snap = meter.snapshot()
                links = snap["links"].values()
                assert sum(s.bytes for s in links) == snap["total_bytes"]
                assert sum(s.frames for s in links) == snap["total_frames"]
                by_kind = snap["by_kind"].values()
                assert sum(s.bytes for s in by_kind) == snap["total_bytes"]
        finally:
            stop.set()
            for t in recorders:
                t.join(5)

    def test_snapshot_and_links_return_copies(self):
        meter = TrafficMeter()
        meter.record("a", "b", "message", 10)
        snap = meter.snapshot()
        snap["links"][("a", "b")].bytes = 999_999
        meter.links()[("a", "b")].frames = 999_999
        assert meter.link("a", "b") == LinkStats(frames=1, bytes=10)

    def test_reset_clears_everything(self):
        meter = TrafficMeter()
        meter.record("a", "b", "message", 10)
        meter.reset()
        assert meter.total_bytes == 0
        assert meter.total_frames == 0
        assert meter.links() == {}
        assert meter.host_bytes("a") == (0, 0)
