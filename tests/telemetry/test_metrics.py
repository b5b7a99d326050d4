"""Unit tests for the metrics primitives (counters, gauges, histograms)."""

from __future__ import annotations

import threading

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    _label_key,
    exponential_buckets,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_split_samples(self):
        c = Counter("c", "")
        c.inc(kind="a")
        c.inc(kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 2
        assert c.value(kind="b") == 1
        assert c.value(kind="missing") == 0
        assert c.total() == 3

    def test_label_order_is_irrelevant(self):
        c = Counter("c", "")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        c = Counter("c", "")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_disabled_counter_is_noop(self):
        c = Counter("c", "", enabled=False)
        c.inc(100)
        assert c.value() == 0

    def test_thread_safety(self):
        c = Counter("c", "")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestLabelKey:
    """The no-label and one-label fast paths equal the sorted general form."""

    @pytest.mark.parametrize(
        "labels",
        [
            {},
            {"kind": "message"},
            {"code": 404},
            {"flag": None},
            {"source": "s00", "dest": "s01"},
            {"dest": 1, "source": 2.5},
        ],
    )
    def test_fast_paths_equal_the_sorted_form(self, labels):
        key = _label_key(labels)
        assert key == tuple(sorted((k, str(v)) for k, v in labels.items()))
        assert all(type(value) is str for _name, value in key)

    def test_one_label_value_reads_back_under_any_spelling(self):
        c = Counter("c", "")
        c.inc(code=404)
        c.inc(code="404")
        assert c.value(code=404) == 2
        assert c.labelsets() == [(("code", "404"),)]


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g", "")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_disabled_gauge_is_noop(self):
        g = Gauge("g", "", enabled=False)
        g.set(5)
        assert g.value() == 0


class TestHistogram:
    def test_observe_buckets_and_mean(self):
        h = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        value = h.value()
        assert value.count == 4
        assert value.total == pytest.approx(105.0)
        assert value.mean == pytest.approx(105.0 / 4)
        # non-cumulative buckets plus the overflow slot
        assert value.bucket_counts == (1, 1, 1, 1)

    def test_values_on_between_and_beyond_the_bounds(self):
        h = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        for v in (-1.0, 0.0, 1.0, 1.0000001, 2.0, 3.0, 4.0, 4.0000001, float("inf")):
            h.observe(v)
        # a value on a bound belongs to that bound's bucket (le semantics)
        assert h.value().bucket_counts == (3, 2, 2, 2)
        default = Histogram("d", "")
        for bound in default.bounds:
            default.observe(bound)
        default.observe(default.bounds[-1] * 2)
        assert default.value().bucket_counts == (1,) * (len(default.bounds) + 1)

    def test_empty_value(self):
        h = Histogram("h", "", buckets=(1.0,))
        value = h.value()
        assert value.count == 0 and value.mean == 0.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", "", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", "", buckets=(1.0, 1.0))

    def test_merge_requires_same_bounds(self):
        a = HistogramValue(1, 1.0, (1.0,), (1, 0))
        b = HistogramValue(2, 3.0, (1.0,), (1, 1))
        merged = a.merged(b)
        assert merged.count == 3 and merged.bucket_counts == (2, 1)
        with pytest.raises(ValueError):
            a.merged(HistogramValue(0, 0.0, (2.0,), (0, 0)))


class TestExponentialBuckets:
    def test_growth(self):
        bounds = exponential_buckets(start=1.0, factor=2.0, count=4)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_buckets(start=0)
        with pytest.raises(ValueError):
            exponential_buckets(factor=1.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_values(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(3, kind="a")
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap.value("c", kind="a") == 3
        assert snap.value("g") == 7
        assert snap.value("h").count == 1
        assert snap.total("c") == 3
        assert "c" in snap.names()

    def test_gauge_fn_evaluated_at_snapshot_time(self):
        reg = MetricsRegistry()
        box = {"depth": 2}
        reg.gauge_fn("queue_depth", "depth", lambda: box["depth"])
        assert reg.snapshot().value("queue_depth") == 2
        box["depth"] = 9
        assert reg.snapshot().value("queue_depth") == 9

    def test_gauge_fn_exceptions_do_not_break_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("ok").inc()

        def boom():
            raise RuntimeError("dying component")

        reg.gauge_fn("bad", "", boom)
        snap = reg.snapshot()
        assert snap.value("ok") == 1
        assert snap.family("bad") is None

    def test_disabled_registry_hands_out_noop_instruments(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.histogram("h").observe(1.0)
        reg.gauge_fn("g", "", lambda: 42.0)
        snap = reg.snapshot()
        assert snap.total("c") == 0
        assert snap.family("g") is None  # gauge fns skipped when disabled


class TestMerging:
    def test_merged_snapshots_sum_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2, kind="x")
        b.counter("c").inc(3, kind="x")
        b.counter("c").inc(1, kind="y")
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        merged = MetricsSnapshot.merged([a.snapshot(), b.snapshot()])
        assert merged.value("c", kind="x") == 5
        assert merged.value("c", kind="y") == 1
        assert merged.value("h").count == 2
        assert merged.value("h").bucket_counts == (1, 1)

    def test_merged_keeps_disjoint_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a").inc()
        b.counter("only_b").inc()
        merged = MetricsSnapshot.merged([a.snapshot(), b.snapshot()])
        assert merged.total("only_a") == 1
        assert merged.total("only_b") == 1
