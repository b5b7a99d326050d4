"""The metrics exposition surface: the ``metrics`` kind of the open
``harvest`` service and the text/JSON renderers."""

from __future__ import annotations

import json

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.telemetry.exposition import metrics_to_dict, render_metrics_text
from repro.telemetry.metrics import MetricsRegistry
from tests.conftest import CollectorNaplet


def _run_tour(servers):
    listener = repro.NapletListener()
    agent = CollectorNaplet("tour")
    agent.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["s01", "s02", "s03"], post_action=ResultReport("visited")
            )
        )
    )
    nid = servers["s00"].launch(agent, owner="alice", listener=listener)
    listener.next_report(timeout=10)
    assert servers["s03"].wait_idle()
    return nid


def _metrics_text(server) -> str:
    return render_metrics_text(server.telemetry.registry.snapshot())


class TestHarvestedMetrics:
    def test_harvest_is_the_only_open_service_on_every_server(self, small_line):
        _network, servers = small_line
        for server in servers.values():
            assert server.resource_manager.open_service_names() == ["harvest"]

    def test_metrics_kind_carries_the_registry_and_the_wire_bytes(self, small_line):
        _network, servers = small_line
        _run_tour(servers)
        service = servers["s01"].resource_manager._open_services["harvest"]
        row = service.harvest(("metrics",))
        assert set(row) == {"server", "status", "metrics"}
        assert row["server"] == "s01" and row["status"]["telemetry"] == "enabled"

        families = row["metrics"]["families"]
        assert families == metrics_to_dict(servers["s01"].telemetry.registry.snapshot())
        arrivals = [
            sample["value"]
            for sample in families["naplet_journal_records_total"]["samples"]
            if sample["labels"] == {"kind": "landing"}
        ]
        assert arrivals == [1]
        egress, ingress = servers["s01"].transport.endpoint_bytes("s01")
        assert (row["metrics"]["egress_bytes"], row["metrics"]["ingress_bytes"]) == (
            egress,
            ingress,
        )
        assert ingress > 0 and egress > 0

        text = _metrics_text(servers["s01"])
        assert "# TYPE naplet_journal_records_total counter" in text
        assert 'naplet_journal_records_total{kind="landing"} 1' in text

    def test_spans_and_event_counts_ride_the_journal(self, small_line):
        """What the old per-span / per-kind service calls answered is a
        ``journal`` harvest with an on-site filter."""
        _network, servers = small_line
        _run_tour(servers)
        service = servers["s01"].resource_manager._open_services["harvest"]
        spans = service.harvest(("journal",), category="span")["journal"]
        assert any(d["kind"] == "landing" for d in spans)
        trace_id = spans[0]["trace_id"]
        same = service.harvest(("journal",), trace_id=trace_id)["journal"]
        assert same and all(d["trace_id"] == trace_id for d in same)
        arrivals = service.harvest(("journal",), kind="landing")["journal"]
        assert len(arrivals) == servers["s01"].journal.count("landing") >= 1

    def test_metrics_payload_is_json_serializable(self, small_line):
        _network, servers = small_line
        _run_tour(servers)
        service = servers["s00"].resource_manager._open_services["harvest"]
        payload = service.harvest(("metrics",))["metrics"]["families"]
        encoded = json.loads(json.dumps(payload))
        records = encoded["naplet_journal_records_total"]
        assert records["type"] == "counter"
        assert {"labels": {"kind": "naplet-launch"}, "value": 1} in records["samples"]


class TestPerfHistograms:
    """The perf plane's hop-cost instruments on the exposition surface."""

    def test_hop_bytes_exposed_with_part_labels_and_inf_bucket(self, small_line):
        _network, servers = small_line
        _run_tour(servers)
        text = _metrics_text(servers["s00"])
        assert "# TYPE naplet_hop_bytes histogram" in text
        assert 'naplet_hop_bytes_bucket{part="payload",le="+Inf"} 1' in text
        assert 'naplet_hop_bytes_bucket{part="header",le="+Inf"} 1' in text
        assert 'naplet_hop_bytes_count{part="payload"} 1' in text
        # Buckets are cumulative: every finite-bound count <= the +Inf count.
        finite = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith('naplet_hop_bytes_bucket{part="payload"')
        ]
        assert finite == sorted(finite)

    def test_serialize_seconds_split_by_op(self, small_line):
        _network, servers = small_line
        _run_tour(servers)
        # s01 both received (loads) and forwarded (dumps) the naplet.
        text = _metrics_text(servers["s01"])
        assert "# TYPE naplet_serialize_seconds histogram" in text
        assert 'naplet_serialize_seconds_count{op="dumps"}' in text
        assert 'naplet_serialize_seconds_count{op="loads"}' in text

    def test_disabled_telemetry_keeps_hop_instruments_silent(self, space):
        from repro.server import ServerConfig
        from tests.conftest import line

        _network, servers = space(
            line(4, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        _run_tour(servers)
        server = servers["s00"]
        assert server.telemetry.hop_bytes.value(part="payload").count == 0
        assert server.telemetry.serialize_seconds.value(op="dumps").count == 0


_GOLDEN_TEXT = """\
# HELP hops_total Hops, by route
# TYPE hops_total counter
hops_total{code="404"} 1
hops_total{dest="s01",source="s00"} 3
hops_total{dest="s02",source="s00"} 1
# HELP queue_depth Mailbox depth
# TYPE queue_depth gauge
queue_depth 7
# HELP residents Resident naplets
# TYPE residents gauge
residents{server="s01"} 5
# HELP wire_frames_total Frames moved, by kind
# TYPE wire_frames_total counter
wire_frames_total 1
wire_frames_total{kind="message"} 1
wire_frames_total{kind="naplet-transfer"} 2
# HELP wire_send_seconds Delivery latency
# TYPE wire_send_seconds histogram
wire_send_seconds_count 7
wire_send_seconds_sum 0.6165
wire_send_seconds_bucket{le="0.001"} 3
wire_send_seconds_bucket{le="0.01"} 5
wire_send_seconds_bucket{le="0.1"} 6
wire_send_seconds_bucket{le="+Inf"} 7
wire_send_seconds_count{kind="message"} 1
wire_send_seconds_sum{kind="message"} 0.02
wire_send_seconds_bucket{kind="message",le="0.001"} 0
wire_send_seconds_bucket{kind="message",le="0.01"} 0
wire_send_seconds_bucket{kind="message",le="0.1"} 1
wire_send_seconds_bucket{kind="message",le="+Inf"} 1"""


class TestRenderers:
    def test_populated_registry_renders_the_recorded_text(self):
        """Byte-for-byte what the registry rendered before the label-key
        fast paths and the bisected bucket search (recorded at PR 12)."""
        reg = MetricsRegistry()
        frames = reg.counter("wire_frames_total", "Frames moved, by kind")
        frames.inc(kind="message")
        frames.inc(2, kind="naplet-transfer")
        frames.inc()
        hops = reg.counter("hops_total", "Hops, by route")
        hops.inc(3, source="s00", dest="s01")
        hops.inc(dest="s02", source="s00")
        hops.inc(code=404)
        reg.gauge("residents", "Resident naplets").set(5, server="s01")
        lat = reg.histogram(
            "wire_send_seconds", "Delivery latency", buckets=(0.001, 0.01, 0.1)
        )
        for value in (0.0005, 0.001, 0.005, 0.01, 0.1, 0.5, 0.0):
            lat.observe(value)
        lat.observe(0.02, kind="message")
        reg.gauge_fn("queue_depth", "Mailbox depth", lambda: 7)
        assert render_metrics_text(reg.snapshot()) == _GOLDEN_TEXT

    def test_counter_text_format(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "Requests served").inc(3, kind="a")
        text = render_metrics_text(reg.snapshot())
        assert "# HELP requests_total Requests served" in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{kind="a"} 3' in text

    def test_histogram_text_has_cumulative_buckets_and_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        text = render_metrics_text(reg.snapshot())
        assert "lat_count 3" in text
        assert "lat_sum 11" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text

    def test_label_values_escape_reserved_characters(self):
        """Prometheus exposition reserves \\ " and newline inside quoted
        label values; raw occurrences would corrupt the whole page."""
        reg = MetricsRegistry()
        counter = reg.counter("odd_total", "odd labels")
        counter.inc(path='C:\\temp\\"x"\nnext')
        text = render_metrics_text(reg.snapshot())
        assert 'path="C:\\\\temp\\\\\\"x\\"\\nnext"' in text
        # The rendered page stays one-sample-per-line.
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(sample_lines) == 1

    def test_backslash_escaped_before_quote_and_newline(self):
        # Escaping backslash last would double-escape the other two.
        from repro.telemetry.exposition import _escape_label_value

        assert _escape_label_value("\\") == "\\\\"
        assert _escape_label_value('"') == '\\"'
        assert _escape_label_value("\n") == "\\n"
        assert _escape_label_value('\\"') == '\\\\\\"'
        assert _escape_label_value("plain") == "plain"

    def test_labeled_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v, op="send")
        text = render_metrics_text(reg.snapshot())
        assert 'lat_bucket{op="send",le="1"} 1' in text
        assert 'lat_bucket{op="send",le="2"} 2' in text
        assert 'lat_bucket{op="send",le="+Inf"} 3' in text
        assert 'lat_count{op="send"} 3' in text

    def test_gauge_text_format(self):
        reg = MetricsRegistry()
        reg.gauge("depth", "queue depth").set(7)
        text = render_metrics_text(reg.snapshot())
        assert "# TYPE depth gauge" in text
        assert "depth 7" in text

    def test_metrics_to_dict_histogram_shape(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0,)).observe(5.0)
        out = metrics_to_dict(reg.snapshot())
        sample = out["lat"]["samples"][0]
        assert sample["labels"] == {}
        assert sample["value"]["count"] == 1
        assert sample["value"]["overflow"] == 1
        assert sample["value"]["buckets"] == [{"le": 1.0, "count": 0}]
