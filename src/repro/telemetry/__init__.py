"""Naplet-space telemetry: journey tracing, metrics, in-space exposition.

Three layers (see DESIGN.md §"Telemetry architecture"):

- :mod:`repro.telemetry.metrics` — thread-safe Counter/Gauge/Histogram
  primitives with labels, and the per-server :class:`MetricsRegistry`;
- :mod:`repro.telemetry.trace` — :class:`TraceContext` minted at launch and
  carried by the naplet, timed :class:`Span` records, the per-server
  :class:`Tracer` that hands each finished span to the journal;
  :mod:`repro.telemetry.journey` stitches cross-server spans into one
  ordered :class:`Journey` tree;
- :mod:`repro.telemetry.exposition` — :class:`ServerTelemetry` (the bundle
  every server owns) plus text/JSON metric renderers;
- :mod:`repro.telemetry.journal` — the per-server flight recorder, each
  server's only record store, and the one record pipeline over it
  (:func:`merge_journals`, :func:`select`, :func:`order`, dump/load);
  read in-space through the one ``"harvest"`` open service
  (:mod:`repro.health.harvest`); :mod:`repro.telemetry.export` renders
  its records as a Chrome trace.
"""

from repro.telemetry.exposition import (
    ServerTelemetry,
    metrics_to_dict,
    render_metrics_text,
)
from repro.telemetry.export import (
    INSTANT_EVENT_KINDS,
    chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.journal import (
    CATEGORIES,
    RING_BOUND,
    JournalRecord,
    SpaceJournal,
    causal_key,
    dump_records,
    format_record,
    load_records,
    merge_journals,
    order,
    select,
    span_from_record,
)
from repro.telemetry.journey import (
    CriticalPath,
    HopBreakdown,
    Journey,
    JourneyNode,
    stitch,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricFamily,
    MetricsRegistry,
    MetricsSnapshot,
    exponential_buckets,
)
from repro.telemetry.trace import Span, TraceContext, Tracer, new_span_id, new_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "exponential_buckets",
    "TraceContext",
    "Span",
    "Tracer",
    "new_span_id",
    "new_trace_id",
    "Journey",
    "JourneyNode",
    "stitch",
    "CriticalPath",
    "HopBreakdown",
    "chrome_trace",
    "write_chrome_trace",
    "INSTANT_EVENT_KINDS",
    "CATEGORIES",
    "RING_BOUND",
    "JournalRecord",
    "SpaceJournal",
    "causal_key",
    "dump_records",
    "format_record",
    "load_records",
    "merge_journals",
    "order",
    "select",
    "span_from_record",
    "ServerTelemetry",
    "render_metrics_text",
    "metrics_to_dict",
]
