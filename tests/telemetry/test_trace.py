"""Unit tests for trace contexts, spans, tracers, and journey stitching."""

from __future__ import annotations

import pickle

import pytest

from repro.telemetry.journey import stitch
from repro.telemetry.trace import NULL_SPAN, Span, TraceContext, Tracer


def _span(trace_id="t", span_id="s", parent_id=None, name="n", mono=0.0, **attrs):
    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        server="host",
        start_wall=mono,
        start_mono=mono,
        duration=0.001,
        attributes=attrs,
    )


class TestTraceContext:
    def test_mint_is_unique(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 32 and len(a.span_id) == 16

    def test_child_rebases_root(self):
        ctx = TraceContext.mint()
        child = ctx.child("abc")
        assert child.trace_id == ctx.trace_id
        assert child.span_id == "abc"

    def test_pickles_roundtrip(self):
        ctx = TraceContext.mint()
        assert pickle.loads(pickle.dumps(ctx)) == ctx


def _sunk(tracer: Tracer) -> list[Span]:
    """Collect what *tracer* emits through its ``on_span`` sink."""
    spans: list[Span] = []
    tracer.on_span = spans.append
    return spans


class TestTracer:
    def test_span_records_timing_and_attributes(self):
        tracer = Tracer("host")
        spans = _sunk(tracer)
        ctx = TraceContext.mint()
        with tracer.span("hop", ctx, dest="naplet://b") as sp:
            sp.set("bytes", 42)
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "hop"
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id  # defaults to the context root
        assert span.attr("dest") == "naplet://b"
        assert span.attr("bytes") == 42
        assert span.duration >= 0.0
        assert span.status == "ok"

    def test_explicit_parent_and_span_id(self):
        tracer = Tracer("host")
        spans = _sunk(tracer)
        ctx = TraceContext.mint()
        with tracer.span("launch", ctx, parent_id="", span_id=ctx.span_id):
            pass
        span = spans[0]
        assert span.span_id == ctx.span_id
        assert not span.parent_id  # explicit root

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer("host")
        spans = _sunk(tracer)
        ctx = TraceContext.mint()
        with pytest.raises(RuntimeError):
            with tracer.span("hop", ctx):
                raise RuntimeError("boom")
        span = spans[0]
        assert span.status == "error"
        assert "boom" in span.attr("error")

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer("host", enabled=False)
        spans = _sunk(tracer)
        ctx = TraceContext.mint()
        with tracer.span("hop", ctx) as sp:
            sp.set("ignored", 1)
        assert sp is NULL_SPAN
        assert sp.span_id == ""
        assert spans == []

    def test_spans_without_a_sink_are_discarded(self):
        tracer = Tracer("host")
        ctx = TraceContext.mint()
        with tracer.span("hop", ctx):
            pass


class TestStitch:
    def test_parent_links_and_sibling_order(self):
        spans = [
            _span(span_id="root", name="launch", mono=0.0),
            _span(span_id="h2", parent_id="root", name="hop", mono=2.0),
            _span(span_id="h1", parent_id="root", name="hop", mono=1.0),
            _span(span_id="l1", parent_id="h1", name="landing", mono=1.5),
        ]
        journey = stitch(spans)
        assert len(journey) == 4
        (root,) = journey.roots
        assert root.span.name == "launch"
        assert [c.span.span_id for c in root.children] == ["h1", "h2"]
        assert root.children[0].children[0].span.name == "landing"

    def test_orphans_become_roots(self):
        journey = stitch([_span(span_id="x", parent_id="gone", name="hop")])
        assert len(journey.roots) == 1
        assert journey.roots[0].span.name == "hop"

    def test_duplicate_span_ids_kept_once(self):
        journey = stitch([_span(span_id="a"), _span(span_id="a")])
        assert len(journey) == 1

    def test_empty(self):
        journey = stitch([])
        assert not journey
        assert journey.render() == "(empty journey)"

    def test_render_tree(self):
        spans = [
            _span(span_id="root", name="launch", mono=0.0),
            _span(
                span_id="h1", parent_id="root", name="hop", mono=1.0,
                source="a", dest="naplet://b",
            ),
        ]
        text = stitch(spans).render()
        assert "journey t" in text
        assert "launch" in text
        assert "hop" in text
        assert "a -> naplet://b" in text
        assert "ms" in text
