"""Journey tracing: trace contexts, spans, and the per-server tracer.

A :class:`TraceContext` is minted when a naplet launches and travels with it
(it is a plain serializable value object, so migration frames, freeze/thaw
images, and clones all carry it).  Every interesting step of the journey —
a migration hop, a landing, a post-action, a message send, a forwarding hop,
a locator lookup — is recorded as a timed :class:`Span` on the local
server's :class:`Tracer`, which keeps none of them: each completed span
goes to the tracer's ``on_span`` sink — on a server, the journal
(:meth:`~repro.telemetry.journal.SpaceJournal.observe_span`).  Spans
reference their parent by id, so ``SpaceAdmin.journey(nid)`` can stitch
the harvested span records back into one ordered tree (see
:mod:`repro.telemetry.journey`).

Span ids are random 16-hex-digit strings; trace ids 32.  A disabled tracer
(``enabled=False``) hands out no-op spans so the hot path costs one
attribute check.
"""

from __future__ import annotations

import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["TraceContext", "Span", "Tracer", "NULL_SPAN", "new_span_id", "new_trace_id"]


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The travelling half of a trace: the trace id plus the root span id.

    ``span_id`` names the journey's root span (recorded at launch); hop and
    message spans use it as their parent so the stitched tree stays shallow
    and readable.  The context is immutable and serializes with the naplet.
    """

    trace_id: str
    span_id: str

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Unpickled ids are interned: the records of every landing of one
        # journey share one string of each (the pickle is unchanged).
        for name, value in state.items():
            object.__setattr__(self, name, sys.intern(value) if type(value) is str else value)

    @classmethod
    def mint(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self, span_id: str) -> "TraceContext":
        """Same trace, re-rooted under *span_id* (messenger envelopes)."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id)


@dataclass(frozen=True)
class Span:
    """One timed step of a journey, recorded at one server."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    server: str
    start_wall: float
    start_mono: float
    duration: float
    attributes: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"  # "ok" | "error"
    # The encoded HLC stamp its journal record is written at, when the
    # span's causal position was minted before it closed (a hop: the stamp
    # its transfer frame carried); None stamps the record when it closes.
    hlc: str | None = None

    def attr(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)


class _LiveSpan:
    """In-flight span handed to the instrumented code inside ``with``."""

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id",
        "attributes", "start_wall", "start_mono", "duration", "status", "hlc",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attributes: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_wall = 0.0
        self.start_mono = 0.0
        self.duration = 0.0
        self.status = "ok"
        self.hlc: str | None = None

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def stamp(self, hlc: str) -> None:
        """Journal this span at *hlc* (encoded), however late it closes."""
        self.hlc = hlc

    def __enter__(self) -> "_LiveSpan":
        self.start_wall = time.time()
        self.start_mono = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.duration = time.monotonic() - self.start_mono
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", repr(exc))
        self.tracer._emit(
            Span(
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                server=self.tracer.server,
                start_wall=self.start_wall,
                start_mono=self.start_mono,
                duration=self.duration,
                attributes=self.attributes,
                status=self.status,
                hlc=self.hlc,
            )
        )
        return None  # never swallow the exception


class _NullSpan:
    """No-op stand-in when tracing is disabled."""

    __slots__ = ()
    span_id = ""
    duration = 0.0
    status = "ok"

    def set(self, key: str, value: Any) -> None:
        pass

    def stamp(self, hlc: str) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        return None


# The no-op span, also for callers that sometimes have nothing to trace.
NULL_SPAN = _NullSpan()


class Tracer:
    """Per-server span factory; completed spans go to :attr:`on_span`."""

    def __init__(self, server: str, enabled: bool = True) -> None:
        self.server = server
        self.enabled = enabled
        # The sink each completed span is handed to; spans finishing while
        # it is unset are discarded.  A server points it at its journal.
        self.on_span: Callable[[Span], None] | None = None

    # -- recording -------------------------------------------------------- #

    def span(
        self,
        name: str,
        ctx: TraceContext,
        parent_id: str | None = None,
        span_id: str | None = None,
        **attributes: Any,
    ) -> "_LiveSpan | _NullSpan":
        """Context manager timing one step of trace *ctx*.

        ``parent_id`` defaults to the context's root span; pass an explicit
        id to nest under another span (e.g. a landing under its hop).
        """
        if not self.enabled:
            return NULL_SPAN
        return _LiveSpan(
            tracer=self,
            name=name,
            trace_id=ctx.trace_id,
            span_id=span_id or new_span_id(),
            parent_id=parent_id if parent_id is not None else ctx.span_id,
            attributes=dict(attributes),
        )

    def _emit(self, span: Span) -> None:
        sink = self.on_span
        if sink is not None:
            sink(span)
