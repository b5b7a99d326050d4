"""Chrome trace-event export: one timeline for spans, resources, faults.

``chrome://tracing`` / Perfetto load a JSON object with a ``traceEvents``
list; this module renders a naplet space's telemetry into that format so
a whole chaos experiment can be scrubbed on one timeline:

- every :class:`~repro.telemetry.trace.Span` becomes a complete (``"X"``)
  event — hops, landings, message sends, locator lookups — grouped into
  one *process* row per server and one *thread* row per naplet (spans
  with no naplet attribute group under their trace id);
- every :class:`~repro.health.profile.ResourceProfile` sample becomes a
  counter (``"C"``) event, so CPU and message-byte consumption render as
  area charts under the spans they explain;
- every fired :class:`~repro.faults.engine.FaultRecord` becomes an
  instant (``"i"``) event, pinning "the injector dropped this frame
  here" onto the exact moment the surrounding spans stretched;
- every hop span carrying byte attribution (the perf plane) additionally
  emits counter (``"C"``) tracks — per-hop payload/header/code bytes and
  serialize milliseconds — so migration cost renders as an area chart
  alongside the hops that paid it.

All timestamps derive from the *same* process-wide monotonic clock the
tracers and the health plane sample (``time.monotonic()``), rebased to
the earliest event and scaled to microseconds, so ordering across
servers, profiles and faults is consistent by construction.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from repro.telemetry.trace import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.health.profile import ResourceProfile
    from repro.telemetry.journey import Journey

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "journal_chrome_trace",
    "INSTANT_EVENT_KINDS",
]

_FAULT_PROCESS = "fault-injector"

# EventLog kinds rendered as instant events: state transitions that have
# no duration but explain why the surrounding spans stretched or vanished
# (a message died, a backlog drained, an Alt mirror burned).
INSTANT_EVENT_KINDS = (
    "message-dead-lettered",
    "dead-letters-requeued",
    "alt-failover",
)


class _IdAllocator:
    """Stable small-integer ids for process/thread names, plus metadata."""

    def __init__(self) -> None:
        self._ids: dict[tuple[str, str | None], int] = {}
        self.metadata: list[dict[str, Any]] = []

    def pid(self, process: str) -> int:
        key = (process, None)
        pid = self._ids.get(key)
        if pid is None:
            pid = self._ids[key] = len(self._ids) + 1
            self.metadata.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "args": {"name": process},
                }
            )
        return pid

    def tid(self, process: str, thread: str) -> tuple[int, int]:
        pid = self.pid(process)
        key = (process, thread)
        tid = self._ids.get(key)
        if tid is None:
            tid = self._ids[key] = len(self._ids) + 1
            self.metadata.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        return pid, tid


def _thread_label(span: Span) -> str:
    naplet = span.attributes.get("naplet")
    if naplet:
        return str(naplet)
    return f"trace {span.trace_id[:8]}"


def _flatten_profiles(profiles: Iterable[Any]) -> "list[tuple[str, ResourceProfile]]":
    """Accept bare profiles or ``(hostname, profile)`` pairs."""
    out: list[tuple[str, Any]] = []
    for entry in profiles:
        if isinstance(entry, tuple) and len(entry) == 2:
            host, profile = entry
            out.append((str(host), profile))
        else:
            out.append(("space", entry))
    return out


def _flatten_events(events: Iterable[Any]) -> list[tuple[str, Any]]:
    """Accept bare EventRecords or ``(hostname, record)`` pairs."""
    out: list[tuple[str, Any]] = []
    for entry in events:
        if isinstance(entry, tuple) and len(entry) == 2:
            host, record = entry
            out.append((str(host), record))
        else:
            out.append(("space", entry))
    return out


def chrome_trace(
    spans: "Iterable[Span] | Journey" = (),
    *,
    profiles: Iterable[Any] = (),
    fault_records: Iterable[Any] = (),
    events: Iterable[Any] = (),
    instant_kinds: tuple[str, ...] = INSTANT_EVENT_KINDS,
) -> dict[str, Any]:
    """Render telemetry into a Chrome trace-event JSON object.

    ``spans`` is any span iterable or a stitched :class:`Journey`;
    ``profiles`` takes :class:`ResourceProfile` objects or
    ``(hostname, profile)`` pairs (as :meth:`SpaceAdmin.top_naplets_by_cpu`
    returns); ``fault_records`` takes :class:`FaultRecord` objects (from
    :meth:`FaultInjector.records` / :meth:`VirtualNetwork.fault_records`);
    ``events`` takes :class:`~repro.util.eventlog.EventRecord` objects or
    ``(hostname, record)`` pairs, of which the kinds listed in
    ``instant_kinds`` (dead-letter transitions, Alt failovers) are drawn
    as instant events on their server's row.
    """
    span_list: list[Span] = (
        list(spans.spans) if hasattr(spans, "spans") else list(spans)
    )
    profile_list = _flatten_profiles(profiles)
    record_list = list(fault_records)
    event_list = [
        (host, record)
        for host, record in _flatten_events(events)
        if record.kind in instant_kinds
    ]

    # One shared monotonic origin so every event lands on the same axis.
    candidates: list[float] = [span.start_mono for span in span_list]
    candidates.extend(
        sample.mono for _host, profile in profile_list for sample in profile.samples
    )
    candidates.extend(record.mono for record in record_list)
    candidates.extend(record.mono for _host, record in event_list)
    base = min(candidates) if candidates else 0.0

    def micros(mono: float) -> float:
        return (mono - base) * 1e6

    ids = _IdAllocator()
    out_events: list[dict[str, Any]] = []

    for span in span_list:
        pid, tid = ids.tid(span.server, _thread_label(span))
        args: dict[str, Any] = dict(span.attributes)
        if span.status != "ok":
            args["status"] = span.status
        out_events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "span" if span.status == "ok" else "span,error",
                "ts": micros(span.start_mono),
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        # Perf-plane counter tracks: a hop carrying byte attribution
        # renders its cost as an area chart on the source server's row.
        if span.name == "hop" and span.attributes.get("bytes"):
            payload = int(span.attributes.get("bytes", 0) or 0)
            out_events.append(
                {
                    "ph": "C",
                    "name": "hop bytes",
                    "ts": micros(span.start_mono),
                    "pid": pid,
                    "args": {
                        "payload": payload,
                        "header": int(span.attributes.get("header_bytes", 0) or 0),
                        "code": int(span.attributes.get("code_bytes", 0) or 0),
                    },
                }
            )
            serialize_s = span.attributes.get("serialize_s")
            if serialize_s is not None:
                out_events.append(
                    {
                        "ph": "C",
                        "name": "hop serialize ms",
                        "ts": micros(span.start_mono),
                        "pid": pid,
                        "args": {"ms": float(serialize_s) * 1e3},
                    }
                )

    for host, profile in profile_list:
        pid = ids.pid(host)
        name = f"resources {profile.naplet_id}"
        for sample in profile.samples:
            out_events.append(
                {
                    "ph": "C",
                    "name": name,
                    "ts": micros(sample.mono),
                    "pid": pid,
                    "args": {
                        "cpu_seconds": sample.cpu_seconds,
                        "message_bytes": sample.message_bytes,
                    },
                }
            )

    for host, record in event_list:
        pid, tid = ids.tid(host, record.kind)
        args = {
            key: value for key, value in record.detail.items() if value is not None
        }
        out_events.append(
            {
                "ph": "i",
                "name": record.kind,
                "cat": "event",
                "ts": micros(record.mono),
                "pid": pid,
                "tid": tid,
                "s": "t",  # thread scope: pin to the server row it happened on
                "args": args,
            }
        )

    for record in record_list:
        pid, tid = ids.tid(_FAULT_PROCESS, f"{record.source} -> {record.dest}")
        out_events.append(
            {
                "ph": "i",
                "name": f"fault {'+'.join(record.labels)}",
                "cat": "fault",
                "ts": micros(record.mono),
                "pid": pid,
                "tid": tid,
                "s": "g",  # global scope: draw the line across all rows
                "args": record.describe(),
            }
        )

    out_events.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("tid", 0)))
    return {
        "traceEvents": ids.metadata + out_events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    path: str,
    spans: "Iterable[Span] | Journey" = (),
    *,
    profiles: Iterable[Any] = (),
    fault_records: Iterable[Any] = (),
    events: Iterable[Any] = (),
    instant_kinds: tuple[str, ...] = INSTANT_EVENT_KINDS,
) -> dict[str, Any]:
    """Write :func:`chrome_trace` output to *path*; returns the trace dict."""
    trace = chrome_trace(
        spans,
        profiles=profiles,
        fault_records=fault_records,
        events=events,
        instant_kinds=instant_kinds,
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
    return trace


def journal_chrome_trace(records: Iterable[Any]) -> dict[str, Any]:
    """Render a harvested flight-recorder timeline as a Chrome trace.

    Accepts the :class:`~repro.telemetry.journal.JournalRecord` list a
    harvest produces (``SpaceAdmin.harvest_journal``, or a probe's rows
    through ``merged_journal``): span records are rebuilt into spans,
    fault records into injector instants, and the dead-letter / failover
    event kinds into per-server instants — one timeline from one artifact, which is how
    ``tools/naplet.py log --chrome`` renders an offline journal dump.
    """
    from repro.faults.engine import FaultRecord
    from repro.telemetry.journal import span_from_record
    from repro.util.eventlog import EventRecord

    spans: list[Span] = []
    faults: list[Any] = []
    instants: list[tuple[str, Any]] = []
    for record in records:
        if record.category == "span":
            spans.append(span_from_record(record))
        elif record.category == "fault":
            detail = record.detail
            faults.append(
                FaultRecord(
                    labels=tuple(detail.get("labels") or ()),
                    kind=str(detail.get("kind", "?")),
                    source=str(detail.get("source", "?")),
                    dest=str(detail.get("dest", "?")),
                    wall=record.wall,
                    mono=record.mono,
                )
            )
        elif record.kind in INSTANT_EVENT_KINDS:
            instants.append(
                (
                    record.server,
                    EventRecord(
                        kind=record.kind,
                        detail=dict(record.detail),
                        wall=record.wall,
                        mono=record.mono,
                    ),
                )
            )
    return chrome_trace(spans, fault_records=faults, events=instants)
