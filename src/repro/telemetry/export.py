"""Chrome trace-event export: one timeline for spans, resources, faults.

``chrome://tracing`` / Perfetto load a JSON object with a ``traceEvents``
list; this module renders a naplet space's journal records into that
format so a whole chaos experiment can be scrubbed on one timeline:

- every span record becomes a complete (``"X"``) event — hops, landings,
  message sends, locator lookups — grouped into one *process* row per
  server and one *thread* row per naplet (spans naming no naplet group
  under their trace id);
- every ``fault`` record (an injected fault) becomes an instant (``"i"``)
  event, pinning "the fault plan dropped this frame here" onto the exact
  moment the surrounding spans stretched;
- the event kinds in :data:`INSTANT_EVENT_KINDS` become instants on their
  server's row;
- every hop span carrying byte attribution (the perf plane) additionally
  emits counter (``"C"``) tracks — per-hop payload/header/code bytes and
  serialize milliseconds — so migration cost renders as an area chart
  alongside the hops that paid it;
- every :class:`~repro.health.profile.ResourceProfile` sample passed as
  ``profiles`` becomes a counter (``"C"``) event, so CPU and message-byte
  consumption render as area charts under the spans they explain.

All timestamps derive from the *same* process-wide monotonic clock the
journals and the health plane stamp (``time.monotonic()``), rebased to
the earliest event and scaled to microseconds, so ordering across
servers, profiles and faults is consistent by construction.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.health.profile import ResourceProfile
    from repro.telemetry.journal import JournalRecord

__all__ = ["chrome_trace", "write_chrome_trace", "INSTANT_EVENT_KINDS"]

_FAULT_PROCESS = "fault-injector"

# Event kinds rendered as instant events: state transitions that have
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


def _span_events(
    record: "JournalRecord", ids: _IdAllocator, ts: float
) -> list[dict[str, Any]]:
    """A span record's complete event, plus its hop-cost counter tracks."""
    detail = record.detail
    attributes = detail.get("attributes") or {}
    status = str(detail.get("status", "ok"))
    thread = record.naplet or f"trace {(record.trace_id or '')[:8]}"
    pid, tid = ids.tid(record.server, thread)
    args: dict[str, Any] = dict(attributes)
    if status != "ok":
        args["status"] = status
    events = [
        {
            "ph": "X",
            "name": record.kind,
            "cat": "span" if status == "ok" else "span,error",
            "ts": ts,
            "dur": float(detail.get("duration", 0.0)) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    ]
    # Perf-plane counter tracks: a hop carrying byte attribution
    # renders its cost as an area chart on the source server's row.
    if record.kind == "hop" and attributes.get("bytes"):
        events.append(
            {
                "ph": "C",
                "name": "hop bytes",
                "ts": ts,
                "pid": pid,
                "args": {
                    "payload": int(attributes.get("bytes", 0) or 0),
                    "header": int(attributes.get("header_bytes", 0) or 0),
                    "code": int(attributes.get("code_bytes", 0) or 0),
                },
            }
        )
        serialize_s = attributes.get("serialize_s")
        if serialize_s is not None:
            events.append(
                {
                    "ph": "C",
                    "name": "hop serialize ms",
                    "ts": ts,
                    "pid": pid,
                    "args": {"ms": float(serialize_s) * 1e3},
                }
            )
    return events


def chrome_trace(
    records: "Iterable[JournalRecord]", *, profiles: Iterable[Any] = ()
) -> dict[str, Any]:
    """Render journal records into a Chrome trace-event JSON object.

    ``records`` is any :class:`~repro.telemetry.journal.JournalRecord`
    iterable — a harvest (``SpaceAdmin.harvest_journal``, a probe's rows
    through ``merged_journal``) or a loaded dump; records that are neither
    spans, faults nor :data:`INSTANT_EVENT_KINDS` are skipped.
    ``profiles`` takes :class:`ResourceProfile` objects or
    ``(hostname, profile)`` pairs (as :meth:`SpaceAdmin.top_naplets_by_cpu`
    returns).
    """
    drawn = [
        r
        for r in records
        if r.category in ("span", "fault") or r.kind in INSTANT_EVENT_KINDS
    ]
    profile_list = _flatten_profiles(profiles)

    # One shared monotonic origin so every event lands on the same axis.
    candidates: list[float] = [record.mono for record in drawn]
    candidates.extend(
        sample.mono for _host, profile in profile_list for sample in profile.samples
    )
    base = min(candidates) if candidates else 0.0

    def micros(mono: float) -> float:
        return (mono - base) * 1e6

    ids = _IdAllocator()
    out_events: list[dict[str, Any]] = []

    for record in drawn:
        if record.category == "span":
            out_events.extend(_span_events(record, ids, micros(record.mono)))
        elif record.category == "fault":
            detail = record.detail
            pid, tid = ids.tid(
                _FAULT_PROCESS, f"{detail.get('source', '?')} -> {detail.get('dest', '?')}"
            )
            out_events.append(
                {
                    "ph": "i",
                    "name": f"fault {'+'.join(detail.get('labels') or ())}",
                    "cat": "fault",
                    "ts": micros(record.mono),
                    "pid": pid,
                    "tid": tid,
                    "s": "g",  # global scope: draw the line across all rows
                    "args": dict(detail),
                }
            )
        else:
            pid, tid = ids.tid(record.server, record.kind)
            out_events.append(
                {
                    "ph": "i",
                    "name": record.kind,
                    "cat": "event",
                    "ts": micros(record.mono),
                    "pid": pid,
                    "tid": tid,
                    "s": "t",  # thread scope: pin to the server row it happened on
                    "args": {
                        key: value
                        for key, value in record.detail.items()
                        if value is not None
                    },
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

    out_events.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("tid", 0)))
    return {
        "traceEvents": ids.metadata + out_events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    path: str, records: "Iterable[JournalRecord]", *, profiles: Iterable[Any] = ()
) -> dict[str, Any]:
    """Write :func:`chrome_trace` output to *path*; returns the trace dict."""
    trace = chrome_trace(records, profiles=profiles)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
    return trace
