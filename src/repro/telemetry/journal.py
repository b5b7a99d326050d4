"""The space-wide flight recorder (DESIGN.md §6.5).

Every server keeps one bounded, append-only :class:`SpaceJournal`: the
only ring its records live in.  Navigator, Messenger, Locator, Monitor,
code shipping, the health plane and the transport write protocol events
with :meth:`SpaceJournal.record`; the tracer hands each completed
:class:`~repro.telemetry.trace.Span` to :meth:`SpaceJournal.observe_span`;
the fault injector, the perf plane and the health plane's load view append typed
records directly.  Each record carries a hybrid-logical-clock stamp
(:mod:`repro.util.hlc`), so journals harvested from N servers merge into
one causally consistent timeline even when the servers' wall clocks
disagree.

The journal is on exactly when the server's telemetry is; a disabled
journal records nothing and costs one boolean check.  The clock is
advanced by stamps piggybacked on transport frame headers (the ``"hlc"``
header) and inside frozen naplet images, mirroring how the
:class:`~repro.telemetry.trace.TraceContext` travels.

Reading is one pipeline (DESIGN.md §6.9): the ``journal`` kind of the
``"harvest"`` open service carries each ring home as record dicts,
:func:`merge_journals` produces the single causal timeline, and
:func:`select` is the only record filter (:meth:`SpaceJournal.records`,
the harvest service on-site and every ``tools/naplet.py`` subcommand call
it), beside :func:`order`, :func:`load_records` and :func:`dump_records`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.telemetry.trace import Span
from repro.util.hlc import HLCStamp, HybridLogicalClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Counter

__all__ = [
    "RING_BOUND",
    "CATEGORIES",
    "JournalRecord",
    "SpaceJournal",
    "merge_journals",
    "causal_key",
    "select",
    "order",
    "load_records",
    "dump_records",
    "span_from_record",
    "format_record",
]

# Records a server's journal keeps before the oldest fall off.
RING_BOUND = 8192

# Every value ``JournalRecord.category`` takes.
CATEGORIES = ("event", "span", "fault", "finding", "deadletter", "perf", "load")

# Event kinds that deserve their own journal category so queries can
# pull "everything the watchdog said" or "every dead-letter transition"
# without enumerating kinds.
_CATEGORY_BY_KIND = {
    "health-finding": "finding",
    "health-finding-resolved": "finding",
    "message-dead-lettered": "deadletter",
    "dead-letters-requeued": "deadletter",
}

# Detail keys that name the naplet a record is about, in precedence order.
_NAPLET_KEYS = ("naplet", "target", "clone")


@dataclass(frozen=True)
class JournalRecord:
    """One flight-recorder entry: typed, stamped, JSON-describable."""

    seq: int  # per-server append sequence (merge tie-break)
    hlc: HLCStamp
    kind: str
    category: str  # one of CATEGORIES
    server: str
    wall: float
    mono: float
    naplet: str | None = None
    trace_id: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "hlc": self.hlc.describe(),
            "kind": self.kind,
            "category": self.category,
            "server": self.server,
            "wall": self.wall,
            "mono": self.mono,
            "naplet": self.naplet,
            "trace_id": self.trace_id,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalRecord":
        return cls(
            seq=int(data["seq"]),
            hlc=HLCStamp.from_dict(data["hlc"]),
            kind=str(data["kind"]),
            category=str(data["category"]),
            server=str(data["server"]),
            wall=float(data["wall"]),
            mono=float(data["mono"]),
            naplet=data.get("naplet"),
            trace_id=data.get("trace_id"),
            detail=dict(data.get("detail") or {}),
        )

    def matches(self, kind: str, **detail: Any) -> bool:
        """True when this record has *kind* and every given detail item."""
        if self.kind != kind:
            return False
        return all(self.detail.get(k) == v for k, v in detail.items())

    def mentions(self, subject: str) -> bool:
        """True when this record is about *subject* (naplet id or host)."""
        if self.naplet == subject or self.server == subject:
            return True
        return any(str(v) == subject for v in self.detail.values())


def causal_key(record: JournalRecord) -> tuple:
    """Sort key realizing the HLC total order (seq breaks same-node ties)."""
    return (record.hlc, record.seq)


def merge_journals(
    journals: Iterable[Iterable[JournalRecord]],
) -> list[JournalRecord]:
    """Merge per-server journals into one causally ordered timeline."""
    timeline = [record for journal in journals for record in journal]
    timeline.sort(key=causal_key)
    return timeline


def _journey(records: list[JournalRecord], subject: str) -> list[JournalRecord]:
    """Every record of the journey *subject* names: a trace id or naplet id.

    A naplet id resolves to the trace id(s) its records carry, a trace id
    to the naplets its records name (a clone family shares one trace), and
    the whole of both is kept: records written under a clone's name and
    event records that carry no trace id stay in the picture, and either
    spelling of a journey selects the same records.  Only sound over the
    merged timeline — one server's ring may hold the trace without the
    record that ties it to the naplet id.
    """
    traces = {subject} | {
        r.trace_id for r in records if r.trace_id is not None and r.mentions(subject)
    }
    family = {subject} | {
        r.naplet for r in records if r.trace_id in traces and r.naplet is not None
    }
    return [
        r for r in records if r.trace_id in traces or any(map(r.mentions, family))
    ]


def select(
    records: Iterable[JournalRecord],
    *,
    journey: str | None = None,
    naplet: str | None = None,
    server: str | None = None,
    kind: str | None = None,
    category: str | None = None,
    trace_id: str | None = None,
    since: float | None = None,
    until: float | None = None,
    after_seq: int = 0,
    limit: int | None = None,
) -> list[JournalRecord]:
    """The one record filter: every criterion given must hold (AND).

    *journey* (see :func:`_journey`) is resolved first, over all of
    *records*; *since*/*until* bound the wall stamp, *after_seq* the
    per-server sequence number (a tail's watermark), and *limit* keeps the
    last N of what survives.  Input order is preserved.
    """
    out = list(records)
    if journey is not None:
        out = _journey(out, journey)
    out = [
        r
        for r in out
        if (naplet is None or r.naplet == naplet)
        and (server is None or r.server == server)
        and (kind is None or r.kind == kind)
        and (category is None or r.category == category)
        and (trace_id is None or r.trace_id == trace_id)
        and (since is None or r.wall >= since)
        and (until is None or r.wall <= until)
        and r.seq > after_seq
    ]
    return out if limit is None else out[-limit:]


def order(
    records: Iterable[JournalRecord], causal: bool = False
) -> list[JournalRecord]:
    """Wall-clock order by default; the HLC total order when *causal*.

    With skewed server clocks the wall order can show a naplet landing
    before it departed; the causal order never can.
    """
    if causal:
        return sorted(records, key=causal_key)
    return sorted(records, key=lambda r: (r.wall, r.seq))


def load_records(path: str) -> list[JournalRecord]:
    """Read a journal dump: ``{"records": [...]}`` or a bare list of dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("records")
    try:
        return [JournalRecord.from_dict(entry) for entry in data]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a journal dump ({exc!r})") from exc


def dump_records(path: str, records: Iterable[JournalRecord]) -> None:
    """Write *records* as a JSON dump :func:`load_records` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"records": [r.describe() for r in records]}, fh, indent=1)


class SpaceJournal:
    """Bounded per-server ring of :class:`JournalRecord` (thread-safe).

    :meth:`record` writes a protocol event, :meth:`observe_span` a
    completed span, :meth:`append` any typed record; :meth:`receive`
    advances the clock from a piggybacked stamp.  The ring keeps the
    newest :data:`RING_BOUND` records.  A disabled journal appends nothing
    and costs one boolean check.
    """

    def __init__(
        self,
        server: str,
        enabled: bool = True,
        time_source: Any | None = None,
        records_counter: "Counter | None" = None,
    ) -> None:
        self.server = server
        self.enabled = enabled
        self.clock = HybridLogicalClock(server, time_source=time_source)
        self._time = time_source or time.time
        self._records: deque[JournalRecord] = deque(maxlen=RING_BOUND)
        self._seq = 0
        self._total = 0
        self._lock = threading.Lock()
        self._records_counter = records_counter

    # -- recording -------------------------------------------------------- #

    def append(
        self,
        kind: str,
        category: str = "event",
        naplet: str | None = None,
        trace_id: str | None = None,
        detail: dict[str, Any] | None = None,
        wall: float | None = None,
        mono: float | None = None,
        hlc: HLCStamp | None = None,
    ) -> JournalRecord | None:
        """Append one record, stamped now — or at *hlc*, for a record that
        is written late but belongs at a causal position already minted."""
        if not self.enabled:
            return None
        stamp = hlc if hlc is not None else self.clock.now()
        if wall is None:
            wall = self._time()
        elif self._time is not time.time:
            # A custom time source models this server's (skewed) local
            # clock; shift component-provided walls into that domain so
            # the journal reads as a machine with that clock would write
            # it.  Real deployments take the fast path above.
            wall = wall + (self._time() - time.time())
        with self._lock:
            self._seq += 1
            record = JournalRecord(
                seq=self._seq,
                hlc=stamp,
                kind=kind,
                category=category,
                server=self.server,
                wall=wall,
                mono=time.monotonic() if mono is None else mono,
                naplet=naplet,
                trace_id=trace_id,
                detail=detail or {},
            )
            self._records.append(record)
            self._total += 1
        if self._records_counter is not None:
            self._records_counter.inc(kind=kind)
        return record

    def record(self, kind: str, **detail: Any) -> JournalRecord | None:
        """Journal one protocol event: the naplet it is about is the first
        of ``naplet``/``target``/``clone`` in *detail*, its category comes
        from *kind*."""
        if not self.enabled:
            return None
        naplet = next(
            (str(detail[key]) for key in _NAPLET_KEYS if detail.get(key) is not None),
            None,
        )
        return self.append(
            kind, _CATEGORY_BY_KIND.get(kind, "event"), naplet, detail=detail
        )

    # Read by the frozen journey harness.
    observe_event = record

    def observe_span(self, span: Span) -> None:
        """The tracer's ``on_span`` sink: a completed span becomes a record."""
        if not self.enabled:
            return
        naplet = span.attributes.get("naplet")
        self.append(
            kind=span.name,
            category="span",
            naplet=str(naplet) if naplet is not None else None,
            trace_id=span.trace_id,
            detail={
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "duration": span.duration,
                "status": span.status,
                "attributes": dict(span.attributes),
            },
            wall=span.start_wall,
            mono=span.start_mono,
        )

    def receive(self, encoded: str | HLCStamp) -> None:
        """Advance the clock from a stamp that rode a frame or a pickle."""
        if not self.enabled:
            return
        try:
            stamp = (
                encoded
                if isinstance(encoded, HLCStamp)
                else HLCStamp.decode(encoded)
            )
        except (ValueError, AttributeError):
            return  # a malformed header must never break frame dispatch
        self.clock.update(stamp)

    def header_stamp(self) -> str | None:
        """Encoded stamp for piggybacking on an outbound frame header."""
        if not self.enabled:
            return None
        return self.clock.now().encode()

    # -- queries ----------------------------------------------------------- #

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def total_appended(self) -> int:
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Records discarded by the ring bound since construction."""
        with self._lock:
            return max(0, self._total - len(self._records))

    def snapshot(self) -> list[JournalRecord]:
        with self._lock:
            return list(self._records)

    def records(self, **filters: Any) -> list[JournalRecord]:
        """This ring's records passing :func:`select`'s *filters*."""
        return select(self.snapshot(), **filters)

    def find(self, kind: str, **detail: Any) -> list[JournalRecord]:
        """This ring's records of *kind* carrying every given detail item."""
        return [r for r in self.snapshot() if r.matches(kind, **detail)]

    def count(self, kind: str, **detail: Any) -> int:
        return len(self.find(kind, **detail))

    def slice_for(self, subject: str, limit: int = 32) -> list[JournalRecord]:
        """The most recent records mentioning *subject* (watchdog evidence)."""
        return [r for r in self.snapshot() if r.mentions(subject)][-limit:]

    def __len__(self) -> int:
        return self.depth


# ---------------------------------------------------------------------- #
# Reconstruction + rendering helpers (the naplet CLI, chrome export)
# ---------------------------------------------------------------------- #


def span_from_record(record: JournalRecord) -> Span:
    """Rebuild a :class:`Span` from a span-category journal record."""
    if record.category != "span":
        raise ValueError(f"record {record.seq} at {record.server} is not a span")
    detail = record.detail
    return Span(
        trace_id=record.trace_id or "",
        span_id=str(detail.get("span_id", "")),
        parent_id=detail.get("parent_id"),
        name=record.kind,
        server=record.server,
        start_wall=record.wall,
        start_mono=record.mono,
        duration=float(detail.get("duration", 0.0)),
        attributes=dict(detail.get("attributes") or {}),
        status=str(detail.get("status", "ok")),
    )


def format_record(record: JournalRecord) -> str:
    """One text line per record, shared by ``naplet log`` and ``naplet stat``."""
    hlc = record.hlc
    naplet = record.naplet or "-"
    summary = ", ".join(
        f"{k}={v}"
        for k, v in record.detail.items()
        if k not in ("attributes",) and v is not None
    )
    return (
        f"{hlc.wall:.6f}+{hlc.logical:<3d} {record.server:<8} "
        f"{record.category:<10} {record.kind:<26} {naplet:<30} {summary}"
    )
