"""Telemetry wiring and metric renderers.

:class:`ServerTelemetry` bundles one server's :class:`MetricsRegistry`,
:class:`Tracer` and :class:`SpaceJournal` and pre-creates the standard
instruments: byte sums, histograms and labelled counters (hop bytes,
message counters, quota trips, outcomes, …).  An event the journal records
(a launch, landing, hop, retry, cache hit, …) is counted once, by the
journal's per-kind tally, exported as ``naplet_journal_records_total{kind}``.
A server constructed with ``ServerConfig.telemetry_enabled=False`` gets the
same object with no-op instruments and a journal that records nothing.

Renderers keep exposition decoupled from formatting: text output follows
the Prometheus exposition idiom (``name{label="v"} value``); the dict form
(:func:`metrics_to_dict`) is JSON-serializable and is what the ``metrics``
kind of the ``"harvest"`` open service carries home
(:mod:`repro.health.harvest`, DESIGN.md §6.9).  Spans and per-kind event
counts reach an operator through the journal, not through here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.telemetry.journal import SpaceJournal
from repro.telemetry.metrics import (
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    exponential_buckets,
)
from repro.telemetry.trace import TraceContext, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet

__all__ = ["ServerTelemetry", "render_metrics_text", "metrics_to_dict"]


class ServerTelemetry:
    """One server's metrics registry + tracer + journal + standard instruments."""

    def __init__(
        self,
        hostname: str,
        enabled: bool = True,
        journal_time_source: Callable[[], float] | None = None,
    ) -> None:
        self.hostname = hostname
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(hostname, enabled=enabled)
        reg = self.registry
        # Flight recorder: the server's one record store, fed every
        # completed span.  Its per-kind tally is the one count of any
        # event it records (launches, landings, hops, retries, …).
        self.journal = SpaceJournal(hostname, enabled, journal_time_source)
        self.tracer.on_span = self.journal.observe_span
        reg.counter_fn(
            "naplet_journal_records_total",
            "Flight-recorder records appended, by event kind",
            "kind",
            self.journal.tally,
        )
        reg.gauge_fn(
            "naplet_journal_depth",
            "Records currently held in the flight-recorder ring",
            lambda: float(self.journal.depth),
        )
        reg.gauge_fn(
            "naplet_journal_dropped_records",
            "Flight-recorder records discarded by the ring bound",
            lambda: float(self.journal.dropped),
        )
        # Read by the frozen journey harness as counters.
        self.delta_full_reships = _TallyView(self.journal, "delta-full-reship")
        self.migration_retries = _TallyView(self.journal, "migration-retry")
        # NapletManager / Navigator
        self.landings_denied = reg.counter(
            "naplet_landings_denied_total", "Landing requests this server denied"
        )
        self.delta_hops = reg.counter(
            "naplet_delta_hops_total",
            "Hops that shipped a delta image instead of a full one",
        )
        self.delta_saved_bytes = reg.counter(
            "naplet_delta_saved_bytes_total",
            "Bytes delta shipping kept off the wire (unchanged cached fields)",
        )
        self.hop_latency = reg.histogram(
            "naplet_hop_latency_seconds",
            "End-to-end migration latency (LAUNCH grant to transfer ack)",
        )
        self.itinerary_depth = reg.histogram(
            "naplet_itinerary_depth",
            "Servers visited so far, observed at each landing",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        # Perf plane (DESIGN.md §6.6): where the bytes and microseconds go
        self.hop_bytes = reg.histogram(
            "naplet_hop_bytes",
            "Bytes shipped per migration hop, split by part "
            "(payload | header | code)",
            buckets=exponential_buckets(start=64.0, factor=4.0, count=10),
        )
        self.serialize_seconds = reg.histogram(
            "naplet_serialize_seconds",
            "Naplet image serialize/deserialize time, by op (dumps | loads)",
        )
        # Messenger / Mailbox
        self.messages_delivered = reg.counter(
            "naplet_messages_delivered_total", "Messages deposited in a local mailbox"
        )
        self.messages_forwarded = reg.counter(
            "naplet_messages_forwarded_total", "Messages forwarded along a trace"
        )
        self.messages_parked = reg.counter(
            "naplet_messages_parked_total", "Messages parked in the special mailbox"
        )
        self.special_mailbox_hits = reg.counter(
            "naplet_special_mailbox_hits_total",
            "Parked messages claimed by a landing naplet",
        )
        # NapletMonitor (its outcomes, the locator's evictions and the
        # dead-letter redeliveries are views its owner registers over its
        # own count)
        self.quota_trips = reg.counter(
            "naplet_quota_trips_total", "Quota violations raised, by resource"
        )
        self.cpu_seconds = reg.counter(
            "naplet_cpu_seconds_total", "CPU seconds consumed by retired naplets"
        )

    # -- perf plane -------------------------------------------------------- #

    def serializer_observer(self) -> "_SerializerTelemetry":
        """Adapter feeding ``NapletSerializer`` costs into the histograms."""
        return _SerializerTelemetry(self)

    # -- span helpers ------------------------------------------------------ #

    def naplet_span(
        self,
        naplet: "Naplet",
        name: str,
        parent_id: str | None = None,
        **attributes: Any,
    ):
        """Span bound to *naplet*'s trace context (minting one if absent)."""
        ctx = naplet._ensure_trace()
        if naplet.has_id:
            attributes.setdefault("naplet", str(naplet.naplet_id))
        return self.tracer.span(name, ctx, parent_id=parent_id, **attributes)

    def span(self, name: str, ctx: TraceContext, parent_id: str | None = None, **attributes: Any):
        return self.tracer.span(name, ctx, parent_id=parent_id, **attributes)


class _TallyView:
    """One journal kind's tally behind a counter's ``total()``."""

    def __init__(self, journal: SpaceJournal, kind: str) -> None:
        self._journal, self._kind = journal, kind

    def total(self) -> float:
        return float(self._journal.count(self._kind))


class _SerializerTelemetry:
    """`SerializerObserver` recording into a server's perf histograms.

    When telemetry is disabled the registry hands out no-op instruments,
    so this observer costs two dead calls per serialize — the E11 bound
    already covers it.
    """

    def __init__(self, telemetry: ServerTelemetry) -> None:
        self._telemetry = telemetry

    def serialized(self, cost: Any) -> None:
        self._telemetry.serialize_seconds.observe(cost.seconds, op="dumps")

    def deserialized(self, seconds: float, nbytes: int) -> None:
        self._telemetry.serialize_seconds.observe(seconds, op="loads")


# ---------------------------------------------------------------------- #
# Renderers
# ---------------------------------------------------------------------- #


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash, double-quote, and newline are the three characters the
    format reserves inside quoted label values; anything else passes
    through.  Backslash must be first or it would re-escape the others.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def render_metrics_text(snapshot: MetricsSnapshot) -> str:
    """Prometheus-style text exposition of *snapshot*."""
    lines: list[str] = []
    for family in snapshot.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels in sorted(family.samples):
            value = family.samples[labels]
            label_text = _format_labels(labels)
            if isinstance(value, HistogramValue):
                lines.append(f"{family.name}_count{label_text} {value.count}")
                lines.append(f"{family.name}_sum{label_text} {value.total:.9g}")
                cumulative = 0
                for bound, count in zip(value.bounds, value.bucket_counts):
                    cumulative += count
                    bucket_labels = labels + (("le", f"{bound:.9g}"),)
                    lines.append(
                        f"{family.name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                cumulative += value.bucket_counts[-1]
                inf_labels = labels + (("le", "+Inf"),)
                lines.append(
                    f"{family.name}_bucket{_format_labels(inf_labels)} {cumulative}"
                )
            else:
                lines.append(f"{family.name}{label_text} {value:.9g}")
    return "\n".join(lines)


def metrics_to_dict(snapshot: MetricsSnapshot) -> dict[str, Any]:
    """JSON-serializable form of *snapshot* (labels become sorted dicts)."""
    out: dict[str, Any] = {}
    for family in snapshot.families():
        samples = []
        for labels in sorted(family.samples):
            value = family.samples[labels]
            if isinstance(value, HistogramValue):
                encoded: Any = {
                    "count": value.count,
                    "sum": value.total,
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in zip(value.bounds, value.bucket_counts)
                    ],
                    "overflow": value.bucket_counts[-1],
                }
            else:
                encoded = value
            samples.append({"labels": dict(labels), "value": encoded})
        out[family.name] = {
            "type": family.kind,
            "help": family.help,
            "samples": samples,
        }
    return out
