"""Metrics primitives: counters, gauges, histograms, and their registry.

The paper charges the NapletServer with "recording footprints of past and
current naplets for management purposes"; this module is the quantitative
half of that mandate.  A :class:`MetricsRegistry` holds named, label-aware
instruments:

- :class:`Counter`   — monotone totals (frame bytes, delivered messages);
- :class:`Gauge`     — point-in-time values, settable or computed lazily from
  a callback at snapshot time (mailbox queue depth, cache size);
- :class:`Histogram` — bucketed distributions with exponential latency
  buckets by default (hop latency, wire send time).

All instruments are thread-safe and cheap on the hot path: one lock
acquisition and a dict update.  A registry created with ``enabled=False``
hands out the same instruments but every mutation is a no-op, so servers can
switch telemetry off wholesale (the overhead benchmark compares the two).

Snapshots (:meth:`MetricsRegistry.snapshot`) are immutable copies that can
be merged across servers — :meth:`MetricsSnapshot.merged` is what
``SpaceAdmin.space_metrics()`` uses to aggregate a whole naplet space.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "exponential_buckets",
]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    # Every per-frame instrument has at most one label: skip the sort there.
    if not labels:
        return ()
    if len(labels) == 1:
        for name, value in labels.items():
            return ((name, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def exponential_buckets(
    start: float = 1e-5, factor: float = 2.0, count: int = 16
) -> tuple[float, ...]:
    """Exponentially growing bucket upper bounds (default 10µs … ~0.33s)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds: list[float] = []
    value = start
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


class _Instrument:
    """Shared plumbing: name, help text, per-labelset samples, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, enabled: bool = True) -> None:
        self.name = name
        self.help = help_text
        self._enabled = enabled
        self._lock = threading.Lock()

    def labelsets(self) -> list[LabelKey]:
        with self._lock:
            return list(self._samples())  # type: ignore[attr-defined]

    def _samples(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing total, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, enabled: bool = True) -> None:
        super().__init__(name, help_text, enabled)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def _samples(self) -> dict[LabelKey, float]:
        return self._values


class Gauge(_Instrument):
    """Settable point-in-time value (may go up and down)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, enabled: bool = True) -> None:
        super().__init__(name, help_text, enabled)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        if not self._enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> dict[LabelKey, float]:
        return self._values


@dataclass(frozen=True)
class HistogramValue:
    """Immutable histogram reading: count, sum, and cumulative-free buckets.

    ``buckets`` maps each upper bound to the number of observations at or
    below it *and above the previous bound* (plain, not cumulative); an
    implicit overflow bucket counts observations above the last bound.
    """

    count: int
    total: float
    bounds: tuple[float, ...]
    bucket_counts: tuple[int, ...]  # len(bounds) + 1, last = overflow

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "HistogramValue") -> "HistogramValue":
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        return HistogramValue(
            count=self.count + other.count,
            total=self.total + other.total,
            bounds=self.bounds,
            bucket_counts=tuple(
                a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
            ),
        )


class _HistogramCell:
    __slots__ = ("count", "total", "bucket_counts")

    def __init__(self, nbuckets: int) -> None:
        self.count = 0
        self.total = 0.0
        self.bucket_counts = [0] * (nbuckets + 1)


class Histogram(_Instrument):
    """Bucketed distribution (exponential latency buckets by default)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] | None = None,
        enabled: bool = True,
    ) -> None:
        super().__init__(name, help_text, enabled)
        bounds = tuple(buckets) if buckets is not None else exponential_buckets()
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name}: buckets must strictly increase")
        self.bounds = bounds
        self._cells: dict[LabelKey, _HistogramCell] = {}

    def observe(self, value: float, **labels: str) -> None:
        if not self._enabled:
            return
        key = _label_key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = _HistogramCell(len(self.bounds))
            cell.count += 1
            cell.total += value
            # First bound >= value; past the last one, the overflow bucket.
            cell.bucket_counts[bisect_left(self.bounds, value)] += 1

    def value(self, **labels: str) -> HistogramValue:
        key = _label_key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                return HistogramValue(0, 0.0, self.bounds, (0,) * (len(self.bounds) + 1))
            return HistogramValue(
                cell.count, cell.total, self.bounds, tuple(cell.bucket_counts)
            )

    def _samples(self) -> dict[LabelKey, _HistogramCell]:
        return self._cells


@dataclass(frozen=True)
class MetricFamily:
    """One named metric in a snapshot: type, help, and per-labelset values."""

    name: str
    kind: str
    help: str
    samples: dict[LabelKey, float | HistogramValue] = field(default_factory=dict)

    def merged(self, other: "MetricFamily") -> "MetricFamily":
        if other.kind != self.kind:
            raise ValueError(f"metric {self.name}: kind mismatch {self.kind}/{other.kind}")
        samples = dict(self.samples)
        for key, value in other.samples.items():
            mine = samples.get(key)
            if mine is None:
                samples[key] = value
            elif isinstance(value, HistogramValue):
                assert isinstance(mine, HistogramValue)
                samples[key] = mine.merged(value)
            else:
                samples[key] = float(mine) + float(value)
        return MetricFamily(self.name, self.kind, self.help, samples)


class MetricsSnapshot:
    """Immutable, mergeable view of a registry at one instant."""

    def __init__(self, families: dict[str, MetricFamily]) -> None:
        self._families = families

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def family(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def value(self, name: str, **labels: str) -> float | HistogramValue:
        """Value of one sample (0.0 / empty histogram when absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return family.samples.get(_label_key(labels), 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter/gauge over all labelsets (histograms: total count)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        result = 0.0
        for value in family.samples.values():
            result += value.count if isinstance(value, HistogramValue) else float(value)
        return result

    def names(self) -> list[str]:
        return sorted(self._families)

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(self.families())

    def __len__(self) -> int:
        return len(self._families)

    @classmethod
    def merged(cls, snapshots: "list[MetricsSnapshot]") -> "MetricsSnapshot":
        """Sum counters/gauges and merge histograms across *snapshots*."""
        families: dict[str, MetricFamily] = {}
        for snapshot in snapshots:
            for family in snapshot.families():
                existing = families.get(family.name)
                families[family.name] = (
                    family if existing is None else existing.merged(family)
                )
        return cls(families)


class MetricsRegistry:
    """Named instrument store; get-or-create access, snapshot export."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, _Instrument] = {}
        # Families whose samples are read at snapshot time from a value
        # kept elsewhere: name -> (kind, help, samples function).
        self._fns: dict[str, tuple[str, str, Callable[[], dict[LabelKey, float]]]] = {}
        self._lock = threading.Lock()

    # -- get-or-create --------------------------------------------------- #

    def _get_or_create(self, name: str, factory: Callable[[], _Instrument]) -> _Instrument:
        with self._lock:
            if name in self._fns:  # a stale writer would count beside the view
                raise TypeError(f"metric {name!r} is a view read at snapshot time")
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        instrument = self._get_or_create(
            name, lambda: Counter(name, help_text, self.enabled)
        )
        if not isinstance(instrument, Counter):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        instrument = self._get_or_create(
            name, lambda: Gauge(name, help_text, self.enabled)
        )
        if not isinstance(instrument, Gauge):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def histogram(
        self, name: str, help_text: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        instrument = self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets, self.enabled)
        )
        if not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def gauge_fn(self, name: str, help_text: str, fn: Callable[[], float]) -> None:
        """Register a gauge computed lazily at snapshot time (queue depths)."""
        with self._lock:
            self._fns[name] = ("gauge", help_text, lambda: {(): float(fn())})

    def counter_fn(
        self, name: str, help_text: str, label: str | None, fn: Callable[[], Any]
    ) -> None:
        """Register a counter kept elsewhere and read at snapshot time, one
        sample per value of *label* (the journal's per-kind tally) — or,
        with *label* None, *fn*'s one number, a sample once it is not 0."""

        def samples() -> dict[LabelKey, float]:
            if label is None:
                n = fn()
                return {(): float(n)} if n else {}
            return {((label, key),): float(n) for key, n in fn().items()}

        with self._lock:
            self._fns[name] = ("counter", help_text, samples)

    # -- export ----------------------------------------------------------- #

    def snapshot(self) -> MetricsSnapshot:
        families: dict[str, MetricFamily] = {}
        with self._lock:
            instruments = list(self._instruments.values())
            fns = dict(self._fns)
        for instrument in instruments:
            with instrument._lock:
                if isinstance(instrument, Histogram):
                    samples: dict[LabelKey, float | HistogramValue] = {
                        key: HistogramValue(
                            cell.count,
                            cell.total,
                            instrument.bounds,
                            tuple(cell.bucket_counts),
                        )
                        for key, cell in instrument._cells.items()
                    }
                else:
                    samples = dict(instrument._samples())
            families[instrument.name] = MetricFamily(
                instrument.name, instrument.kind, instrument.help, samples
            )
        if self.enabled:
            for name, (kind, help_text, fn) in fns.items():
                try:
                    samples = fn()
                except Exception:
                    continue  # a dying component must not break exposition
                families[name] = MetricFamily(name, kind, help_text, samples)
        return MetricsSnapshot(families)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(set(self._instruments) | set(self._fns))
