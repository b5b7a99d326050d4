"""The perf plane (DESIGN.md §6.6): where bytes and microseconds go.

Three instruments answer "what does a hop cost" and keep the answer
honest over time:

- :mod:`repro.perf.xray` — ``explain_pickle``: decompose a naplet's
  serialized form into per-attribute byte sizes (state vs. itinerary vs.
  trace context vs. shipped code), so a serialization optimisation has a
  provable target before it is written; ``explain_delta``: preview the
  next hop's shipped-vs-skipped split under delta shipping
  (DESIGN.md §6.7);
- :mod:`repro.perf.bench` — the ``BENCH_*.json`` schema v2 (git SHA,
  timestamp, machine fingerprint, append-only history) and the snapshot
  differ that turns two benchmark runs into a regression verdict;
- :mod:`repro.perf.report` — per-hop cost tables rendered from the
  ``perf``-category records the navigator writes into the flight
  recorder on every migration.

``tools/napletperf.py`` runs and diffs the snapshots; ``tools/naplet.py hops``
prints the per-hop table.
"""

from repro.perf.bench import (
    SCHEMA_VERSION,
    BenchDiff,
    DiffEntry,
    append_history,
    bench_snapshot,
    diff_bench,
    flatten_metrics,
    git_sha,
    load_bench,
    machine_fingerprint,
    metric_direction,
    write_bench,
)
from repro.perf.report import hop_cost_rows, render_hop_costs
from repro.perf.xray import DeltaXray, PickleXray, explain_delta, explain_pickle

__all__ = [
    "SCHEMA_VERSION",
    "BenchDiff",
    "DeltaXray",
    "DiffEntry",
    "PickleXray",
    "append_history",
    "bench_snapshot",
    "diff_bench",
    "explain_delta",
    "explain_pickle",
    "flatten_metrics",
    "git_sha",
    "hop_cost_rows",
    "load_bench",
    "machine_fingerprint",
    "metric_direction",
    "render_hop_costs",
    "write_bench",
]
