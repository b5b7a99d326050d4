"""BENCH_*.json schema v2 and the benchmark-regression differ.

Schema v2 wraps the benchmark's own metrics in provenance metadata —
``schema_version``, ``experiment``, ``timestamp`` (UTC ISO-8601),
``git_sha``, and a ``machine`` fingerprint — so two snapshots can be
compared honestly: a 30% "regression" measured on a laptop against a CI
box is noise, and the fingerprint makes that visible.  Snapshots append
into a history directory (one file per run, never overwritten), giving
every later scale PR a trend line to regress against.

``diff_bench`` turns two snapshots into per-metric verdicts.  Direction
is inferred from the metric name (``*_ms``/``*latency*`` are
lower-is-better; ``*_per_sec``/``*speedup*`` higher-is-better; counts
are informational), and ``structural_only`` restricts the comparison to
timing-independent metrics (frame counts, connection counts, bytes) so
CI can gate on protocol regressions without flaking on machine speed.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "BenchDiff",
    "DiffEntry",
    "append_history",
    "bench_snapshot",
    "diff_bench",
    "flatten_metrics",
    "git_sha",
    "load_bench",
    "machine_fingerprint",
    "metric_direction",
    "write_bench",
]

SCHEMA_VERSION = 2

# Keys that are snapshot metadata, not benchmark metrics.
_META_KEYS = frozenset(
    {"schema_version", "experiment", "timestamp", "git_sha", "machine"}
)

_LOWER_BETTER = ("_ms", "_s", "_seconds", "_us")
_LOWER_BETTER_SUBSTR = ("latency", "overhead", "per_hop", "connections", "dials")
_HIGHER_BETTER_SUBSTR = ("per_sec", "speedup", "throughput")
_TIMING_MARKERS = ("_ms", "_s", "_seconds", "_us", "latency", "per_sec", "speedup", "throughput")
# Byte-count metrics that read like rates but are pure protocol facts:
# wire bytes per migration hop do not depend on machine speed, so CI's
# structural gate must compare them (lower is better — the delta-shipping
# benchmark regresses through exactly these keys, the ping-pong's
# ``bytes_per_hop`` and the three-server ring's ``ring_bytes_per_hop``).
_STRUCTURAL_BYTES_SUBSTR = ("bytes_per_hop",)


# --------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------- #


def machine_fingerprint() -> dict[str, Any]:
    """Enough about this machine to judge snapshot comparability."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_sha(root: str | Path | None = None) -> str | None:
    """HEAD commit of the repo at *root* (default: this repo); None outside git."""
    root = Path(root) if root else Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    # No git binary: resolve .git/HEAD by hand (best effort).
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            return (root / ".git" / ref).read_text().strip()
        return head or None
    except OSError:
        return None


# --------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------- #


def bench_snapshot(
    experiment: str,
    data: dict[str, Any],
    *,
    timestamp: float | None = None,
    root: str | Path | None = None,
) -> dict[str, Any]:
    """Wrap benchmark *data* in a schema-v2 snapshot with provenance."""
    wall = time.time() if timestamp is None else timestamp
    snapshot: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(wall)),
        "git_sha": git_sha(root),
        "machine": machine_fingerprint(),
    }
    for key, value in data.items():
        if key in _META_KEYS:
            continue
        snapshot[key] = value
    return snapshot


def write_bench(
    path: str | Path,
    experiment: str,
    data: dict[str, Any],
    *,
    history_dir: str | Path | None = None,
    timestamp: float | None = None,
) -> dict[str, Any]:
    """Write a schema-v2 snapshot to *path*; optionally append to history.

    Returns the snapshot dict.  With *history_dir* set, a copy lands in
    that directory under a timestamped, never-reused filename — the
    append-only trend line.
    """
    snapshot = bench_snapshot(experiment, data, timestamp=timestamp)
    path = Path(path)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=False) + "\n")
    if history_dir is not None:
        append_history(history_dir, snapshot)
    return snapshot


def append_history(history_dir: str | Path, snapshot: dict[str, Any]) -> Path:
    """Append *snapshot* into *history_dir* without clobbering prior runs."""
    history = Path(history_dir)
    history.mkdir(parents=True, exist_ok=True)
    stamp = str(snapshot.get("timestamp", "unknown")).replace(":", "").replace("-", "")
    sha = str(snapshot.get("git_sha") or "nogit")[:10]
    base = f"{_slug(snapshot.get('experiment', 'bench'))}_{stamp}_{sha}"
    target = history / f"{base}.json"
    serial = 1
    while target.exists():
        target = history / f"{base}_{serial}.json"
        serial += 1
    target.write_text(json.dumps(snapshot, indent=2) + "\n")
    return target


def _slug(text: Any) -> str:
    return "".join(c if c.isalnum() else "-" for c in str(text)).strip("-") or "bench"


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load a snapshot; schema-v1 files (no metadata) are upgraded in memory."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: not a benchmark snapshot")
    if raw.get("schema_version") is None:
        upgraded = {
            "schema_version": 1,
            "experiment": raw.get("experiment", Path(path).stem),
            "timestamp": None,
            "git_sha": None,
            "machine": None,
        }
        upgraded.update({k: v for k, v in raw.items() if k not in _META_KEYS})
        return upgraded
    return raw


def flatten_metrics(snapshot: dict[str, Any]) -> dict[str, float]:
    """Numeric leaves of a snapshot as ``dotted.path -> value`` (metadata skipped)."""
    flat: dict[str, float] = {}

    def walk(prefix: str, node: Any) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, bool):
            return
        elif isinstance(node, (int, float)):
            flat[prefix] = float(node)

    for key, value in snapshot.items():
        if key in _META_KEYS:
            continue
        walk(str(key), value)
    return flat


# --------------------------------------------------------------------- #
# Diffing
# --------------------------------------------------------------------- #


def metric_direction(key: str) -> str:
    """'lower', 'higher', or 'neutral' — which way is better for *key*."""
    leaf = key.rsplit(".", 1)[-1].lower()
    if any(marker in leaf for marker in _STRUCTURAL_BYTES_SUBSTR):
        return "lower"
    if any(marker in leaf for marker in _HIGHER_BETTER_SUBSTR):
        return "higher"
    if leaf.endswith(_LOWER_BETTER):
        return "lower"
    if any(marker in leaf for marker in _LOWER_BETTER_SUBSTR):
        return "lower"
    return "neutral"


def is_timing_metric(key: str) -> bool:
    """True for wall-clock-dependent metrics (excluded by ``structural_only``)."""
    leaf = key.rsplit(".", 1)[-1].lower()
    if any(marker in leaf for marker in _STRUCTURAL_BYTES_SUBSTR):
        return False
    return leaf.endswith(_LOWER_BETTER) or any(
        marker in leaf for marker in ("latency", "per_sec", "speedup", "throughput")
    )


@dataclass(frozen=True)
class DiffEntry:
    """One metric compared across two snapshots."""

    key: str
    old: float | None
    new: float | None
    change: float  # signed fraction, new vs old (0.3 = 30% larger)
    direction: str  # lower | higher | neutral
    verdict: str  # ok | regression | improvement | new | removed | info

    def describe(self) -> str:
        arrow = {"regression": "REGRESSION", "improvement": "better"}.get(
            self.verdict, self.verdict
        )
        if self.old is None:
            return f"{self.key}: (new) {self.new:g}"
        if self.new is None:
            return f"{self.key}: (removed, was {self.old:g})"
        return (
            f"{self.key}: {self.old:g} -> {self.new:g} "
            f"({self.change * 100:+.1f}%) {arrow}"
        )


@dataclass(frozen=True)
class BenchDiff:
    """All per-metric verdicts between two snapshots."""

    entries: list[DiffEntry]
    tolerance: float

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.verdict == "regression"]

    @property
    def improvements(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.verdict == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"  {len(self.entries)} metrics compared, tolerance "
            f"{self.tolerance * 100:.0f}%: "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        ]
        order = {"regression": 0, "improvement": 1, "new": 2, "removed": 3}
        for entry in sorted(
            self.entries, key=lambda e: (order.get(e.verdict, 4), e.key)
        ):
            marker = "!!" if entry.verdict == "regression" else "  "
            lines.append(f"  {marker} {entry.describe()}")
        return "\n".join(lines)


def diff_bench(
    old: dict[str, Any],
    new: dict[str, Any],
    tolerance: float = 0.2,
    structural_only: bool = False,
) -> BenchDiff:
    """Compare two snapshots metric by metric.

    A metric regresses when it moves against its direction by more than
    *tolerance* (a fraction; 0.2 = 20%).  Neutral-direction metrics never
    regress — they report as ``info`` when changed, ``ok`` when stable.
    With *structural_only*, timing metrics are skipped entirely.
    """
    old_flat = flatten_metrics(old)
    new_flat = flatten_metrics(new)
    entries: list[DiffEntry] = []
    for key in sorted(set(old_flat) | set(new_flat)):
        if structural_only and is_timing_metric(key):
            continue
        a, b = old_flat.get(key), new_flat.get(key)
        if a is None:
            entries.append(DiffEntry(key, None, b, 0.0, metric_direction(key), "new"))
            continue
        if b is None:
            entries.append(
                DiffEntry(key, a, None, 0.0, metric_direction(key), "removed")
            )
            continue
        change = (b - a) / a if a else (0.0 if b == a else 1.0)
        direction = metric_direction(key)
        if direction == "lower":
            worse, better = change > tolerance, change < -tolerance
        elif direction == "higher":
            worse, better = change < -tolerance, change > tolerance
        else:
            worse = better = False
        if worse:
            verdict = "regression"
        elif better:
            verdict = "improvement"
        elif direction == "neutral" and abs(change) > tolerance:
            verdict = "info"
        else:
            verdict = "ok"
        entries.append(DiffEntry(key, a, b, change, direction, verdict))
    return BenchDiff(entries=entries, tolerance=tolerance)
