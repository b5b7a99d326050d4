"""Compare two sets of runs: ``python -m benchmarks.journey.compare A.json B.json``.

A set is what ``python -m benchmarks.journey --repeat N --out FILE`` wrote.
For every workload x end-to-end metric this prints both medians, how much
worse B is than A, and the bound from ``BENCHMARK.json``:

- ``regressed``  B's median is worse than A's by more than the bound;
- ``unresolved`` the runs of one side spread wider than the bound (distance
  between quartiles over the median), so the medians settle nothing —
  unless every run of B is better than every run of A;
- ``ok``         otherwise.

``failed_share`` has no bound: any rise is a regression.  Exits 1 if
anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from benchmarks.journey.stats import quartile_spread

__all__ = ["verdict", "main"]

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """(share by which B's median is worse than A's, ok|regressed|unresolved)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    spread = max(quartile_spread(side) if len(side) > 1 else 0.0 for side in (a, b))
    if spread > bound:
        all_better = max(sign * x for x in b) < min(sign * x for x in a)
        return worse_by, "ok" if all_better else "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    set_a, set_b = (json.loads(Path(p).read_text())["runs"] for p in paths)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    regressed = False
    print(f"{'workload':15s} {'metric':18s} {'A median':>14s} {'B median':>14s} {'worse by':>9s} {'bound':>6s}")
    for workload in set_a:
        if workload not in set_b:
            continue
        for metric in metrics:
            name = metric["name"]
            a, b = set_a[workload][name], set_b[workload][name]
            worse_by, mark = verdict(a, b, metric["better"], metric["bound"])
            regressed |= mark == "regressed"
            print(
                f"{workload:15s} {name:18s} {statistics.median(a):14.4f} "
                f"{statistics.median(b):14.4f} {worse_by:+9.1%} {metric['bound']:6.0%}  {mark}"
            )
        a, b = (statistics.median(s[workload]["failed_share"]) for s in (set_a, set_b))
        mark = "regressed" if b > a else "ok"
        regressed |= b > a
        print(f"{workload:15s} {'failed_share':18s} {a:14.4f} {b:14.4f} {'':>9s} {'rise':>6s}  {mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
