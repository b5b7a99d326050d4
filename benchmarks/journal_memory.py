"""E19: what one flight-recorder record retains, by kind.

Boots the journey benchmark's four-server TCP space, drives ``tour_small``
journeys (warm-up plus the window up to the point where the journey
benchmark reads peak RSS: 270 journeys by default), then walks every
record left in the four journal rings and charges each object it reaches
to the first record that reaches it — an object shared by many records
(an interned key tuple, a naplet id's text, a kind string) is counted
once.  Types, modules and functions are not counted.

    PYTHONPATH=src python -m benchmarks.journal_memory [--journeys N]

Prints one row per record kind (records, bytes per record) and the mean.
"""

from __future__ import annotations

import argparse
import gc
import sys
import types
from collections import Counter

from benchmarks.journey.space import Space
from benchmarks.journey.workloads import TourSmall

_SKIP = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.CodeType)


def retained(obj: object, seen: set[int]) -> int:
    """Bytes of everything reachable from *obj* that *seen* does not hold yet."""
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, _SKIP):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if hasattr(type(item), "__dictoffset__") and type(item).__dictoffset__:
            # An instance's attribute dict (materialised by reading it).
            stack.append(item.__dict__)
        stack.extend(gc.get_referents(item))
    return total


def retained_by_kind(records) -> dict[str, tuple[int, int]]:
    """``{kind: (records, bytes)}`` over *records*, shared objects once."""
    seen: set[int] = set()
    count: Counter = Counter()
    size: Counter = Counter()
    for record in records:
        count[record.kind] += 1
        size[record.kind] += retained(record, seen)
    return {kind: (count[kind], size[kind]) for kind in count}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--journeys", type=int, default=270)
    args = parser.parse_args(argv)
    space = Space()
    try:
        workload = TourSmall(space, seed=1)
        for _ in range(args.journeys):
            assert workload.sample()
        space.wait_idle()
        records = [r for s in space.servers.values() for r in s.journal.snapshot()]
    finally:
        space.close()
    rows = retained_by_kind(records)
    total_records = sum(n for n, _ in rows.values())
    total_bytes = sum(b for _, b in rows.values())
    print(f"{'kind':<24}{'records':>9}{'B/record':>10}")
    for kind, (n, b) in sorted(rows.items(), key=lambda item: -item[1][0]):
        print(f"{kind:<24}{n:>9}{b / n:>10.0f}")
    print(f"{'all':<24}{total_records:>9}{total_bytes / total_records:>10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
