"""Shared utilities for the Naplet reproduction.

This package deliberately contains only dependency-free helpers that every
other subpackage may import: concurrency primitives, time formatting that
matches the paper's timestamp encoding, and the hybrid logical clock the
journals stamp records with.
"""

from repro.util.concurrency import (
    AtomicCounter,
    CountDownLatch,
    StoppableThread,
    wait_until,
)
from repro.util.hlc import HLCStamp, HybridLogicalClock, merged
from repro.util.timeutil import compact_timestamp, parse_compact_timestamp

__all__ = [
    "AtomicCounter",
    "CountDownLatch",
    "StoppableThread",
    "wait_until",
    "HLCStamp",
    "HybridLogicalClock",
    "merged",
    "compact_timestamp",
    "parse_compact_timestamp",
]
