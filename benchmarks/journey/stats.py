"""The benchmark's arithmetic: one percentile rule, one throughput rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "samples_beyond",
    "percentile",
    "tail_or_zero",
    "best_batch_rate",
    "quartile_spread",
]

# A percentile is reported only with this many samples beyond it; with
# fewer the value is one neighbour burst on a shared VM, not a tail.
MIN_BEYOND = 10
BATCHES = 20


def _rank(n: int, p: float) -> int:
    """Nearest-rank index (1-based) of the *p*-th percentile of n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie strictly above the *p*-th percentile's rank."""
    return n - _rank(n, p)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses one with < MIN_BEYOND samples beyond it.

    The rule guards upper tails; p <= 50 is allowed on any non-empty sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(samples)
    if p > 50 and samples_beyond(n, p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {samples_beyond(n, p)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[_rank(n, p) - 1]


def tail_or_zero(samples: Sequence[float], p: float) -> float:
    """``percentile`` for a metric slot that must hold a number: 0.0 = refused."""
    try:
        return percentile(samples, p)
    except ValueError:
        return 0.0


def best_batch_rate(
    start: float, completions: Sequence[float], ops_per_sample: int = 1
) -> float:
    """Ops/s of the fastest of BATCHES contiguous equal-count batches.

    *completions* are the ascending completion times of the samples
    measured from *start*; every sample carries *ops_per_sample* ops.  On
    a shared host the noise is one-sided — neighbours only ever slow a
    batch down — so the fastest batch is what the space sustains when left
    alone, and it repeats where the whole-run rate and even the median
    batch do not.  Samples that do not fill the last batch are left out.
    """
    if not completions:
        raise ValueError("no completed samples")
    per_batch = len(completions) // BATCHES
    if per_batch == 0:
        # Too few samples to batch: the whole-run rate is all there is.
        return len(completions) * ops_per_sample / (completions[-1] - start)
    best = 0.0
    previous = start
    for batch in range(BATCHES):
        end = completions[(batch + 1) * per_batch - 1]
        best = max(best, per_batch * ops_per_sample / (end - previous))
        previous = end
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the steadiness figure the contract is judged by."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf
