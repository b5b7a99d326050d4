"""Retry policies: bounded exponential backoff with seeded jitter.

A :class:`RetryPolicy` describes how many times an operation may be
attempted and how long to wait between attempts.  The schedule is
exponential backoff capped at ``max_delay`` with multiplicative jitter;
both the jitter source (a seeded :class:`random.Random`) and the sleep
primitive are injectable, so the same policy object drives production
retries (real sleeps, fresh entropy) and deterministic tests (fixed seed,
no-op sleep or a :class:`~repro.transport.clock.SimClock` advance).

``max_attempts=1`` is the degenerate policy: one try, no retry — exactly
the framework's historical give-up behavior, kept reachable so tests can
pin it down (see ``tests/integration/test_faults.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

__all__ = ["RetryPolicy", "no_retry"]

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts (>= 1).  ``1`` means no retry at all.
    base_delay:
        Wait before the first retry, in seconds (pre-jitter).
    multiplier:
        Backoff growth factor (>= 1) applied per retry.
    max_delay:
        Upper bound on any single pre-jitter wait.
    jitter:
        Fraction in ``[0, 1)``: each wait is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]``.
    seed:
        Seed for the jitter RNG.  ``None`` draws fresh entropy per
        schedule; a fixed seed makes :meth:`schedule` fully deterministic.
    sleep:
        Wait primitive; defaults to :func:`time.sleep`.  Tests inject a
        no-op or a simulation-clock advance.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    seed: int | None = None
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not (0 <= self.jitter < 1):
            raise ValueError("jitter must be in [0, 1)")

    @property
    def retries(self) -> int:
        """Retries after the first attempt (``max_attempts - 1``)."""
        return self.max_attempts - 1

    def backoff(self, retry_index: int) -> float:
        """Pre-jitter wait before retry number *retry_index* (0-based)."""
        return min(self.base_delay * self.multiplier**retry_index, self.max_delay)

    def schedule(self) -> tuple[float, ...]:
        """Jittered waits for every retry, deterministic under a fixed seed."""
        rng = random.Random(self.seed) if self.seed is not None else random.Random()
        waits = []
        for index in range(self.retries):
            factor = 1.0 + rng.uniform(-self.jitter, self.jitter) if self.jitter else 1.0
            waits.append(self.backoff(index) * factor)
        return tuple(waits)

    def run(
        self,
        fn: Callable[[], T],
        retry_on: tuple[type[BaseException], ...],
        give_up_on: tuple[type[BaseException], ...] = (),
        on_retry: Callable[[int, float, BaseException], None] | None = None,
    ) -> T:
        """Call *fn* under this policy and return its result.

        ``retry_on`` failures are retried until attempts run out (the last
        one re-raises); ``give_up_on`` failures — deterministic rejections
        like a denied landing — propagate immediately even when they
        subclass a retryable type.  ``on_retry(attempt, wait, error)`` fires
        before each backoff wait.  The jitter schedule is drawn at the
        first failure: a first-try success builds no ``Random``.
        """
        waits: tuple[float, ...] | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except give_up_on:
                raise
            except retry_on as exc:
                if attempt >= self.max_attempts:
                    raise
                if waits is None:
                    waits = self.schedule()
                wait = waits[attempt - 1]
                if on_retry is not None:
                    on_retry(attempt, wait, exc)
                if wait > 0:
                    self.sleep(wait)
        raise AssertionError("unreachable")  # pragma: no cover


def no_retry() -> RetryPolicy:
    """The single-attempt policy: the framework's historical give-up mode."""
    return RetryPolicy(max_attempts=1)
