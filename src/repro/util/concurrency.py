"""Small concurrency primitives used across the Naplet runtime.

The Naplet runtime is thread-per-naplet (the paper's ``NapletThread``) plus a
handful of server event loops, so the primitives here are the ones that keep
that style readable: an atomic counter for id generation, a countdown latch
for barrier-style synchronisation between naplets, a stoppable daemon thread
base class, and a polling helper for tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["AtomicCounter", "CountDownLatch", "StoppableThread", "wait_until"]


class AtomicCounter:
    """Thread-safe monotonically increasing counter."""

    def __init__(self, initial: int = 0) -> None:
        self._value = initial
        self._lock = threading.Lock()

    def next(self) -> int:
        """Increment and return the new value."""
        with self._lock:
            self._value += 1
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class CountDownLatch:
    """A latch that opens once :meth:`count_down` has been called *count* times."""

    def __init__(self, count: int) -> None:
        if count < 0:
            raise ValueError("latch count must be >= 0")
        self._count = count
        self._cond = threading.Condition()

    def count_down(self) -> None:
        with self._cond:
            if self._count > 0:
                self._count -= 1
                if self._count == 0:
                    self._cond.notify_all()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the latch opens. Returns ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._count > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    @property
    def count(self) -> int:
        with self._cond:
            return self._count


class StoppableThread(threading.Thread):
    """Daemon thread with a cooperative stop flag.

    Subclasses implement :meth:`run_loop`, which is called repeatedly until
    :meth:`stop` is requested.  The loop body is responsible for not blocking
    indefinitely (use timeouts on queue/condition waits).
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name=name, daemon=True)
        self._stop_event = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via subclasses
        while not self._stop_event.is_set():
            self.run_loop()

    def run_loop(self) -> None:
        raise NotImplementedError

    def stop(self, join_timeout: float | None = 5.0) -> None:
        """Request the loop to exit and (optionally) join."""
        self._stop_event.set()
        if join_timeout is not None and self.is_alive():
            self.join(join_timeout)


def wait_until(
    predicate: Callable[[], bool],
    timeout: float = 5.0,
    interval: float = 0.002,
) -> bool:
    """Poll *predicate* until true or *timeout* elapses.

    Returns whether the predicate became true.  Used heavily by integration
    tests that wait for asynchronous agent arrivals instead of sleeping fixed
    amounts.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
