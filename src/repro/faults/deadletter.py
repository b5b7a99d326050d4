"""Per-server dead-letter queue for undeliverable messages.

When the messenger exhausts its retry budget (or a forwarding hop silently
fails), the message lands here instead of vanishing.  The queue is bounded
FIFO — past capacity the oldest letter is evicted and counted — and every
letter records why and when (by attempt count) it died, so operators can
inspect the backlog via :class:`~repro.server.admin.SpaceAdmin` and requeue
it once the network heals.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["DeadLetter", "DeadLetterQueue"]


@dataclass
class DeadLetter:
    """One undeliverable message with its failure context."""

    message: Any
    dest_urn: str
    reason: str
    attempts: int = 1
    requeues: int = 0
    source: str = ""

    def describe(self) -> dict:
        summary = getattr(self.message, "subject", None) or type(self.message).__name__
        return {
            "message": str(summary),
            "message_id": getattr(self.message, "message_id", None),
            "origin": getattr(self.message, "origin", None),  # ids are per origin
            "dest": self.dest_urn,
            "reason": self.reason,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "source": self.source,
        }


class DeadLetterQueue:
    """Bounded FIFO of :class:`DeadLetter`\\ s with drain-for-redelivery."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._letters: deque[DeadLetter] = deque()
        self._lock = threading.Lock()
        self.total_enqueued = 0
        self.total_evicted = 0
        self.total_redelivered = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._letters)

    def put(self, letter: DeadLetter) -> None:
        with self._lock:
            self._letters.append(letter)
            self.total_enqueued += 1
            while len(self._letters) > self.capacity:
                self._letters.popleft()
                self.total_evicted += 1

    def peek(self) -> list[DeadLetter]:
        with self._lock:
            return list(self._letters)

    def drain(self) -> list[DeadLetter]:
        """Remove and return every letter (oldest first)."""
        with self._lock:
            letters = list(self._letters)
            self._letters.clear()
        return letters

    def redeliver(self, deliver: Callable[[DeadLetter], None]) -> tuple[int, int]:
        """Drain the queue through *deliver*; letters that fail again re-enter.

        Returns ``(delivered, requeued)``.  Letters are attempted oldest
        first so requeue-on-heal preserves send order.
        """
        delivered = requeued = 0
        for letter in self.drain():
            try:
                deliver(letter)
            except Exception as exc:  # still unreachable: back on the queue
                letter.attempts += 1
                letter.requeues += 1
                letter.reason = str(exc)
                self.put(letter)
                requeued += 1
            else:
                delivered += 1
                with self._lock:
                    self.total_redelivered += 1
        return delivered, requeued

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._letters),
                "capacity": self.capacity,
                "enqueued": self.total_enqueued,
                "evicted": self.total_evicted,
                "redelivered": self.total_redelivered,
            }
