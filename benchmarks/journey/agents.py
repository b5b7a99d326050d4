"""Benchmark-owned naplets.

They live in an importable module so pickle ships them by reference
between the in-process servers; everything they carry derives from the
run's seed.  Each reports through ``ResultReport("result")`` at home.
"""

from __future__ import annotations

import hashlib

import repro

__all__ = ["TourNaplet", "CourierNaplet", "SinkNaplet", "STOP", "cargo_digest", "rotated"]

# Message body that tells the sink to leave its post and report home.
STOP = "journey-bench-stop"


def cargo_digest(cargo: bytes) -> str:
    return hashlib.blake2b(cargo, digest_size=16).hexdigest()


def rotated(cargo: bytes, times: int) -> bytes:
    """*cargo* after *times* one-byte left rotations."""
    shift = times % len(cargo)
    return cargo[shift:] + cargo[:shift]


class TourNaplet(repro.Naplet):
    """Counts its landings and travels on; the smallest image we can ship."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.count = 0

    def on_start(self) -> None:
        self.count += 1
        if self.require_context().hostname == self.naplet_id.home:
            self.state.set("result", self.count)
        self.travel()


class CourierNaplet(repro.Naplet):
    """A tour carrying bulk cargo in an attribute of its own.

    Static: the cargo is never rebound, so after the first visit to a
    peer every hop is a delta hit.  Churn: each landing rebinds it to a
    one-byte rotation, so every hop re-pickles and ships the whole field.
    """

    def __init__(self, name: str, cargo: bytes, churn: bool) -> None:
        super().__init__(name)
        self.count = 0
        self.cargo = cargo
        self.churn = churn

    def on_start(self) -> None:
        self.count += 1
        if self.churn:
            self.cargo = self.cargo[1:] + self.cargo[:1]
        if self.require_context().hostname == self.naplet_id.home:
            self.state.set("result", (self.count, cargo_digest(self.cargo)))
        self.travel()


class SinkNaplet(repro.Naplet):
    """Rests at its first stop draining its mailbox until told to stop.

    Reports how many benchmark messages it received, so the client can
    check conservation: received == delivered.
    """

    def on_start(self) -> None:
        if "result" not in self.state:
            messenger = self.require_context().messenger
            received = 0
            while True:
                body = messenger.get_message(timeout=60.0).body
                if body == STOP:
                    break
                received += 1
            self.state.set("result", received)
        self.travel()
