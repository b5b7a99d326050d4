"""The five workloads: what one closed-loop sample does and how it is checked.

A *sample* is what the single client thread waits for before it sends the
next one: a whole journey, or one message.  An *op* is the unit rates and
latencies are quoted in: a hop, a message, or (fan-out) a journey.
"""

from __future__ import annotations

import queue
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.errors import NapletError
from repro.core.naplet import Naplet
from repro.itinerary import Itinerary, JoinPolicy, ResultReport, SeqPattern, par, seq, singleton
from repro.util.concurrency import wait_until

from benchmarks.journey.agents import (
    STOP,
    CourierNaplet,
    SinkNaplet,
    TourNaplet,
    cargo_digest,
    rotated,
)
from benchmarks.journey.space import HOME, PEERS, Space

__all__ = ["Sample", "Workload", "WORKLOADS", "drive"]

OWNER = "bench"
OP_TIMEOUT = 10.0  # a sample slower than this counts as failed
REPORT = ResultReport("result")
CARGO_BYTES = 1 << 20


def route(hops: int, among: tuple[str, ...]) -> list[str]:
    """Round and round *among* the peers, the last hop landing at home."""
    return [among[i % len(among)] for i in range(hops - 1)] + [HOME]


@dataclass(frozen=True)
class Sample:
    end: float  # perf_counter at completion
    seconds: float
    ok: bool


class Workload:
    """One traffic shape against one booted space."""

    name: str
    why: str
    ops_per_sample = 1
    warmup_samples = 20
    rss_samples = 250  # peak RSS is read this far into the window (a third of it, here)

    def __init__(self, space: Space, seed: int) -> None:
        self.space = space
        self.rng = random.Random(seed)

    def sample(self) -> bool:
        """Run one closed-loop sample to completion; True if its output is right."""
        raise NotImplementedError

    def finish(self) -> bool:
        """End-of-run checks over the whole space; True if they hold."""
        idle = self.space.wait_idle()
        return idle and self.space.resident_count() == 0

    # -- shared by the journey workloads ---------------------------------- #

    def _journey(self, naplet: Naplet, pattern) -> object:
        """Launch from home, block for this naplet's report, return its payload."""
        space = self.space
        naplet.set_itinerary(Itinerary(pattern))
        naplet.set_listener(space.listener_ref)
        deadline = time.monotonic() + OP_TIMEOUT
        nid = space.home.launch(naplet, owner=OWNER)
        while True:
            # A report from a journey that timed out earlier is not ours.
            report = space.listener.next_report(timeout=max(0.0, deadline - time.monotonic()))
            if report.reporter == nid:
                return report.payload


class TourSmall(Workload):
    name = "tour_small"
    why = (
        "12-hop Seq tour of a counter-only naplet: the smallest image, so fixed "
        "per-hop cost (navigator, frame, security, admission, telemetry) does the work"
    )
    ops_per_sample = 12

    def sample(self) -> bool:
        pattern = SeqPattern.of_servers(route(self.ops_per_sample, PEERS), post_action=REPORT)
        return self._journey(TourNaplet("tour"), pattern) == self.ops_per_sample


class CourierStatic(Workload):
    name = "courier_static"
    why = (
        "24 hops s01<->s02 carrying 1 MiB of immutable bytes: 21 of 24 hops are delta "
        "hits, so dirty-tracking, hashing and base-cache rebuild dominate, not the wire"
    )
    ops_per_sample = 24
    warmup_samples = 5
    rss_samples = 25
    churn = False

    def __init__(self, space: Space, seed: int) -> None:
        super().__init__(space, seed)
        self.cargo = self.rng.randbytes(CARGO_BYTES)
        arrives = rotated(self.cargo, self.ops_per_sample) if self.churn else self.cargo
        self.expected = (self.ops_per_sample, cargo_digest(arrives))

    def sample(self) -> bool:
        # A server keeps one image per naplet, so a delta hits only on a hop
        # back to where the naplet came from: the couriers ping-pong between
        # two peers (on the three-peer ring every hop would ship in full).
        pattern = SeqPattern.of_servers(route(self.ops_per_sample, PEERS[:2]), post_action=REPORT)
        courier = CourierNaplet("courier", self.cargo, self.churn)
        return self._journey(courier, pattern) == self.expected


class CourierChurn(CourierStatic):
    name = "courier_churn"
    why = (
        "the same courier rebinding its 1 MiB cargo every hop: every hop re-pickles "
        "and ships the full field, the serializer and transport used the other way"
    )
    churn = True


class MsgStream(Workload):
    name = "msg_stream"
    why = (
        "128-byte messages from s00 to a naplet resting at s01: messenger, locator "
        "cache and pooled transport only; no navigator, delta, admission or itinerary"
    )
    warmup_samples = 500
    rss_samples = 15000

    def __init__(self, space: Space, seed: int) -> None:
        super().__init__(space, seed)
        self.body = {"pad": self.rng.randbytes(48).hex()}  # pickles to ~128 bytes
        self.delivered = 0
        sink = SinkNaplet("sink")
        sink.set_itinerary(Itinerary(seq(PEERS[0], singleton(HOME, post_action=REPORT))))
        sink.set_listener(space.listener_ref)
        self.sink_id = space.home.launch(sink, owner=OWNER)
        resting = space.servers[PEERS[0]].manager
        if not wait_until(lambda: resting.is_resident(self.sink_id), timeout=OP_TIMEOUT):
            raise NapletError("the sink never came to rest at its post")

    def _post(self, body: object) -> bool:
        receipt = self.space.home.messenger.post(None, self.sink_id, body)
        return receipt.status == "delivered"

    def sample(self) -> bool:
        ok = self._post(self.body)
        self.delivered += ok
        return ok

    def finish(self) -> bool:
        # Conservation: the sink saw exactly the messages reported delivered.
        stopped = self._post(STOP)
        try:
            received = self.space.listener.next_report(timeout=OP_TIMEOUT).payload
        except queue.Empty:
            return False
        return stopped and received == self.delivered and super().finish()


class ParFanout(Workload):
    name = "par_fanout"
    why = (
        "Par fan-out to three servers with JOIN, then report home: clone, spawn, "
        "clone credentials, join messaging, branch ordering, concurrent admission"
    )

    def __init__(self, space: Space, seed: int) -> None:
        super().__init__(space, seed)
        self.journeys = 0

    def sample(self) -> bool:
        pattern = seq(par(*PEERS, join=JoinPolicy.JOIN), singleton(HOME, post_action=REPORT))
        self.journeys += 1
        # The original lands on its own branch and at home: two landings.
        return self._journey(TourNaplet("fanout"), pattern) == 2

    def finish(self) -> bool:
        settled = super().finish()
        landings = [self.space.servers[host].navigator.migrations_in for host in PEERS]
        return settled and landings == [self.journeys] * len(PEERS)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TourSmall, CourierStatic, CourierChurn, MsgStream, ParFanout)
}


def drive(
    workload: Workload,
    *,
    count: int | None = None,
    seconds: float | None = None,
    tracer=None,
) -> list[Sample]:
    """The closed loop: *count* samples, or samples until *seconds* have passed.

    A timed window ends on a sample boundary.  A sample that raises (a
    timeout included) is a failed sample, not a crashed run.
    """
    samples: list[Sample] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    while (count is None or len(samples) < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        started = time.perf_counter()
        with tracer.root() if tracer is not None else nullcontext():
            try:
                ok = workload.sample()
            except (NapletError, queue.Empty):
                ok = False
        end = time.perf_counter()
        samples.append(Sample(end=end, seconds=end - started, ok=ok))
    return samples
