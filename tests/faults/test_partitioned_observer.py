"""Chaos: a partitioned observer must decay to unknown, never to idle.

The load-view scenario from DESIGN.md §6.4 end to end, on both
transports: a server cut off from the space keeps ordering on its held
digests while they are younger than ``stale_after``, then decays every
peer to *unknown* and falls back to static declaration order, and
recovers — fresh digests, load order restored — after ``heal()``.
Time passes on the observer's plane clock, not in a sleep.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

import repro
from repro.faults import FaultPlan
from repro.itinerary import Itinerary, ResultReport, alt, seq, singleton
from repro.transport.base import Frame, FrameKind
from repro.util.concurrency import wait_until

from tests.conftest import CollectorNaplet
from tests.faults.conftest import resilient_config

pytestmark = pytest.mark.chaos


def _observer_config():
    return dataclasses.replace(
        resilient_config(),
        # Manual ticks only: the test drives every heartbeat itself.
        health_cadence=60.0,
    )


def _warm_links(servers) -> None:
    for a in servers.values():
        for b in servers.values():
            if a is not b:
                a.transport.request(
                    Frame(kind=FrameKind.PING, source=a.urn, dest=b.urn)
                )


def _beat_until_fresh(servers, observer_host: str, peers: tuple[str, ...]) -> None:
    """Beat the peers until *observer_host* holds fresh digests for them.

    Delivery is asynchronous on the TCP wire, so one beat may not have
    landed by the time the beat call returns; repeat until merged.
    """
    view = servers[observer_host].health.view

    def _fresh() -> bool:
        for peer in peers:
            servers[peer].health.tick()
        return all(view.fresh_digest(p) is not None for p in peers)

    assert wait_until(_fresh, timeout=10)


def _probe(name: str):
    agent = CollectorNaplet(name)
    agent.set_itinerary(Itinerary(seq(alt("c01", "c02"))))
    return agent


class TestPartitionedObserver:
    def test_decay_to_static_order_then_recovery_after_heal(self, chaos_space):
        plan = FaultPlan(seed=7)
        servers, _transport = chaos_space(plan, config=_observer_config())
        observer = servers["c00"].health
        _warm_links(servers)
        _beat_until_fresh(servers, "c00", ("c01", "c02"))

        # Whole network: every peer is fresh, so load order applies — the
        # decision is a real ranking, not a fallback.
        order = observer.order_branches(_probe("pre"), alt("c01", "c02"))
        assert order is not None
        pre = servers["c00"].journal.records(kind="load")[-1]
        assert pre.detail["fallback"] is None

        plan.partition("c00")

        # Just partitioned: held digests are still younger than
        # stale_after, so the observer keeps navigating on them.
        assert observer.order_branches(_probe("held"), alt("c01", "c02")) is not None

        # Past stale_after every peer decays to unknown — the digests are
        # still held (queryable, aged) but never treated as idle scores.
        observer.clock = lambda: time.monotonic() + observer.view.stale_after + 0.1
        assert observer.view.digest("c01") is not None
        assert observer.view.fresh_digest("c01") is None
        assert observer.order_branches(_probe("stale"), alt("c01", "c02")) is None
        record = servers["c00"].journal.records(kind="load")[-1]
        assert "stale" in record.detail["fallback"]
        assert record.detail["changed"] is False
        described = observer.view.describe()
        assert described["c01"]["score"] is None  # unknown, not idle

        plan.heal()

        # Fresh heartbeats resume; the view recovers and so does load
        # order — and a real journey routes through the space again.
        _beat_until_fresh(servers, "c00", ("c01", "c02"))
        assert observer.order_branches(_probe("healed"), alt("c01", "c02")) is not None
        healed = servers["c00"].journal.records(kind="load")[-1]
        assert healed.detail["fallback"] is None

        listener = repro.NapletListener()
        agent = CollectorNaplet("post-heal-tour")
        agent.set_itinerary(
            Itinerary(
                seq(
                    alt("c01", "c02"),
                    singleton("c03", post_action=ResultReport("visited")),
                )
            )
        )
        servers["c00"].launch(agent, owner="ops", listener=listener)
        report = listener.next_report(timeout=20)
        assert report.payload[-1] == "c03"
        assert report.payload[0] in ("c01", "c02")

    def test_partitioned_beats_are_counted_not_fatal(self, chaos_space):
        plan = FaultPlan(seed=7)
        servers, _transport = chaos_space(plan, config=_observer_config())
        _warm_links(servers)
        _beat_until_fresh(servers, "c01", ("c00",))
        # The last beat may still be in flight on the TCP wire: settle it,
        # or it lands after ``before`` is read and looks like a leak.
        view = servers["c01"].health.view
        last_seq = servers["c00"].health.local_digest().seq
        assert wait_until(lambda: view.digest("c00").seq == last_seq, timeout=10)
        plan.partition("c00")
        # The cut-off observer's own heartbeat must not raise; failed
        # sends either drop silently (injector) or count as failures
        # (virtual network) — in both cases nothing new merges at c01.
        before = view.digest("c00")
        servers["c00"].health.tick()
        time.sleep(0.1)  # let any (wrongly) delivered frame land
        assert view.digest("c00") == before
