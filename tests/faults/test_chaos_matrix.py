"""Chaos matrix: seeded fault plans vs. the resilience machinery.

Every case runs on both transports (see ``chaos_space``) and asserts the
space *converges*: the journey completes in order, every landing happened
exactly once, and the home directory holds no orphaned record.
"""

from __future__ import annotations

import pytest

import repro
from repro.faults import FaultPlan
from repro.itinerary import Itinerary, ResultReport, SeqPattern, alt, seq, singleton
from repro.perf import hop_cost_rows
from repro.server.admin import SpaceAdmin
from repro.transport.base import FrameKind, urn_of
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet

pytestmark = pytest.mark.chaos

ROUTE = ["c01", "c02", "c03"]


def _run_route(servers, name: str, route=None, pattern=None, timeout=20):
    """Launch a collector over *route* (or *pattern*) and return its report."""
    listener = repro.NapletListener()
    agent = CollectorNaplet(name)
    if pattern is None:
        pattern = SeqPattern.of_servers(route, post_action=ResultReport("visited"))
    agent.set_itinerary(Itinerary(pattern))
    nid = servers["c00"].launch(agent, owner="ops", listener=listener)
    return nid, listener.next_report(timeout=timeout)


def _assert_converged(servers, nid, visited_route):
    """Exactly-once landings, a retired agent, and no directory orphans."""
    admin = SpaceAdmin(servers)
    assert wait_until(lambda: admin.locate(nid) is None, timeout=5)
    landings = sum(s.journal.count("landing") for s in servers.values())
    assert landings == len(visited_route)
    # The home (HOME-mode authority) record comes to point at the final
    # landing host — not at a rolled-back source or a host that never saw
    # it.  Registrations are one-way: the last one may still be on the wire.
    directory = servers["c00"].local_directory
    final = urn_of(visited_route[-1])
    assert wait_until(lambda: getattr(directory.lookup(nid), "server_urn", None) == final, timeout=5)
    # Footprint chain is intact: each visited host knows the next hop.
    trace = admin.trace(nid)
    hosts = [fp for fp in trace if fp.outcome is not None or fp.departed_to]
    assert len(hosts) == len(trace)


FAULT_CASES = [
    pytest.param(
        lambda p: p.drop(kind=FrameKind.NAPLET_TRANSFER, nth=1),
        id="drop-first-transfer",
    ),
    pytest.param(
        lambda p: p.drop(kind=FrameKind.NAPLET_TRANSFER, times=2),
        id="drop-two-transfers",
    ),
    pytest.param(
        lambda p: p.duplicate(kind=FrameKind.NAPLET_TRANSFER, times=2),
        id="duplicate-transfers",
    ),
    pytest.param(
        lambda p: p.corrupt(kind=FrameKind.NAPLET_TRANSFER, nth=1),
        id="corrupt-first-transfer",
    ),
    pytest.param(
        lambda p: p.crash_during_transfer(when="after"),
        id="crash-after-first-transfer",
    ),
    pytest.param(
        lambda p: p.kill_link("c00", "c01", sends=2),
        id="kill-launch-link-briefly",
    ),
    pytest.param(
        lambda p: p.delay(0.01, kind=FrameKind.NAPLET_TRANSFER, times=3),
        id="delay-transfers",
    ),
    pytest.param(
        # A lost registration leaves the directory one landing behind until
        # the next one; the §4.2 chase covers the gap.
        lambda p: p.drop(kind=FrameKind.DIRECTORY_EVENT, nth=1),
        id="drop-first-registration",
    ),
    pytest.param(
        lambda p: p.duplicate(kind=FrameKind.DIRECTORY_EVENT, times=2),
        id="duplicate-registrations",
    ),
    pytest.param(
        lambda p: p.drop(kind=FrameKind.NAPLET_TRANSFER, nth=1)
        .duplicate(kind=FrameKind.NAPLET_TRANSFER, times=1)
        .delay(0.005, kind=FrameKind.NAPLET_TRANSFER, times=2),
        id="drop-then-duplicate-then-delay",
    ),
]


class TestChaosMatrix:
    @pytest.mark.parametrize("build_faults", FAULT_CASES)
    def test_journey_completes_exactly_once(self, chaos_space, build_faults):
        plan = FaultPlan(seed=7)
        build_faults(plan)
        servers, transport = chaos_space(plan)
        nid, report = _run_route(servers, "chaos-tour", route=ROUTE)
        assert report.payload == ROUTE
        _assert_converged(servers, nid, ROUTE)
        assert transport.metrics.snapshot().total("fault_injected_total") >= 1.0

    def test_partitioned_primary_fails_over_to_alt_mirror(self, chaos_space):
        plan = FaultPlan(seed=11).partition("c02")
        servers, _ = chaos_space(plan)
        pattern = seq(
            alt("c02", "c01"),
            singleton("c03", post_action=ResultReport("visited")),
        )
        nid, report = _run_route(servers, "mirror-chaos", pattern=pattern)
        assert report.payload == ["c01", "c03"]
        _assert_converged(servers, nid, ["c01", "c03"])
        # The partitioned primary burned the retry budget before failover.
        assert servers["c00"].journal.count("migration-retry") >= 1

    def test_duplicate_transfers_are_detected_not_relanded(self, chaos_space):
        plan = FaultPlan(seed=3).duplicate(kind=FrameKind.NAPLET_TRANSFER, times=3)
        servers, _ = chaos_space(plan)
        nid, report = _run_route(servers, "dup-tour", route=ROUTE)
        assert report.payload == ROUTE
        _assert_converged(servers, nid, ROUTE)
        duplicates = sum(s.journal.count("duplicate-transfer") for s in servers.values())
        assert duplicates >= 1

    def test_acceptance_drop_plus_partition_with_dead_letter_requeue(
        self, chaos_space
    ):
        """The ISSUE's acceptance scenario, end to end.

        A seeded plan drops the first NAPLET_TRANSFER and partitions one
        host; the journey still completes via retry + Alt failover, and a
        message dead-lettered against the partition is requeued (and
        re-routed to the target's real location) after heal.
        """
        from repro.core.errors import NapletCommunicationError
        from tests.conftest import StallNaplet

        plan = (
            FaultPlan(seed=42)
            .drop(kind=FrameKind.NAPLET_TRANSFER, nth=1)
            .partition("c02")
        )
        servers, _ = chaos_space(plan)

        # Journey: Alt primary c02 is partitioned; retries exhaust, the
        # itinerary falls through to the c01 mirror, whose first transfer
        # frame is dropped and retried.
        pattern = seq(
            alt("c02", "c01"),
            singleton("c03", post_action=ResultReport("visited")),
        )
        nid, report = _run_route(servers, "acceptance", pattern=pattern)
        assert report.payload == ["c01", "c03"]
        _assert_converged(servers, nid, ["c01", "c03"])
        assert servers["c00"].journal.count("migration-retry") >= 1

        # Dead letter: park a resident at c01, then force a message through
        # the partitioned host; retries exhaust and the message is queued.
        sitter = StallNaplet("sitter", spin_seconds=30.0)
        sitter.set_itinerary(Itinerary(seq("c01")))
        sitter_id = servers["c00"].launch(sitter, owner="ops")
        assert wait_until(
            lambda: servers["c01"].manager.is_resident(sitter_id), timeout=10
        )
        with pytest.raises(NapletCommunicationError):
            servers["c00"].messenger.post(
                None, sitter_id, {"op": "ping"}, dest_urn=urn_of("c02")
            )
        assert len(servers["c00"].messenger.dead_letters) == 1
        assert servers["c00"].journal.count("message-dead-lettered") == 1

        # Heal: the plan clears, dead letters requeue automatically, and the
        # redelivery re-resolves the target to where it actually lives.
        plan.heal()
        assert len(servers["c00"].messenger.dead_letters) == 0
        metrics = servers["c00"].telemetry.registry.snapshot()
        assert metrics.value("naplet_dead_letters_requeued_total") == 1
        mailbox = servers["c01"].messenger.mailbox_of(sitter_id)
        assert mailbox is not None and len(mailbox) == 1
        SpaceAdmin(servers).terminate(sitter_id)


class TestFaultsLeaveNoLastingMark:
    PING_PONG = ["c01", "c00"] * 4  # eight hops between one pair of servers

    def _counters(self, chaos_space, plan) -> dict[str, int]:
        servers, _ = chaos_space(plan)
        nid, report = _run_route(servers, "courier", route=self.PING_PONG)
        assert report.payload == self.PING_PONG
        _assert_converged(servers, nid, self.PING_PONG)
        # Source-side counters are booked after the ack, possibly after
        # the report: drain the space before reading them.
        assert SpaceAdmin(servers).wait_space_idle(timeout=10)
        return {
            "delta_hops": int(sum(s.telemetry.delta_hops.total() for s in servers.values())),
            "migration_retries": sum(s.journal.count("migration-retry") for s in servers.values()),
        }

    def test_one_corrupted_transfer_does_not_end_delta_shipping(self, chaos_space):
        """A rejected frame is a retriable error, not a verdict on the
        peer: once the retry lands, every later hop toward that
        destination ships a delta, as in the fault-free run."""
        fault_free = self._counters(chaos_space, FaultPlan(seed=5))
        assert fault_free == {
            "delta_hops": len(self.PING_PONG) - 1, "migration_retries": 0
        }
        plan = FaultPlan(seed=5).corrupt(kind=FrameKind.NAPLET_TRANSFER, nth=1)
        assert self._counters(chaos_space, plan) == {
            "delta_hops": fault_free["delta_hops"], "migration_retries": 1
        }


class CargoCollector(CollectorNaplet):
    """Collector with bulk cargo in an attribute of its own."""

    def __init__(self, name: str, cargo: bytes) -> None:
        super().__init__(name)
        self.cargo = cargo


class TestLostAckOnADeltaHop:
    RING = ROUTE * 3  # launch, then three laps of c01 -> c02 -> c03 -> c01

    def test_retransmitted_delta_is_reacked_not_relanded(self, chaos_space):
        """The ack of a second-lap hop — an envelope that omits the cargo —
        is lost; the retransmit (a fresh dump, omissions and all) is
        recognized by its transfer-id, and delta shipping carries on."""
        cargo = b"\xa7" * 200_000
        plan = FaultPlan(seed=13).crash_during_transfer(when="after", nth=6)
        servers, _ = chaos_space(plan)
        listener = repro.NapletListener()
        agent = CargoCollector("ring-courier", cargo)
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(self.RING, post_action=ResultReport("visited")))
        )
        nid = servers["c00"].launch(agent, owner="ops", listener=listener)
        assert listener.next_report(timeout=20).payload == self.RING
        _assert_converged(servers, nid, self.RING)
        admin = SpaceAdmin(servers)
        assert admin.wait_space_idle(timeout=10)

        def tally(kind: str) -> int:
            return sum(s.journal.count(kind) for s in servers.values())

        assert tally("duplicate-transfer") == 1 and tally("migration-retry") == 1
        assert tally("delta-full-reship") == 0
        # Launch plus the first lap over the three ring links ship in full.
        delta_hops = sum(s.telemetry.delta_hops.total() for s in servers.values())
        assert delta_hops == len(self.RING) - 4
        costs = hop_cost_rows(admin.harvest_journal(kind="hop"), naplet=str(nid))
        assert len(costs) == len(self.RING)
        assert all(c["saved_bytes"] >= len(cargo) for c in costs[4:])
