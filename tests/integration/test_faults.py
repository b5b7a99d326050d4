"""Fault injection: link failures, partitions, and agent resilience."""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import NapletMigrationError
from repro.faults import RetryPolicy
from repro.itinerary import Itinerary, ResultReport, SeqPattern, alt, seq, singleton
from repro.server import NapletOutcome, ServerConfig
from repro.simnet import VirtualNetwork, full_mesh, line
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet


class SlowCollector(CollectorNaplet):
    """Collector that lingers ~0.3s at each stop (lets tests inject faults)."""

    def on_start(self):
        import time

        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.01)
        self.travel()


class TestMigrationFaults:
    def test_launch_over_dead_link_fails(self, space):
        network, servers = space(line(2, prefix="s"))
        network.fault_plan.refuse_dial(src="s00", dst="s01").refuse_dial(src="s01", dst="s00")
        agent = CollectorNaplet("doomed")
        agent.set_itinerary(Itinerary(seq("s01")))
        with pytest.raises(NapletMigrationError):
            servers["s00"].launch(agent, owner="ops")

    def test_heal_restores_service(self, space):
        """The SAME agent survives a transient outage via the retry path.

        The retry policy's injectable sleep doubles as the heal hook: the
        first attempt fails on the dead link, the backoff wait heals it,
        and the second attempt delivers the agent — no fresh-agent
        relaunch workaround.
        """
        network = VirtualNetwork(line(2, prefix="s"))

        def heal_during_backoff(_wait: float) -> None:
            network.fault_plan.heal()

        config = ServerConfig(
            migration_retry=RetryPolicy(
                max_attempts=3, base_delay=0.01, jitter=0.0, sleep=heal_during_backoff
            )
        )
        network, servers = space(network, config=config)
        network.fault_plan.refuse_dial(src="s00", dst="s01").refuse_dial(src="s01", dst="s00")
        listener = repro.NapletListener()
        agent = CollectorNaplet("retry")
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(["s01"], post_action=ResultReport("visited")))
        )
        servers["s00"].launch(agent, owner="ops", listener=listener)
        assert listener.next_report(timeout=10).payload == ["s01"]
        assert servers["s00"].journal.count("migration-retry") >= 1

    def test_retries_zero_keeps_give_up_semantics(self, space):
        """max_attempts=1 is exactly the historical behavior: one try, raise."""
        network, servers = space(
            line(2, prefix="s"),
            config=ServerConfig(migration_retry=RetryPolicy(max_attempts=1)),
        )
        network.fault_plan.refuse_dial(src="s00", dst="s01").refuse_dial(src="s01", dst="s00")
        agent = CollectorNaplet("doomed-no-retry")
        agent.set_itinerary(Itinerary(seq("s01")))
        with pytest.raises(NapletMigrationError):
            servers["s00"].launch(agent, owner="ops")
        assert servers["s00"].journal.count("migration-retry") == 0

    def test_skip_policy_survives_partitioned_host(self, space):
        network, servers = space(full_mesh(4, prefix="n"))
        network.fault_plan.partition("n02")
        listener = repro.NapletListener()
        agent = CollectorNaplet("resilient")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["n01", "n02", "n03"], post_action=ResultReport("visited")
                ),
                on_failure="skip",
            )
        )
        servers["n00"].launch(agent, owner="ops", listener=listener)
        report = listener.next_report(timeout=15)
        assert report.payload == ["n01", "n03"]

    def test_alt_falls_back_to_reachable_mirror(self, space):
        network, servers = space(full_mesh(4, prefix="n"))
        network.fault_plan.partition("n01")  # primary mirror dead
        listener = repro.NapletListener()
        agent = CollectorNaplet("mirror-client")
        pattern = seq(
            alt("n01", "n02"),
            singleton("n03", post_action=ResultReport("visited")),
        )
        agent.set_itinerary(Itinerary(pattern))
        servers["n00"].launch(agent, owner="ops", listener=listener)
        report = listener.next_report(timeout=15)
        assert report.payload == ["n02", "n03"]

    def test_failed_transfer_rolls_back_residency(self, space):
        network, servers = space(line(3, prefix="s"))
        listener = repro.NapletListener()

        agent = SlowCollector("rollback")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(
                    ["s01", "s02"], per_visit_action=ResultReport("visited")
                ),
                on_failure="skip",
            )
        )
        nid = servers["s00"].launch(agent, owner="ops", listener=listener)
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid), timeout=5)
        network.fault_plan.refuse_dial(src="s01", dst="s02").refuse_dial(src="s02", dst="s01")
        # dispatch to s02 fails; skip policy completes the journey at s01
        report = listener.next_report(timeout=15)
        assert report.payload == ["s01"]
        # the agent retired AT s01 (residency rolled back, then completed)
        footprint = servers["s01"].manager.footprint(nid)
        assert wait_until(lambda: footprint.outcome == NapletOutcome.COMPLETED)
        assert footprint.departed_to is None


class TestMessagingFaults:
    def test_datacomm_swallows_dead_sibling_link(self, space):
        """The paper's DataComm listing swallows NapletCommunicationException."""
        from repro.itinerary import ChainOperable, DataComm, ParPattern
        from tests.integration.test_messaging import Exchanger

        network, servers = space(full_mesh(4, prefix="n"))
        listener = repro.NapletListener()
        agent = Exchanger("sturdy")
        action = ChainOperable(
            (DataComm(message_key="message", gather_key="gathered", timeout=3.0),
             ResultReport("gathered"))
        )
        agent.set_itinerary(
            Itinerary(ParPattern.of_servers(["n01", "n02", "n03"], per_branch_action=action))
        )
        servers["n00"].launch(agent, owner="ops", listener=listener)
        reports = listener.reports(3, timeout=30)
        assert len(reports) == 3
