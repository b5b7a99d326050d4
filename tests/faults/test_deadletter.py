"""Dead-letter queue semantics: capture, bounds, requeue, admin surface."""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import NapletCommunicationError
from repro.faults import DeadLetter, DeadLetterQueue, FaultPlan, RetryPolicy
from repro.itinerary import Itinerary, seq
from repro.server import ServerConfig, deploy
from repro.server.admin import SpaceAdmin
from repro.simnet import VirtualNetwork, full_mesh
from repro.transport.base import urn_of
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet

pytestmark = pytest.mark.chaos


def letter(n=0, reason="nope"):
    return DeadLetter(message=f"m{n}", dest_urn="naplet://x", reason=reason)


class TestDeadLetterQueue:
    def test_fifo_capture_and_drain(self):
        queue = DeadLetterQueue(capacity=8)
        for n in range(3):
            queue.put(letter(n))
        assert len(queue) == 3
        assert [l.message for l in queue.drain()] == ["m0", "m1", "m2"]
        assert len(queue) == 0

    def test_capacity_evicts_oldest(self):
        queue = DeadLetterQueue(capacity=2)
        for n in range(4):
            queue.put(letter(n))
        assert [l.message for l in queue.peek()] == ["m2", "m3"]
        assert queue.stats()["evicted"] == 2

    def test_redeliver_requeues_failures_in_order(self):
        queue = DeadLetterQueue(capacity=8)
        for n in range(3):
            queue.put(letter(n))

        def deliver(item: DeadLetter) -> None:
            if item.message == "m1":
                raise NapletCommunicationError("still down")

        delivered, requeued = queue.redeliver(deliver)
        assert (delivered, requeued) == (2, 1)
        (stuck,) = queue.peek()
        assert stuck.message == "m1"
        assert stuck.requeues == 1 and stuck.attempts == 2
        assert stuck.reason == "still down"

    def test_describe_is_json_friendly(self):
        description = letter(reason="partitioned").describe()
        assert description["reason"] == "partitioned"
        assert description["dest"] == "naplet://x"


class TestDeadLetterIntegration:
    @pytest.fixture
    def dlq_space(self):
        plan = FaultPlan(seed=5).partition("c02")
        network = VirtualNetwork(full_mesh(3, prefix="c"), fault_plan=plan)
        config = ServerConfig(
            message_retry=RetryPolicy(max_attempts=2, base_delay=0.001, jitter=0.0)
        )
        servers = deploy(network, config=config)
        yield network, servers, plan
        network.shutdown()

    def _park_sitter(self, servers):
        sitter = StallNaplet("dlq-sitter", spin_seconds=30.0)
        sitter.set_itinerary(Itinerary(seq("c01")))
        sitter_id = servers["c00"].launch(sitter, owner="ops")
        assert wait_until(
            lambda: servers["c01"].manager.is_resident(sitter_id), timeout=10
        )
        return sitter_id

    def test_exhausted_retries_dead_letter_and_still_raise(self, dlq_space):
        network, servers, _ = dlq_space
        sitter_id = self._park_sitter(servers)
        with pytest.raises(NapletCommunicationError):
            servers["c00"].messenger.post(
                None, sitter_id, {"n": 1}, dest_urn=urn_of("c02")
            )
        # Retried once (budget 2), then dead-lettered.
        assert servers["c00"].journal.count("message-retry") == 1
        assert servers["c00"].journal.count("message-dead-lettered") == 1

    def test_admin_surfaces_and_requeues_the_backlog(self, dlq_space):
        _network, servers, plan = dlq_space
        sitter_id = self._park_sitter(servers)
        for n in range(2):
            with pytest.raises(NapletCommunicationError):
                servers["c00"].messenger.post(
                    None, sitter_id, {"n": n}, dest_urn=urn_of("c02")
                )
        admin = SpaceAdmin(servers)
        assert admin.dead_letter_depth() == 2
        backlog = admin.dead_letters("c00")["c00"]
        assert len(backlog) == 2 and all(b["dest"] == urn_of("c02") for b in backlog)

        # Lift only the partition (a partial heal requeues nothing), then
        # requeue via admin: redelivery re-resolves the sitter to c01 and
        # both messages land.
        plan.heal_host("c02")
        delivered, requeued = admin.requeue_dead_letters()
        assert (delivered, requeued) == (2, 0)
        assert admin.dead_letter_depth() == 0
        mailbox = servers["c01"].messenger.mailbox_of(sitter_id)
        assert mailbox is not None and len(mailbox) == 2
        admin.terminate(sitter_id)

    def test_network_heal_requeues_automatically(self, dlq_space):
        network, servers, _ = dlq_space
        sitter_id = self._park_sitter(servers)
        with pytest.raises(NapletCommunicationError):
            servers["c00"].messenger.post(
                None, sitter_id, {"op": "late"}, dest_urn=urn_of("c02")
            )
        assert len(servers["c00"].messenger.dead_letters) == 1
        network.heal()  # clears the plan AND flushes dead letters
        assert len(servers["c00"].messenger.dead_letters) == 0
        metrics = servers["c00"].telemetry.registry.snapshot()
        assert metrics.value("naplet_dead_letters_requeued_total") == 1
        mailbox = servers["c01"].messenger.mailbox_of(sitter_id)
        assert mailbox is not None and len(mailbox) == 1
        SpaceAdmin(servers).terminate(sitter_id)

    def test_unreachable_target_requeues_until_it_heals(self, dlq_space):
        network, servers, plan = dlq_space
        sitter_id = self._park_sitter(servers)
        with pytest.raises(NapletCommunicationError):
            servers["c00"].messenger.post(
                None, sitter_id, {"op": "stuck"}, dest_urn=urn_of("c02")
            )
        admin = SpaceAdmin(servers)
        # Darken the sitter's real host too: the requeue attempt re-resolves
        # to c01, still cannot get through, and the letter bounces back.
        plan.partition("c01")
        delivered, requeued = admin.requeue_dead_letters("c00")
        assert (delivered, requeued) == (0, 1)
        (stuck,) = servers["c00"].messenger.dead_letters.peek()
        # Original retry budget (2) plus the bounced redelivery attempt.
        assert stuck.requeues == 1 and stuck.attempts == 3
        # Partial heals lift the partitions without auto-requeue; the
        # operator retries explicitly and the letter finally lands.
        plan.heal_host("c01")
        plan.heal_host("c02")
        delivered, requeued = admin.requeue_dead_letters("c00")
        assert (delivered, requeued) == (1, 0)
        mailbox = servers["c01"].messenger.mailbox_of(sitter_id)
        assert mailbox is not None and len(mailbox) == 1
        admin.terminate(sitter_id)
