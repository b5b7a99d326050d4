#!/usr/bin/env python
"""Surviving a hostile network: fault injection, retries, failover, dead letters.

The paper's Alt pattern promises "go to the mirror if the primary is
down", and the post office promises messages eventually find a moving
naplet.  This walkthrough *breaks the network on purpose* and watches
those promises hold:

1. a seeded :class:`FaultPlan` drops the first NAPLET_TRANSFER frame and
   partitions one host — every run of this script sees the same faults;
2. a journey through ``alt(partitioned-primary, mirror)`` completes
   anyway: the retry policy re-sends through the dropped frame, the Alt
   failover routes around the partition;
3. a message aimed at the partitioned host exhausts its retry budget and
   is captured in the dead-letter queue (the send still raises — the
   caller is told the truth);
4. the partition heals, dead letters requeue automatically, and the
   redelivery re-resolves the target to where it actually lives.

Run:  python examples/chaos_space.py
"""

from __future__ import annotations

import repro
from repro.core.errors import NapletCommunicationError
from repro.faults import FaultPlan, RetryPolicy
from repro.itinerary import Itinerary, ResultReport, alt, seq, singleton
from repro.server import ServerConfig, SpaceAdmin, deploy
from repro.simnet import VirtualNetwork, full_mesh
from repro.transport.base import FrameKind, urn_of
from repro.util.concurrency import wait_until

HOSTS = ["h00", "h01", "h02", "h03"]


class Tourist(repro.Naplet):
    """Visits each stop, recording where it actually landed."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        self.travel()


class Sitter(repro.Naplet):
    """Stays resident at its first stop so mail can find it."""

    def on_start(self) -> None:
        import time

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.01)


def main() -> None:
    # -- 1. a seeded, replayable fault schedule --------------------------- #
    plan = (
        FaultPlan(seed=42)
        .drop(kind=FrameKind.NAPLET_TRANSFER, nth=1)  # lose the first transfer
        .partition("h02")                             # and isolate a host
    )
    network = VirtualNetwork(full_mesh(len(HOSTS), prefix="h"), fault_plan=plan)
    config = ServerConfig(
        migration_retry=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
        message_retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
    )
    servers = deploy(network, config=config)
    admin = SpaceAdmin(servers)

    # -- 2. the journey survives both faults ------------------------------ #
    listener = repro.NapletListener()
    tourist = Tourist("tourist")
    tourist.set_itinerary(
        Itinerary(
            seq(
                alt("h02", "h01"),  # primary is partitioned -> mirror
                singleton("h03", post_action=ResultReport("visited")),
            )
        )
    )
    servers["h00"].launch(tourist, owner="demo", listener=listener)
    visited = listener.next_report(timeout=15).payload
    print("— journey under fire —")
    print("  itinerary : seq(alt(h02, h01), h03)   [h02 partitioned]")
    print(f"  visited   : {visited}")
    retries = servers["h00"].journal.count("migration-retry")
    print(f"  transfer retries burned at home: {retries}")

    # -- 3. a message into the partition dead-letters ---------------------- #
    sitter = Sitter("sitter")
    sitter.set_itinerary(Itinerary(seq("h01")))
    sitter_id = servers["h00"].launch(sitter, owner="demo")
    wait_until(lambda: servers["h01"].manager.is_resident(sitter_id), timeout=10)

    print("\n— messaging the partitioned host —")
    try:
        servers["h00"].messenger.post(
            None, sitter_id, {"op": "hello"}, dest_urn=urn_of("h02")
        )
    except NapletCommunicationError as exc:
        print(f"  post() raised as promised: {exc}")
    for host, letters in admin.dead_letters().items():
        for letter in letters:
            print(f"  dead letter at {host}: dest={letter['dest']} "
                  f"attempts={letter['attempts']}")

    # -- 4. heal: automatic requeue, re-routed delivery -------------------- #
    network.heal()
    wait_until(lambda: admin.dead_letter_depth() == 0, timeout=5)
    print("\n— after heal —")
    print(f"  dead-letter depth : {admin.dead_letter_depth()}")
    metrics = servers["h00"].telemetry.registry.snapshot()
    requeued = metrics.value("naplet_dead_letters_requeued_total")
    print(f"  letters requeued  : {requeued:.0f}")
    # The redelivery re-resolved the target and landed in the sitter's h01
    # mailbox — NOT at the dead h02 address the message was posted to.
    mailbox = servers["h01"].messenger.mailbox_of(sitter_id)
    print(
        "  redelivered to the sitter's REAL host (h01 mailbox): "
        f"{mailbox is not None and len(mailbox) == 1}"
    )

    print("\n— what the fault plan actually did —")
    for row in plan.summary():
        print(f"  {row['label']:<24} matched={row['matched']:<3} "
              f"fired={row['fired']}")

    admin.terminate(sitter_id)
    network.shutdown()


if __name__ == "__main__":
    main()
