"""E9 (ablation): itinerary/logic separation (§3's design rationale).

The same unmodified information-collection agent runs under three different
travel plans — seq tour, par broadcast, and the paper's Example 3
par-of-seq — demonstrating that changing the plan never touches agent code,
and measuring what each plan costs (bytes, virtual delay, clones).
"""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import (
    Itinerary,
    ParPattern,
    ResultReport,
    SeqPattern,
    par,
    seq,
    singleton,
)
from repro.server import deploy
from repro.simnet import VirtualNetwork, star
from tests.conftest import CollectorNaplet

DEVICES = ["dev00", "dev01", "dev02", "dev03"]


def _itineraries() -> dict[str, tuple[Itinerary, int]]:
    """name -> (itinerary, expected reports). The agent class never changes."""
    report = ResultReport("visited")
    return {
        "seq tour": (
            Itinerary(SeqPattern.of_servers(DEVICES, post_action=report)),
            1,
        ),
        "par broadcast": (
            Itinerary(ParPattern.of_servers(DEVICES, per_branch_action=report)),
            4,
        ),
        "par-of-seq (Ex. 3)": (
            Itinerary(
                par(
                    seq(
                        "dev00",
                        singleton("dev01", post_action=report),
                    ),
                    seq(
                        "dev02",
                        singleton("dev03", post_action=report),
                    ),
                )
            ),
            2,
        ),
    }


def _run(name: str, itinerary: Itinerary, expected: int) -> dict[str, object]:
    network = VirtualNetwork(star(len(DEVICES), latency=0.001))
    servers = deploy(network)
    listener = repro.NapletListener()
    agent = CollectorNaplet(f"ablate-{name}")
    agent.set_itinerary(itinerary)
    servers["station"].launch(agent, owner="bench", listener=listener)
    reports = listener.reports(expected, timeout=30)
    visited = sorted({host for r in reports for host in r.payload})
    clones = sum(s.journal.count("clone-spawned") for s in servers.values())
    stats = {
        "visited": visited,
        "clones": clones,
        "bytes": network.transport.meter.total_bytes,
        "virtual_ms": round(network.clock.virtual_time * 1000, 1),
    }
    for server in servers.values():
        server.wait_idle(5)
    network.shutdown()
    return stats


class TestItineraryAblation:
    def test_bench_three_plans_same_agent(self, benchmark, table):
        rows = []
        for name, (itinerary, expected) in _itineraries().items():
            stats = _run(name, itinerary, expected)
            # Every plan covers all four devices with the identical agent.
            assert stats["visited"] == DEVICES, name
            rows.append(
                [name, stats["clones"], stats["bytes"], stats["virtual_ms"]]
            )
        table(
            "E9 — same agent, three itineraries (4 devices)",
            ["itinerary", "clones", "wire bytes", "virtual delay (ms)"],
            rows,
        )
        clone_counts = [row[1] for row in rows]
        assert clone_counts == [0, 3, 1]  # tour / broadcast / two paths

        name, (itinerary, expected) = next(iter(_itineraries().items()))
        benchmark.pedantic(
            lambda: _run("seq tour", _itineraries()["seq tour"][0], 1),
            rounds=3,
            iterations=1,
        )
