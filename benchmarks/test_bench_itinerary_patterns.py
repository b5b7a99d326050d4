"""E5: itinerary patterns — seq vs par completion time (§3).

Each visit performs a fixed amount of simulated on-site work (a sleepy
privileged check).  A Seq tour costs ~n*work; a Par fan-out costs ~work
(plus fork overhead).  The harness prints completion times and clone
counts for n in {2, 4, 8}.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.itinerary import Itinerary, ParPattern, ResultReport, SeqPattern
from repro.server import deploy
from repro.simnet import VirtualNetwork, star

WORK_SECONDS = 0.05


class SleepyWorker(repro.Naplet):
    """Does WORK_SECONDS of 'measurement' at each stop."""

    def on_start(self) -> None:
        deadline = time.monotonic() + WORK_SECONDS
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.005)
        visited = (self.state.get("visited") or []) + [self.require_context().hostname]
        self.state.set("visited", visited)
        self.travel()


def _run(mode: str, n: int) -> tuple[float, int]:
    network = VirtualNetwork(star(n))
    servers = deploy(network)
    devices = sorted(h for h in servers if h != "station")
    listener = repro.NapletListener()
    agent = SleepyWorker(f"worker-{mode}")
    if mode == "seq":
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(devices, post_action=ResultReport("visited")))
        )
        expected = 1
    else:
        agent.set_itinerary(
            Itinerary(ParPattern.of_servers(devices, per_branch_action=ResultReport("visited")))
        )
        expected = n
    start = time.perf_counter()
    servers["station"].launch(agent, owner="bench", listener=listener)
    listener.reports(expected, timeout=60)
    elapsed = time.perf_counter() - start
    clones = sum(s.journal.count("clone-spawned") for s in servers.values())
    network.shutdown()
    return elapsed, clones


class TestItineraryPatterns:
    def test_bench_seq_vs_par(self, benchmark, table):
        rows = []
        for n in (2, 4, 8):
            seq_time, seq_clones = _run("seq", n)
            par_time, par_clones = _run("par", n)
            rows.append(
                [n, f"{seq_time * 1000:.0f}", f"{par_time * 1000:.0f}",
                 seq_clones, par_clones, f"{seq_time / par_time:.1f}x"]
            )
        table(
            f"E5 — completion time, {WORK_SECONDS * 1000:.0f} ms work per visit",
            ["n servers", "seq (ms)", "par (ms)", "seq clones", "par clones", "speedup"],
            rows,
        )
        # Shape: par total stays near one visit's work; seq scales with n.
        n = 8
        seq_time, _ = _run("seq", n)
        par_time, clones = _run("par", n)
        assert clones == n - 1
        assert seq_time > par_time * 2
        assert seq_time >= n * WORK_SECONDS * 0.8
        benchmark.pedantic(_run, args=("par", 4), rounds=3, iterations=1)
