"""E12: load-aware Alt navigation vs static declaration order.

A three-server mesh with a pinned busy mirror: ``b01`` holds a pack of
parked resident naplets and sits behind congested (20 ms) links, while
``b02`` idles one fast (1 ms) hop away.  Journeys expand
``alt(b01, b02)`` — the paper's failover idiom — declared busy-first, so
static order always burns the congested mirror and load-aware order
(DESIGN.md §6.4) reads the heartbeat digests and goes idle-first.  The
static leg simply never beats: with no digest for either mirror the
fallback ladder keeps declaration order.

Structure carries the assertions (where each journey landed, the reroute
counter, zero extra dials for the heartbeat plane); journeys/sec and
per-hop latency land in ``BENCH_loadaware.json`` for the CI structural
gate and the curious.

The overhead leg is E11-shaped: the same ping-pong journey with the
health plane ticking at a hot cadence vs idle (a 60 s cadence, so no
tick falls inside the window) must cost under 5% (plus scheduler slack),
and the heartbeats must not have opened a single connection of their own.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from pathlib import Path

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern, alt, seq, singleton
from repro.perf.bench import write_bench
from repro.server import ServerConfig, deploy
from repro.simnet import VirtualNetwork, full_mesh
from repro.transport.base import Frame, FrameKind
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, StallNaplet

JOURNEYS = 10
PINNED = 5           # parked residents making b01 "busy"
SLOW_S = 0.020       # one-way latency of every link touching b01
FAST_S = 0.001       # the b00 <-> b02 link
PING_PONG = 10       # overhead-leg hops


def _mirror_pattern():
    return seq(
        alt(
            singleton("b01", post_action=ResultReport("visited")),
            singleton("b02", post_action=ResultReport("visited")),
        )
    )


def _space(cadence: float = 60.0):
    graph = full_mesh(3, prefix="b")
    # Congest every path into the busy mirror so the latency model cannot
    # route around it; the idle mirror stays one fast hop away.
    for a, b in graph.edges:
        graph[a][b]["latency"] = SLOW_S if "b01" in (a, b) else FAST_S
        graph[a][b]["bandwidth"] = 0.0
    network = VirtualNetwork(graph, sleep_scale=1.0)
    servers = deploy(network, config=ServerConfig(health_cadence=cadence))
    return network, servers


def _warm_links(servers) -> None:
    for a in servers.values():
        for b in servers.values():
            if a is not b:
                a.transport.request(
                    Frame(kind=FrameKind.PING, source=a.urn, dest=b.urn)
                )


def _pin_busy(servers) -> list:
    """Park PINNED stalled residents at b01: the seeded load skew."""
    nids = []
    for i in range(PINNED):
        parked = StallNaplet(f"parked-{i}", spin_seconds=120.0)
        parked.set_itinerary(Itinerary(SeqPattern.of_servers(["b01"])))
        nids.append(servers["b00"].launch(parked, owner="bench"))
    assert wait_until(
        lambda: servers["b01"].manager.resident_count >= PINNED, timeout=20
    )
    return nids


def _dials(network) -> int:
    """Directed host-to-host links the transport has opened so far.

    Self-delivery (a report landing at its own home) is not a dial, so
    (h, h) pairs are excluded — the heartbeat's no-dial guarantee is
    about real peer connections.
    """
    transport = network.transport
    with transport._links_lock:
        return sum(1 for a, b in transport._links_opened if a != b)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))]


def _measure(load_aware: bool) -> dict:
    network, servers = _space()
    try:
        _warm_links(servers)
        nids = _pin_busy(servers)
        dials_before = _dials(network)
        if load_aware:
            for server in servers.values():
                server.health.tick()
        extra_dials = _dials(network) - dials_before

        landings = {"b01": 0, "b02": 0}
        latencies = []
        started = time.perf_counter()
        for i in range(JOURNEYS):
            agent = CollectorNaplet(f"journey-{i}")
            agent.set_itinerary(Itinerary(_mirror_pattern()))
            listener = repro.NapletListener()
            hop_started = time.perf_counter()
            servers["b00"].launch(agent, owner="bench", listener=listener)
            report = listener.next_report(timeout=30)
            latencies.append(time.perf_counter() - hop_started)
            landings[report.payload[0]] += 1
        elapsed = time.perf_counter() - started

        for nid in nids:
            servers["b01"].terminate_naplet(nid)
        return {
            "load_aware": load_aware,
            "journeys": JOURNEYS,
            "pinned_residents": PINNED,
            "busy_landings": landings["b01"],
            "idle_landings": landings["b02"],
            "reroutes": servers["b00"].health.reroutes(),
            "observatory_extra_dials": extra_dials,
            "journeys_per_sec": JOURNEYS / elapsed,
            "hop_latency_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "hop_latency_p95_ms": _percentile(latencies, 0.95) * 1e3,
            "hop_latency_mean_ms": statistics.fmean(latencies) * 1e3,
        }
    finally:
        network.shutdown()


def _measure_overhead(hot: bool) -> dict:
    """E11-shaped ping-pong between the two fast mirrors, the health plane
    ticking hot (20 ms cadence) or idle (60 s, no tick in the window)."""
    network, servers = _space(cadence=0.02 if hot else 60.0)
    try:
        _warm_links(servers)
        dials_before = _dials(network)
        route = ["b02", "b00"] * (PING_PONG // 2)
        agent = CollectorNaplet("pingpong")
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
        )
        listener = repro.NapletListener()
        started = time.perf_counter()
        servers["b00"].launch(agent, owner="bench", listener=listener)
        assert listener.next_report(timeout=30).payload == route
        elapsed = time.perf_counter() - started
        digests = sum(
            s.telemetry.registry.snapshot().total("naplet_load_digests_sent_total")
            for s in servers.values()
        )
        return {
            "observatory": hot,
            "hops": PING_PONG,
            "elapsed_s": elapsed,
            "digests_sent": int(digests),
            "observatory_extra_dials": _dials(network) - dials_before,
        }
    finally:
        network.shutdown()


class TestLoadAwareNavigation:
    def test_bench_loadaware_vs_static(self, table):
        static = _measure(load_aware=False)
        loadaware = _measure(load_aware=True)

        # Structure first: static order burned the busy mirror on every
        # journey, load-aware order avoided it on every journey ...
        assert static["busy_landings"] == JOURNEYS
        assert static["reroutes"] == 0
        assert loadaware["idle_landings"] == JOURNEYS
        assert loadaware["reroutes"] == JOURNEYS
        # ... the heartbeat plane never dialed a connection of its own ...
        assert static["observatory_extra_dials"] == 0
        assert loadaware["observatory_extra_dials"] == 0
        # ... and dodging the congested mirror is the throughput win the
        # snapshot records (the 20 ms links make this timing-robust).
        assert loadaware["journeys_per_sec"] > static["journeys_per_sec"]

        table(
            f"E12: load-aware Alt vs static order "
            f"({JOURNEYS} journeys, {PINNED} pinned residents at b01)",
            ["order", "busy", "idle", "reroutes", "journeys/s", "p95 ms"],
            [
                [
                    "static" if not run["load_aware"] else "load-aware",
                    run["busy_landings"],
                    run["idle_landings"],
                    run["reroutes"],
                    f"{run['journeys_per_sec']:.1f}",
                    f"{run['hop_latency_p95_ms']:.2f}",
                ]
                for run in (static, loadaware)
            ],
        )

        # E11-shaped overhead leg: hot heartbeats on the ping-pong path
        # must cost under 5% plus scheduler slack, with zero extra dials.
        without = _measure_overhead(hot=False)
        with_obs = _measure_overhead(hot=True)
        assert with_obs["observatory_extra_dials"] == 0
        assert with_obs["elapsed_s"] <= without["elapsed_s"] * 1.05 + 0.25

        table(
            f"E12b: heartbeat overhead ({PING_PONG}-hop ping-pong, 20 ms cadence)",
            ["plane", "elapsed s", "digests", "extra dials"],
            [
                [
                    "idle" if not run["observatory"] else "hot",
                    f"{run['elapsed_s']:.3f}",
                    run["digests_sent"],
                    run["observatory_extra_dials"],
                ]
                for run in (without, with_obs)
            ],
        )

        path = Path(__file__).resolve().parents[1] / "BENCH_loadaware.json"
        write_bench(
            path,
            "load-aware Alt navigation vs static declaration order",
            {
                "static": static,
                "loadaware": loadaware,
                "speedup_journeys_per_sec": loadaware["journeys_per_sec"]
                / static["journeys_per_sec"],
                "overhead_off": without,
                "overhead_on": with_obs,
                "observatory_overhead_pct": 100.0
                * (with_obs["elapsed_s"] / without["elapsed_s"] - 1.0),
            },
            history_dir=os.environ.get("NAPLET_BENCH_HISTORY"),
        )
