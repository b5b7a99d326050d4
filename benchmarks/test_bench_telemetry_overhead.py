"""E11 (ablation): what do telemetry and the health plane cost a naplet?

Runs the same line tour through three otherwise-identical spaces —
telemetry off (no-op instruments, null spans, no journal), telemetry on
with the health plane idle (a 60 s cadence, so no tick falls inside the
window), and telemetry on with the health plane ticking at its default
cadence — and compares wall-clock per journey.  The instrumentation sits
on the migration control path and the health loop runs on its own
thread, so this is the honest end-to-end number for both.
"""

from __future__ import annotations

import time

import repro
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import ServerConfig
from repro.simnet import VirtualNetwork, line
from tests.conftest import CollectorNaplet

ROUTE = ["s01", "s02", "s03"]
TOURS = 20


def _run_tours(servers, count: int) -> float:
    """Launch *count* sequential line tours; return total wall seconds."""
    start = time.perf_counter()
    for i in range(count):
        listener = repro.NapletListener()
        agent = CollectorNaplet(f"tour-{i}")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(ROUTE, post_action=ResultReport("visited"))
            )
        )
        servers["s00"].launch(agent, owner="bench", listener=listener)
        assert listener.next_report(timeout=30).payload == ROUTE
    return time.perf_counter() - start


def _space(telemetry: bool, health: bool = False):
    # An idle plane's first tick is 60 s away, outside every timed window.
    cadence = ServerConfig.health_cadence if health else 60.0
    network = VirtualNetwork(line(4, prefix="s"))
    servers = repro.deploy(
        network,
        config=ServerConfig(telemetry_enabled=telemetry, health_cadence=cadence),
    )
    return network, servers


def _spans_kept(servers) -> int:
    return sum(len(s.journal.records(category="span")) for s in servers.values())


class TestTelemetryOverhead:
    def test_bench_tour_with_and_without_telemetry(self, benchmark, table):
        net_on, on = _space(telemetry=True, health=False)
        net_health, with_health = _space(telemetry=True, health=True)
        net_off, off = _space(telemetry=False)
        try:
            # warm all spaces (code paths, caches) before timing
            _run_tours(on, 2)
            _run_tours(with_health, 2)
            _run_tours(off, 2)
            instrumented = _run_tours(on, TOURS)
            health_on = _run_tours(with_health, TOURS)
            bare = _run_tours(off, TOURS)

            spans = _spans_kept(on)
            table(
                "E11 — telemetry/health overhead per 3-hop journey",
                ["configuration", "total (s)", "ms/journey", "spans kept"],
                [
                    [
                        "telemetry on",
                        f"{instrumented:.3f}",
                        f"{instrumented / TOURS * 1e3:.1f}",
                        spans,
                    ],
                    [
                        "telemetry + health plane",
                        f"{health_on:.3f}",
                        f"{health_on / TOURS * 1e3:.1f}",
                        _spans_kept(with_health),
                    ],
                    [
                        "telemetry off",
                        f"{bare:.3f}",
                        f"{bare / TOURS * 1e3:.1f}",
                        _spans_kept(off),
                    ],
                ],
            )
            print(f"telemetry on/off ratio: {instrumented / bare:.3f}")
            benchmark.extra_info["instrumented_s"] = instrumented
            benchmark.extra_info["health_on_s"] = health_on
            benchmark.extra_info["bare_s"] = bare
            benchmark.extra_info["on_off_ratio"] = instrumented / bare

            # telemetry-off really records nothing, journal included
            assert all(s.journal.total_appended == 0 for s in off.values())
            assert off["s00"].telemetry.launches.value() == 0
            assert spans > 0
            # the layer must stay far below the migration cost itself;
            # generous bound to keep CI timing noise out of the signal
            assert instrumented <= bare * 4 + 0.5
            # the health plane samples off the hot path: enabling it at the
            # default cadence must cost the tours under 5% (plus a small
            # absolute cushion for scheduler jitter on loaded CI boxes)
            assert health_on <= instrumented * 1.05 + 0.25
            # hop-cost attribution rode along for free: every tour hop left
            # a perf record and fed the byte/serialize histograms, and the
            # overhead bounds above were met with attribution enabled
            assert sum(
                len(s.journal.records(category="perf")) for s in on.values()
            ) >= TOURS * len(ROUTE)
            assert on["s00"].telemetry.hop_bytes.value(part="payload").count > 0
            assert on["s00"].telemetry.serialize_seconds.value(op="dumps").count > 0
            # and its sampler is genuinely running (first tick lands at the
            # default cadence, which may be after the short bench window)
            from repro.util.concurrency import wait_until

            assert wait_until(
                lambda: sum(s.health.samples_taken for s in with_health.values()) > 0,
                timeout=2.0,
            )

            def one_tour():
                _run_tours(on, 1)

            benchmark.pedantic(one_tour, rounds=5, iterations=1)
        finally:
            net_on.shutdown()
            net_health.shutdown()
            net_off.shutdown()
