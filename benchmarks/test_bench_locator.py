"""E7: naplet location — directory modes, cache effect, trace fallback (§4.1).

Compares the cost of locating a travelling naplet under CENTRAL, HOME and
NONE directory modes, and quantifies the locator cache: repeated inquiries
hit the cache instead of re-querying the directory (the paper: caching
"reduce[s] the response time of subsequent naplet location requests").
"""

from __future__ import annotations

import pytest

import repro
from repro.itinerary import Itinerary, SeqPattern
from repro.server import DirectoryMode, ServerConfig, deploy
from repro.simnet import VirtualNetwork, line
from repro.util.concurrency import wait_until
from tests.conftest import StallNaplet


def _resting_space(mode: DirectoryMode):
    config = ServerConfig(directory_mode=mode)
    if mode is DirectoryMode.CENTRAL:
        config.directory_urn = "naplet://d00"
    network = VirtualNetwork(line(4, prefix="d"))
    servers = deploy(network, config=config)
    agent = StallNaplet("target", spin_seconds=30.0)
    agent.set_itinerary(Itinerary(SeqPattern.of_servers(["d02"])))
    nid = servers["d00"].launch(agent, owner="bench")
    assert wait_until(lambda: servers["d02"].manager.is_resident(nid), timeout=10)
    return network, servers, nid


class TestLocationModes:
    def test_bench_locate_across_modes(self, benchmark, table):
        rows = []
        for mode in (DirectoryMode.CENTRAL, DirectoryMode.HOME, DirectoryMode.NONE):
            network, servers, nid = _resting_space(mode)
            try:
                querier = servers["d03"]
                network.transport.meter.reset()
                located = querier.locator.locate(nid, use_cache=False)
                lookup_bytes = network.transport.meter.total_bytes
                if mode is DirectoryMode.NONE:
                    assert located is None
                    # directory-less: trace forwarding from the home server
                    # (which the naplet departed from) still reaches it
                    receipt = querier.messenger.post(
                        None, nid, "probe", dest_urn="naplet://d00"
                    )
                    assert receipt.status in ("delivered", "forwarded")
                    rows.append([mode.value, "untraceable", lookup_bytes,
                                 f"chase: {receipt.hops} hops"])
                else:
                    assert located == "naplet://d02"
                    rows.append([mode.value, located, lookup_bytes, "-"])
                # directory-less spaces terminate via trace chase from home
                servers["d00"].messenger.send_control(
                    nid, "terminate", dest_urn="naplet://d00"
                )
            finally:
                network.shutdown()
        table(
            "E7a — locating a naplet under each directory mode",
            ["mode", "answer", "lookup bytes", "fallback"],
            rows,
        )
        # central + home answer; NONE relies on forwarding
        assert rows[0][1] == rows[1][1] == "naplet://d02"

        network, servers, nid = _resting_space(DirectoryMode.HOME)
        try:
            locator = servers["d03"].locator
            locator.locate(nid)  # warm
            benchmark(lambda: locator.locate(nid))
            servers["d00"].terminate_naplet(nid)
        finally:
            network.shutdown()

    def test_bench_cache_effect(self, benchmark, table):
        network, servers, nid = _resting_space(DirectoryMode.HOME)
        try:
            locator = servers["d03"].locator
            # cold lookup
            network.transport.meter.reset()
            locator.locate(nid, use_cache=False)
            cold_bytes = network.transport.meter.total_bytes
            # warm lookups
            network.transport.meter.reset()
            for _ in range(100):
                locator.locate(nid)
            warm_bytes = network.transport.meter.total_bytes
            table(
                "E7b — locator cache effect (100 repeat inquiries)",
                ["metric", "value"],
                [
                    ["cold lookup bytes", cold_bytes],
                    ["100 warm lookups bytes", warm_bytes],
                    ["cache hits", locator.cache_hits],
                    ["cache misses", locator.cache_misses],
                ],
            )
            assert warm_bytes == 0  # all served from cache
            assert locator.cache_hits >= 100
            benchmark(lambda: locator.locate(nid))
            servers["d00"].terminate_naplet(nid)
        finally:
            network.shutdown()
