"""Scale: the MAN framework at 64 devices (thread-per-child fan-out)."""

from __future__ import annotations

import pytest

from repro.man import ManFramework


class TestManAtScale:
    def test_par_collection_over_64_devices(self):
        framework = ManFramework(n_devices=64, device_seed=31)
        try:
            table = framework.collect_with_naplets(["sysName", "cpuLoad"], mode="par",
                                                   timeout=120)
            assert len(table) == 64
            assert all(values["sysName"] == host for host, values in table.items())
            framework.wait_idle(30)
            # exactly 63 clones were spawned from the station
            clones = sum(
                s.journal.count("clone-spawned") for s in framework.servers.values()
            )
            assert clones == 63
        finally:
            framework.shutdown()

    def test_seq_tour_over_64_devices(self):
        framework = ManFramework(n_devices=64, device_seed=32)
        try:
            table = framework.collect_with_naplets(["sysName"], mode="seq", timeout=120)
            assert len(table) == 64
        finally:
            framework.shutdown()
