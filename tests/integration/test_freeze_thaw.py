"""Freeze/thaw (extension): checkpoint a live naplet, revive it anywhere."""

from __future__ import annotations

import pickle

import pytest

import repro
from repro.core.errors import NapletError
from repro.itinerary import Itinerary, ResultReport, SeqPattern, seq
from repro.server import NapletOutcome
from repro.simnet import line
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet, StallNaplet


class FreezableCollector(CollectorNaplet):
    """Collects hostnames but lingers so tests can freeze it mid-visit."""

    def on_start(self):
        import time

        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.005)
        self.travel()


def _frozen_mid_journey(servers):
    """Launch toward s01..s03, freeze while working at s01."""
    listener = repro.NapletListener()
    agent = FreezableCollector("freezer")
    agent.set_itinerary(
        Itinerary(
            SeqPattern.of_servers(
                ["s01", "s02", "s03"], post_action=ResultReport("visited")
            )
        )
    )
    nid = servers["s00"].launch(agent, owner="ops", listener=listener)
    assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
    image = servers["s01"].freeze_naplet(nid)
    return nid, image, listener


class TestFreeze:
    def test_freeze_returns_image_and_retires(self, small_line):
        _network, servers = small_line
        nid, image, _listener = _frozen_mid_journey(servers)
        assert len(image) > 0
        assert not servers["s01"].manager.is_resident(nid)
        footprint = servers["s01"].manager.footprint(nid)
        assert footprint.outcome == NapletOutcome.FROZEN
        assert servers["s01"].journal.count("naplet-frozen") == 1

    def test_freeze_runs_on_stop_not_on_destroy(self, small_line):
        _network, servers = small_line
        agent = StallNaplet("hooks", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        nid = servers["s00"].launch(agent, owner="ops")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        servers["s01"].freeze_naplet(nid)
        assert servers["s01"].monitor.outcomes.get(NapletOutcome.FROZEN) == 1
        # the freeze interrupt reached on_interrupt before unwinding
        assert servers["s01"].journal.count("naplet-interrupt", control="freeze") == 1

    def test_freeze_non_resident_raises(self, small_line):
        _network, servers = small_line
        from repro.core.naplet_id import NapletID

        with pytest.raises(NapletError):
            servers["s01"].freeze_naplet(
                NapletID.create("ghost", "s00", stamp="240101120000")
            )


class TestThaw:
    def test_thaw_same_server_resumes_journey(self, small_line):
        _network, servers = small_line
        nid, image, listener = _frozen_mid_journey(servers)
        thawed = servers["s01"].thaw_naplet(image)
        assert thawed == nid
        report = listener.next_report(timeout=20)
        # s01 appears twice: once before the freeze, once after the revival
        assert report.payload == ["s01", "s01", "s02", "s03"]

    def test_thaw_elsewhere_continues_from_there(self, small_line):
        _network, servers = small_line
        nid, image, listener = _frozen_mid_journey(servers)
        servers["s02"].thaw_naplet(image)
        report = listener.next_report(timeout=20)
        # revived at s02 (the cursor's next stop is still s02, then s03)
        assert report.payload == ["s01", "s02", "s02", "s03"]

    def test_image_survives_pickling_to_disk(self, small_line, tmp_path):
        _network, servers = small_line
        nid, image, listener = _frozen_mid_journey(servers)
        path = tmp_path / "frozen.naplet"
        path.write_bytes(image)
        servers["s01"].thaw_naplet(path.read_bytes())
        report = listener.next_report(timeout=20)
        assert report.payload[0] == "s01"

    def test_double_thaw_rejected_while_resident(self, small_line):
        _network, servers = small_line
        nid, image, listener = _frozen_mid_journey(servers)
        servers["s01"].thaw_naplet(image)
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid))
        with pytest.raises(NapletError):
            servers["s01"].thaw_naplet(image)
        listener.next_report(timeout=20)  # let the journey finish
