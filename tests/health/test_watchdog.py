"""The watchdog: stuck naplets, dead-letter backlogs, wedged servers.

The live tests drive a real space (background sampler thread); the
deterministic rule tests build a quiet space (huge cadence, so the
thread never fires) and call ``tick()`` by hand.
"""

from __future__ import annotations

import pytest

from repro.faults.deadletter import DeadLetter
from repro.health.findings import FindingKind, Severity
from repro.itinerary import Itinerary
from repro.itinerary.pattern import singleton
from repro.server import ServerConfig
from repro.util.concurrency import wait_until

from tests.health.conftest import WedgedNaplet

pytestmark = pytest.mark.health


def _launch_wedged(servers, dest: str = "s01"):
    agent = WedgedNaplet("wedged")
    agent.set_itinerary(Itinerary(singleton(dest)))
    return servers["s00"].launch(agent, owner="ops")


class TestStuckNaplet:
    def test_wedged_naplet_is_found_within_one_sampling_period(self, space):
        """ISSUE acceptance: a naplet that stops checkpointing gets flagged
        soon after the stuck deadline elapses."""
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"),
            config=ServerConfig(health_cadence=0.05, health_stuck_deadline=0.15),
        )
        nid = _launch_wedged(servers)
        plane = servers["s01"].health
        assert wait_until(lambda: plane.findings(), timeout=5.0)
        finding = plane.findings()[0]
        assert finding.kind == FindingKind.STUCK_NAPLET
        assert finding.subject == str(nid)
        assert finding.severity in (Severity.WARNING, Severity.CRITICAL)
        assert "no CPU/message progress" in finding.detail
        profile = plane.profile(nid)
        assert profile is not None and len(profile.samples) >= 2
        assert profile.latest.cpu_seconds == pytest.approx(0.0, abs=0.05)

    def test_finding_escalates_to_critical_past_twice_the_deadline(self, space):
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"),
            config=ServerConfig(health_cadence=0.03, health_stuck_deadline=0.1),
        )
        _launch_wedged(servers)
        plane = servers["s01"].health
        assert wait_until(
            lambda: any(f.severity == Severity.CRITICAL for f in plane.findings()),
            timeout=5.0,
        )
        # Escalation reuses the finding: still exactly one per (kind, subject).
        assert len(plane.findings()) == 1

    def test_busy_naplet_is_never_flagged(self, space):
        from repro.simnet import line

        from tests.health.conftest import BusyNaplet

        _network, servers = space(
            line(2, prefix="s"),
            config=ServerConfig(health_cadence=0.03, health_stuck_deadline=0.2),
        )
        agent = BusyNaplet("busy", busy_seconds=0.6)
        agent.set_itinerary(Itinerary(singleton("s01")))
        servers["s00"].launch(agent, owner="ops")
        assert servers["s01"].wait_idle(timeout=10.0)
        assert servers["s01"].health.findings() == []

    def test_finding_clears_when_the_naplet_recovers(self, space):
        from repro.simnet import line

        from tests.health.conftest import SleepyNaplet

        _network, servers = space(
            line(2, prefix="s"),
            config=ServerConfig(health_cadence=0.03, health_stuck_deadline=0.1),
        )
        agent = SleepyNaplet("sleepy", nap_seconds=0.5)
        agent.set_itinerary(Itinerary(singleton("s01")))
        servers["s00"].launch(agent, owner="ops")
        plane = servers["s01"].health
        assert wait_until(lambda: plane.findings(), timeout=5.0)
        # The nap ends, the naplet checkpoints and retires; the watchdog
        # must retire the finding with it.
        assert wait_until(lambda: not plane.findings(), timeout=5.0)
        resolved = plane.resolved_findings()
        assert any(f.kind == FindingKind.STUCK_NAPLET for f in resolved)


@pytest.fixture
def quiet_space(space):
    """2-host space whose sampler thread effectively never fires."""
    from repro.simnet import line

    network, servers = space(
        line(2, prefix="s"),
        config=ServerConfig(health_cadence=60.0, health_stuck_deadline=0.1),
    )
    return network, servers


class TestDeadLetterBacklog:
    def _bury(self, server, n: int = 1) -> None:
        for i in range(n):
            server.messenger.dead_letters.put(
                DeadLetter(message=f"msg-{i}", dest_urn="naplet://gone", reason="test")
            )

    def test_growing_backlog_raises_then_escalates(self, quiet_space):
        _network, servers = quiet_space
        plane = servers["s00"].health
        for _ in range(3):
            self._bury(servers["s00"], 1)
            plane.tick()
        kinds = {f.kind for f in plane.findings()}
        assert FindingKind.DEAD_LETTER_BACKLOG in kinds
        backlog = next(
            f for f in plane.findings() if f.kind == FindingKind.DEAD_LETTER_BACKLOG
        )
        assert backlog.severity == Severity.CRITICAL  # grew 3 samples running
        assert backlog.data["depth"] == 3

    def test_flat_backlog_clears_the_finding(self, quiet_space):
        """A queue that grew once and then sits still is not "growing"."""
        _network, servers = quiet_space
        plane = servers["s00"].health
        self._bury(servers["s00"], 1)
        plane.tick()
        assert any(
            f.kind == FindingKind.DEAD_LETTER_BACKLOG for f in plane.findings()
        )
        plane.tick()  # no new letter
        assert not any(
            f.kind == FindingKind.DEAD_LETTER_BACKLOG for f in plane.findings()
        )

    def test_drained_backlog_clears_the_finding(self, quiet_space):
        _network, servers = quiet_space
        plane = servers["s00"].health
        self._bury(servers["s00"], 2)
        plane.tick()
        assert plane.findings()
        servers["s00"].messenger.dead_letters.drain()
        plane.tick()
        assert not plane.findings()


class _BackloggedTransport:
    """Duck-typed transport wrapper reporting a fixed worker backlog."""

    def __init__(self, inner, backlog: int) -> None:
        self._inner = inner
        self.backlog = backlog

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def worker_backlog(self, urn=None) -> int:
        return self.backlog


class TestWedgedServer:
    def test_sustained_worker_backlog_raises_critical(self, quiet_space, monkeypatch):
        _network, servers = quiet_space
        server = servers["s00"]
        monkeypatch.setattr(
            server, "transport", _BackloggedTransport(server.transport, 7)
        )
        plane = server.health
        plane.tick()  # streak 1: not yet
        assert not any(
            f.kind == FindingKind.WEDGED_SERVER for f in plane.findings()
        )
        plane.tick()  # streak 2: wedged
        wedged = next(
            f for f in plane.findings() if f.kind == FindingKind.WEDGED_SERVER
        )
        assert wedged.severity == Severity.CRITICAL
        assert wedged.data["worker_backlog"] == 7

    def test_backlog_recovery_clears_the_finding(self, quiet_space, monkeypatch):
        _network, servers = quiet_space
        server = servers["s00"]
        wrapper = _BackloggedTransport(server.transport, 5)
        monkeypatch.setattr(server, "transport", wrapper)
        plane = server.health
        plane.tick()
        plane.tick()
        assert any(f.kind == FindingKind.WEDGED_SERVER for f in plane.findings())
        wrapper.backlog = 0
        plane.tick()
        assert not any(f.kind == FindingKind.WEDGED_SERVER for f in plane.findings())


class TestInstruments:
    def test_findings_are_counted_and_gauged(self, quiet_space):
        _network, servers = quiet_space
        server = servers["s00"]
        server.messenger.dead_letters.put(
            DeadLetter(message="m", dest_urn="naplet://gone", reason="test")
        )
        server.health.tick()
        snap = server.telemetry.registry.snapshot()
        assert snap.total("naplet_health_findings_total") >= 1
        assert snap.total("naplet_health_active_findings") == len(
            server.health.findings()
        )

    def test_describe_is_json_shaped(self, quiet_space):
        import json

        _network, servers = quiet_space
        plane = servers["s00"].health
        plane.tick()
        described = json.loads(json.dumps(plane.describe()))
        assert described["enabled"] is True
        assert described["server"] == "s00"
        assert described["samples_taken"] >= 1


class TestDormantPlane:
    def test_health_disabled_means_no_thread_and_empty_queries(self, space):
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"), config=ServerConfig(telemetry_enabled=False)
        )
        plane = servers["s00"].health
        assert plane.enabled is False
        assert plane._thread is None
        plane.tick()  # no-op, not an error
        assert plane.samples_taken == 0
        assert plane.findings() == []
        assert plane.describe()["enabled"] is False


class TestCriticalEvidence:
    """CRITICAL findings carry a flight-recorder slice as evidence
    (DESIGN.md §6.5): the journal records mentioning the subject, frozen
    at the moment of escalation."""

    def _bury(self, server, n: int = 1) -> None:
        for i in range(n):
            server.messenger.dead_letters.put(
                DeadLetter(message=f"msg-{i}", dest_urn="naplet://gone", reason="test")
            )

    def test_critical_finding_attaches_a_journal_slice(self, quiet_space):
        from repro.telemetry.journal import JournalRecord

        _network, servers = quiet_space
        server = servers["s00"]
        plane = server.health
        for _ in range(3):
            self._bury(server, 1)
            plane.tick()
        backlog = next(
            f for f in plane.findings() if f.kind == FindingKind.DEAD_LETTER_BACKLOG
        )
        assert backlog.severity == Severity.CRITICAL
        evidence = [
            JournalRecord.from_dict(d) for d in backlog.data["journal_slice"]
        ]
        assert evidence
        assert all(r.mentions("s00") for r in evidence)
        # The WARNING raised two samples earlier was journaled, so the
        # evidence shows the finding's own history leading to escalation.
        assert any(r.kind == "health-finding" for r in evidence)

    def test_warning_findings_carry_no_slice(self, quiet_space):
        _network, servers = quiet_space
        server = servers["s00"]
        self._bury(server, 1)
        server.health.tick()
        backlog = next(
            f
            for f in server.health.findings()
            if f.kind == FindingKind.DEAD_LETTER_BACKLOG
        )
        assert backlog.severity == Severity.WARNING
        assert "journal_slice" not in backlog.data

    def test_still_critical_refresh_keeps_the_escalation_slice(self, quiet_space):
        _network, servers = quiet_space
        server = servers["s00"]
        plane = server.health
        for _ in range(3):
            self._bury(server, 1)
            plane.tick()
        backlog = next(
            f for f in plane.findings() if f.kind == FindingKind.DEAD_LETTER_BACKLOG
        )
        frozen = backlog.data["journal_slice"]
        assert frozen
        # New journal traffic after escalation must not dilute the evidence.
        server.journal.record("poke", naplet="nap-after")
        self._bury(server, 1)
        plane.tick()  # still CRITICAL: a refresh, not a fresh raise
        refreshed = next(
            f for f in plane.findings() if f.kind == FindingKind.DEAD_LETTER_BACKLOG
        )
        assert refreshed.severity == Severity.CRITICAL
        assert refreshed.data["journal_slice"] == frozen
        assert not any(
            d["kind"] == "poke" for d in refreshed.data["journal_slice"]
        )


class TestSwallowedErrors:
    def test_a_failing_sample_is_journaled_with_its_error(self, space):
        """The sampler thread survives a broken pass, and says what broke."""
        from repro.simnet import line

        _network, servers = space(
            line(2, prefix="s"), config=ServerConfig(health_cadence=0.02)
        )
        server = servers["s00"]

        def broken_pass():
            raise RuntimeError("sampler broke")

        server.health.tick = broken_pass
        assert wait_until(
            lambda: server.journal.count("health-tick-error") >= 2, timeout=5
        )
        (first, *_rest) = server.journal.find("health-tick-error")
        assert first.detail == {"error": repr(RuntimeError("sampler broke"))}
