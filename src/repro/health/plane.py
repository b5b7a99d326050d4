"""The per-server HealthPlane: sampler, watchdog, findings (DESIGN.md §6.4).

The paper's NapletMonitor accounts each confined naplet's consumption but
nobody *watches* the accounting.  The HealthPlane closes that loop with a
background sampler that, every ``cadence`` seconds:

1. copies every resident control block into the naplet's bounded
   :class:`~repro.health.profile.ResourceProfile` (CPU / messages /
   bandwidth time series);
2. runs the **watchdog** over the fresh samples and the server's queues,
   emitting typed :class:`~repro.health.findings.HealthFinding`\\ s:

   - ``stuck_naplet`` — a resident naplet showed no CPU, message, or byte
     progress for longer than ``stuck_deadline`` (escalates to critical at
     twice the deadline);
   - ``dead_letter_backlog`` — the dead-letter queue is non-empty and grew
     across consecutive samples (the network is eating messages faster
     than heals drain them);
   - ``wedged_server`` — the transport's inbound worker pool reports a
     sustained backlog, or the server sits at its ``max_residents`` cap
     with a growing dead-letter queue: arriving work cannot be served.

The plane is **dormant** when the server's telemetry is disabled or
``ServerConfig.health_enabled`` is off: no thread starts, every query
returns empty, and the hot path never notices it exists.  Sampling runs
off the hot path (its own daemon thread) and takes only the monitor's and
profile table's short locks, so enabling it costs the migration and
messaging paths nothing measurable (see the telemetry-overhead benchmark).

Findings are exposed three ways: the ``health`` payload of a harvest row
(:meth:`describe`, read on-site by a probe or in-process by
``SpaceAdmin.space_health()`` — DESIGN.md §6.9), the typed
``SpaceAdmin.space_findings()``, and two instruments on the server
registry (``naplet_health_findings_total`` by kind and severity,
``naplet_health_active_findings``).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from repro.health.findings import FindingKind, HealthFinding, Severity
from repro.health.profile import ProfileTable, ResourceSample

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet_id import NapletID
    from repro.server.server import NapletServer

__all__ = ["HealthPlane"]


class HealthPlane:
    """Background sampler + watchdog for one server."""

    def __init__(self, server: "NapletServer") -> None:
        config = server.config
        self.server = server
        self.enabled = bool(config.telemetry_enabled and config.health_enabled)
        self.cadence = config.health_cadence
        self.stuck_deadline = config.health_stuck_deadline
        self.profiles = ProfileTable(
            capacity=config.health_profile_capacity,
            window=config.health_profile_window,
        )
        self._findings: dict[tuple[str, str], HealthFinding] = {}
        self._resolved: list[HealthFinding] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples_taken = 0
        # Dead-letter trend state (previous depth, consecutive growth ticks).
        self._dl_prev_depth = 0
        self._dl_growth_streak = 0
        self._backlog_streak = 0
        if self.enabled:
            registry = server.telemetry.registry
            self._findings_total = registry.counter(
                "naplet_health_findings_total",
                "Watchdog findings raised, by kind and severity",
            )
            registry.gauge_fn(
                "naplet_health_active_findings",
                "Watchdog findings currently active at this server",
                lambda: float(len(self._findings)),
            )
            # The messenger tells us the instant a letter dies, so backlog
            # detection does not depend on catching the depth mid-growth.
            server.messenger.on_dead_letter = self._note_dead_letter
        self._last_dead_letter_mono: float | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the sampling thread (no-op when dormant or already running)."""
        if not self.enabled or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"health-{self.server.hostname}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=1.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.cadence):
            try:
                self.sample_now()
            except Exception as exc:
                # The watchdog must never take the server down with it.
                self.server.journal.record("health-sample-error", error=repr(exc))

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _note_dead_letter(self, letter: Any) -> None:
        self._last_dead_letter_mono = time.monotonic()

    def sample_now(self) -> None:
        """One synchronous sampling + watchdog pass (the thread's body).

        Also callable directly — demos and the tests use it to get a
        deterministic pass without waiting out the cadence.
        """
        if not self.enabled:
            return
        now_mono = time.monotonic()
        now_wall = time.time()
        usage = self.server.monitor.usage_table()
        for nid, snapshot in usage.items():
            profile = self.profiles.touch(nid)
            profile.resident = True
            profile.append(
                ResourceSample(
                    wall=now_wall,
                    mono=now_mono,
                    cpu_seconds=snapshot.cpu_seconds,
                    wall_seconds=snapshot.wall_seconds,
                    messages_sent=snapshot.messages_sent,
                    message_bytes=snapshot.message_bytes,
                )
            )
        self.profiles.mark_non_resident(set(usage))
        self.samples_taken += 1
        self._watch_naplets(now_mono, set(usage))
        self._watch_server(now_mono)

    # ------------------------------------------------------------------ #
    # Watchdog rules
    # ------------------------------------------------------------------ #

    def _watch_naplets(self, now_mono: float, resident: "set[NapletID]") -> None:
        stuck_subjects: set[str] = set()
        for nid in resident:
            profile = self.profiles.get(nid)
            if profile is None or len(profile.samples) < 2:
                continue  # one sample proves presence, not stagnation
            stalled = profile.stalled_for(now_mono)
            if stalled <= self.stuck_deadline:
                continue
            severity = (
                Severity.CRITICAL
                if stalled > 2 * self.stuck_deadline
                else Severity.WARNING
            )
            subject = str(nid)
            stuck_subjects.add(subject)
            self._raise(
                kind=FindingKind.STUCK_NAPLET,
                severity=severity,
                subject=subject,
                detail=(
                    f"no CPU/message progress for {stalled:.2f}s "
                    f"(deadline {self.stuck_deadline:.2f}s)"
                ),
                data={
                    "stalled_seconds": stalled,
                    "cpu_seconds": profile.latest.cpu_seconds if profile.latest else 0.0,
                    "messages_sent": profile.latest.messages_sent if profile.latest else 0,
                },
            )
        self._clear_absent(FindingKind.STUCK_NAPLET, keep=stuck_subjects)

    def _watch_server(self, now_mono: float) -> None:
        hostname = self.server.hostname
        # -- dead-letter backlog ---------------------------------------- #
        depth = len(self.server.messenger.dead_letters)
        if depth > self._dl_prev_depth and depth > 0:
            self._dl_growth_streak += 1
        elif depth == 0:
            self._dl_growth_streak = 0
        self._dl_prev_depth = depth
        backlog_active = depth > 0 and self._dl_growth_streak >= 1
        if backlog_active:
            self._raise(
                kind=FindingKind.DEAD_LETTER_BACKLOG,
                severity=Severity.CRITICAL if self._dl_growth_streak >= 3 else Severity.WARNING,
                subject=hostname,
                detail=f"dead-letter queue at depth {depth} and growing",
                data={"depth": depth, "growth_streak": self._dl_growth_streak},
            )
        else:
            self._clear(FindingKind.DEAD_LETTER_BACKLOG, hostname)

        # -- wedged server ----------------------------------------------- #
        backlog_fn = getattr(self.server.transport, "worker_backlog", None)
        worker_backlog = 0
        if callable(backlog_fn):
            try:
                worker_backlog = int(backlog_fn(self.server.urn))
            except Exception:
                worker_backlog = 0
        self._backlog_streak = self._backlog_streak + 1 if worker_backlog > 0 else 0
        limit = self.server.config.max_residents
        saturated = (
            limit is not None
            and self.server.manager.resident_count >= limit
            and depth > 0
        )
        if self._backlog_streak >= 2 or saturated:
            reason = (
                f"inbound worker pool backlog {worker_backlog} frames"
                if self._backlog_streak >= 2
                else f"at max_residents={limit} with {depth} dead letters queued"
            )
            self._raise(
                kind=FindingKind.WEDGED_SERVER,
                severity=Severity.CRITICAL,
                subject=hostname,
                detail=reason,
                data={
                    "worker_backlog": worker_backlog,
                    "residents": self.server.manager.resident_count,
                    "dead_letter_depth": depth,
                },
            )
        else:
            self._clear(FindingKind.WEDGED_SERVER, hostname)

    # ------------------------------------------------------------------ #
    # Finding bookkeeping
    # ------------------------------------------------------------------ #

    def _raise(
        self, kind: str, severity: str, subject: str, detail: str, data: dict[str, Any]
    ) -> None:
        # Every CRITICAL finding arrives with its own evidence: the slice
        # of the flight-recorder journal mentioning the subject, captured
        # the moment the finding is raised (or escalates) to CRITICAL.
        if severity == Severity.CRITICAL:
            with self._lock:
                existing = self._findings.get((kind, subject))
                fresh_critical = (
                    existing is None or existing.severity != Severity.CRITICAL
                )
                carried = (
                    None if existing is None else existing.data.get("journal_slice")
                )
            data = dict(data)
            if fresh_critical:
                data["journal_slice"] = [
                    r.describe() for r in self.server.journal.slice_for(subject)
                ]
            elif carried is not None:
                # Still CRITICAL: keep the slice captured at escalation
                # (the evidence of *how it got here*, not the aftermath).
                data["journal_slice"] = carried
        with self._lock:
            finding = self._findings.get((kind, subject))
            if finding is not None:
                finding.refresh(severity, detail, data)
                return
            finding = HealthFinding(
                kind=kind,
                severity=severity,
                server=self.server.hostname,
                subject=subject,
                detail=detail,
                data=data,
            )
            self._findings[finding.key] = finding
        self._findings_total.inc(kind=kind, severity=severity)
        self.server.journal.record(
            "health-finding",
            finding=kind,
            severity=severity,
            subject=subject,
            detail=detail,
        )

    def _clear(self, kind: str, subject: str) -> None:
        with self._lock:
            finding = self._findings.pop((kind, subject), None)
            if finding is not None:
                self._resolved.append(finding)
                del self._resolved[:-64]
        if finding is not None:
            self.server.journal.record(
                "health-finding-resolved", finding=kind, subject=subject
            )

    def _clear_absent(self, kind: str, keep: "set[str]") -> None:
        with self._lock:
            stale = [
                key for key in self._findings if key[0] == kind and key[1] not in keep
            ]
        for _kind, subject in stale:
            self._clear(kind, subject)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def findings(self) -> list[HealthFinding]:
        """Active findings, most severe first (then oldest first)."""
        with self._lock:
            active = list(self._findings.values())
        active.sort(key=lambda f: (-Severity.rank(f.severity), f.first_seen))
        return active

    def resolved_findings(self) -> list[HealthFinding]:
        with self._lock:
            return list(self._resolved)

    def profile(self, nid: "NapletID"):
        return self.profiles.get(nid)

    def describe(self) -> dict[str, Any]:
        """JSON-serializable health snapshot: the ``health`` payload of a
        harvest row (:mod:`repro.health.harvest`)."""
        return {
            "enabled": self.enabled,
            "server": self.server.hostname,
            "residents": self.server.manager.resident_count,
            "cadence": self.cadence,
            "samples_taken": self.samples_taken,
            "findings": [f.describe() for f in self.findings()],
            "profiles": [p.describe() for p in self.profiles],
            "dead_letter_depth": len(self.server.messenger.dead_letters),
        }
