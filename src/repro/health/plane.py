"""The per-server HealthPlane: each server's one background loop (DESIGN.md §6.4).

The paper's NapletMonitor accounts each confined naplet's consumption,
but nobody *watches* the accounting and no server knows how loaded its
peers are.  The HealthPlane does both from one daemon thread.  Every
``ServerConfig.health_cadence`` seconds one :meth:`HealthPlane.tick`:

1. copies every resident control block into the naplet's bounded
   :class:`~repro.health.profile.ResourceProfile` (CPU / messages /
   bandwidth time series);
2. runs the **watchdog** over the fresh samples and the server's queues,
   emitting typed :class:`~repro.health.findings.HealthFinding`\\ s:

   - ``stuck_naplet`` — a resident naplet showed no CPU, message, or byte
     progress for longer than ``stuck_deadline`` (escalates to critical at
     twice the deadline);
   - ``dead_letter_backlog`` — the dead-letter queue grew since the
     previous tick (critical after three growths running; a tick that
     does not grow clears it);
   - ``wedged_server`` — the transport's inbound worker pool reports a
     sustained backlog, or the server sits at its ``max_residents`` cap
     with dead letters queued: arriving work cannot be served;
3. computes this server's :class:`~repro.health.load.LoadDigest` from
   those same samples and sends it as a ``"load"`` frame to every peer
   the transport already holds a live channel to
   (``Transport.live_peers``), so a digest never dials.

Inbound digests merge into the plane's :class:`~repro.health.load.SpaceView`,
and :meth:`HealthPlane.order_branches` ranks an Alt/Par's branches by it
when the Navigator asks.  A peer silent for ``STALE_BEATS`` beats decays to
*unknown*, never to idle, and any unknown candidate keeps static
declaration order.

The plane is on exactly when telemetry is.  Off, no thread starts, every
query returns empty and ordering is static.  The loop runs off the hot
path and takes only short locks, so it costs the migration and messaging
paths nothing measurable (see the telemetry-overhead benchmark).

An operator reads the plane as the ``health`` and ``load`` payloads of a
harvest row (:meth:`HealthPlane.describe`, :meth:`HealthPlane.describe_load`;
DESIGN.md §6.9), through the typed ``SpaceAdmin.space_findings()``, and on
the server registry (``naplet_health_findings_total``,
``naplet_health_active_findings``, ``naplet_peer_load``,
``load_aware_reroutes_total``, the ``naplet_load_digest*`` counters).
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import NapletError
from repro.health.findings import FindingKind, HealthFinding, Severity
from repro.health.load import LoadDigest, SpaceView
from repro.health.profile import ProfileTable, ResourceSample
from repro.transport.base import Frame, FrameKind, host_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.core.naplet_id import NapletID
    from repro.itinerary.pattern import ItineraryPattern
    from repro.server.server import NapletServer

__all__ = ["HealthPlane", "STALE_BEATS"]

# A peer whose digest is older than this many beats is unknown: at the
# default 0.5 s cadence that is 5 s.
STALE_BEATS = 10

_GAUGE_DIMENSIONS = (
    "score",
    "residents",
    "active",
    "worker_backlog",
    "dead_letter_depth",
    "cpu_rate",
    "bandwidth",
)


class HealthPlane:
    """One server's background loop: sampler, watchdog, load heartbeat."""

    def __init__(self, server: "NapletServer") -> None:
        config = server.config
        self.server = server
        self.enabled = bool(config.telemetry_enabled)
        self.cadence = config.health_cadence
        self.stuck_deadline = config.health_stuck_deadline
        self.profiles = ProfileTable()
        # Every monotonic read of the plane goes through this function, so
        # a test can age the view without sleeping.
        self.clock: Callable[[], float] = time.monotonic
        self.view = SpaceView(STALE_BEATS * self.cadence, clock=lambda: self.clock())
        self._findings: dict[tuple[str, str], HealthFinding] = {}
        self._resolved: list[HealthFinding] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples_taken = 0
        self._seq = 0
        # Dead-letter trend state (previous depth, consecutive growth ticks).
        self._dl_prev_depth = 0
        self._dl_growth_streak = 0
        self._backlog_streak = 0
        # A dark registry hands out no-op instruments and skips gauge_fns.
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
        self._digests_sent = registry.counter(
            "naplet_load_digests_sent_total",
            "Load-digest heartbeats emitted, by destination host",
        )
        self._digests_received = registry.counter(
            "naplet_load_digests_received_total",
            "Load digests merged into the view, by source host",
        )
        self._send_failures = registry.counter(
            "naplet_load_digest_send_failures_total",
            "Heartbeats lost to unreachable peers, by destination host",
        )
        self._reroutes = registry.counter(
            "load_aware_reroutes_total",
            "Alt/Par expansions whose load-ranked order differed from "
            "declaration order",
        )
        self._peer_gauge = registry.gauge(
            "naplet_peer_load",
            "Last merged peer load, by server and dimension",
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the loop's thread (no-op when dormant or already running)."""
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
                self.tick()
            except Exception as exc:
                # The loop must never take the server down with it.
                self.server.journal.record("health-tick-error", error=repr(exc))

    def tick(self) -> int:
        """One pass of the loop: sample, watch, beat.

        Returns the number of peers the digest was sent to.  Public so
        demos, tools and tests get a deterministic pass without waiting
        out the cadence.
        """
        if not self.enabled:
            return 0
        now_mono = self.clock()
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
        self._watch_server()
        return self._beat(now_mono)

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

    def _watch_server(self) -> None:
        server = self.server
        hostname = server.hostname
        # -- dead-letter backlog ---------------------------------------- #
        depth = len(server.messenger.dead_letters)
        grew = depth > self._dl_prev_depth
        self._dl_growth_streak = self._dl_growth_streak + 1 if grew else 0
        self._dl_prev_depth = depth
        if grew:
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
        worker_backlog = server.transport.worker_backlog(server.urn)
        self._backlog_streak = self._backlog_streak + 1 if worker_backlog > 0 else 0
        limit = server.config.max_residents
        saturated = (
            limit is not None
            and server.manager.resident_count >= limit
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
                    "residents": server.manager.resident_count,
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
    # Load digests
    # ------------------------------------------------------------------ #

    def local_digest(self) -> LoadDigest:
        """This server's load right now (always fresh by construction)."""
        server = self.server
        resident = [p for p in self.profiles if p.resident]
        egress, ingress = server.transport.endpoint_bytes(server.hostname)
        return LoadDigest(
            server=server.hostname,
            seq=self._seq,
            # The journal's clock is the server's HLC; it exists (and
            # keeps causal order) even when the journal records nothing.
            hlc=server.journal.clock.now().encode(),
            residents=server.manager.resident_count,
            active=server.monitor.active_count,
            worker_backlog=server.transport.worker_backlog(server.urn),
            dead_letter_depth=len(server.messenger.dead_letters),
            cpu_rate=sum(p.cpu_rate() for p in resident),
            bandwidth=sum(p.bandwidth() for p in resident),
            egress_bytes=egress,
            ingress_bytes=ingress,
        )

    def _beat(self, now_mono: float) -> int:
        """Digest, merge locally, send to every live peer; peers reached."""
        self._seq += 1
        digest = self.local_digest()
        # Our own row in the view keeps dashboards symmetric; ordering
        # never reads it (it calls local_digest() for an exact value).
        self.view.observe(digest, now_mono)
        self._set_peer_gauges(digest)
        sent = self._emit(digest)
        for peer in self.view.peers():
            age = self.view.staleness(peer, now_mono)
            if age is not None:
                self._peer_gauge.set(age, server=peer, dimension="staleness")
        return sent

    def _emit(self, digest: LoadDigest) -> int:
        """Send *digest* toward every peer with an already-open channel.

        ``live_peers`` is the no-dial guarantee: the in-memory transport
        lists only links an earlier frame opened, the TCP transport only
        destinations with a live pooled keepalive.  A failed send is
        counted and skipped — a heartbeat is best-effort by design.
        """
        server = self.server
        payload = pickle.dumps(digest.describe())
        sent = 0
        for urn in server.transport.live_peers(server.urn):
            dest = host_of(urn)
            if dest == server.hostname:
                continue
            frame = Frame(
                kind=FrameKind.LOAD,
                source=server.urn,
                dest=urn,
                payload=payload,
                headers={"hlc": server.journal.clock.now().encode()},
            )
            try:
                server.transport.send(frame)
            except NapletError:
                self._send_failures.inc(dest=dest)
                continue
            sent += 1
            self._digests_sent.inc(dest=dest)
        return sent

    def handle_load_frame(self, frame: Frame) -> bytes:
        """Inbound ``"load"`` frame: merge, gauge, journal the receipt."""
        try:
            digest = LoadDigest.from_dict(pickle.loads(frame.payload))
        except Exception:
            return pickle.dumps({"ok": False, "reason": "malformed load digest"})
        if not self.enabled:
            # A dormant plane still acks politely so a mixed space
            # (observing and dark servers) stays quiet on the wire.
            return pickle.dumps({"ok": True, "merged": False})
        merged = self.view.observe(digest, self.clock())
        if merged:
            self._digests_received.inc(source=digest.server)
            self._set_peer_gauges(digest)
            self.server.journal.append(
                kind="load-digest",
                category="load",
                detail={
                    "peer": digest.server,
                    "seq": digest.seq,
                    "score": digest.score(),
                    "residents": digest.residents,
                    "active": digest.active,
                    "worker_backlog": digest.worker_backlog,
                    "dead_letter_depth": digest.dead_letter_depth,
                    "cpu_rate": round(digest.cpu_rate, 4),
                },
            )
        return pickle.dumps({"ok": True, "merged": merged})

    def _set_peer_gauges(self, digest: LoadDigest) -> None:
        for dimension in _GAUGE_DIMENSIONS:
            value = digest.score() if dimension == "score" else getattr(digest, dimension)
            self._peer_gauge.set(float(value), server=digest.server, dimension=dimension)

    # ------------------------------------------------------------------ #
    # Load-aware navigation
    # ------------------------------------------------------------------ #

    def order_branches(
        self, naplet: "Naplet", pattern: "ItineraryPattern", kind: str = "alt"
    ) -> tuple[int, ...] | None:
        """Load-ranked branch permutation for an Alt/Par, or None for static.

        The fallback ladder, top to bottom:

        1. plane dormant, or fewer than two admitting branches → None,
           nothing journaled (there is no decision to explain);
        2. any admitting candidate's server has no digest or a stale one
           → None, journaled with the failing candidate as the reason —
           a stale peer is *unknown*, and unknown beats a wrong guess;
        3. otherwise the admitting branches sort by ``(score,
           declaration index)`` — the deterministic tie-break that makes
           equal scores reproduce declaration order exactly — followed by
           the non-admitting branches in declaration order (they are
           skipped at selection time regardless of position).

        A decision whose admitting order differs from declaration order
        counts on ``load_aware_reroutes_total``; every rung-2/3 decision
        is journaled with each candidate's digest, staleness and score.
        """
        if not self.enabled:
            return None
        children = getattr(pattern, "children", None)
        if not children or len(children) < 2:
            return None
        now_mono = self.clock()
        candidates: list[dict[str, Any]] = []
        admitting = 0
        fallback: str | None = None
        for index, child in enumerate(children):
            visit = child.first_admitting_visit(naplet)
            if visit is None:
                candidates.append(
                    {"branch": index, "server": None, "score": None, "stale_s": None}
                )
                continue
            admitting += 1
            host = host_of(visit.server)
            entry: dict[str, Any] = {"branch": index, "server": host}
            if host == self.server.hostname:
                digest: LoadDigest | None = self.local_digest()
                stale: float | None = 0.0
            else:
                digest = self.view.fresh_digest(host, now_mono)
                stale = self.view.staleness(host, now_mono)
            entry["stale_s"] = None if stale is None else round(stale, 3)
            if digest is None:
                entry["score"] = None
                if fallback is None:
                    fallback = (
                        f"{host}: no digest"
                        if stale is None
                        else f"{host}: digest stale ({stale:.2f}s > "
                        f"{self.view.stale_after:.2f}s)"
                    )
            else:
                entry["score"] = digest.score()
                entry["seq"] = digest.seq
                entry["hlc"] = digest.hlc
            candidates.append(entry)
        if admitting < 2:
            return None
        static = tuple(range(len(children)))
        if fallback is not None:
            self._journal_decision(
                naplet, kind, candidates, order=static, changed=False, fallback=fallback
            )
            return None
        ranked = [c for c in candidates if c["score"] is not None]
        skipped = [c for c in candidates if c["score"] is None]
        ranked.sort(key=lambda c: (c["score"], c["branch"]))
        order = tuple(c["branch"] for c in ranked) + tuple(c["branch"] for c in skipped)
        # "Changed" judges only the admitting branches: non-admitting ones
        # are never chosen, so shuffling them is not a reroute.
        changed = [c["branch"] for c in ranked] != sorted(c["branch"] for c in ranked)
        if changed:
            self._reroutes.inc(kind=kind)
        self._journal_decision(
            naplet, kind, candidates, order=order, changed=changed, fallback=None
        )
        return order

    def _journal_decision(
        self,
        naplet: "Naplet",
        kind: str,
        candidates: list[dict[str, Any]],
        order: tuple[int, ...],
        changed: bool,
        fallback: str | None,
    ) -> None:
        """One ``load`` record per consulted expansion: the whole decision."""
        ctx = naplet.trace_context
        self.server.journal.append(
            kind="load",
            category="load",
            naplet=str(naplet.naplet_id) if naplet.has_id else naplet.name,
            trace_id=ctx.trace_id if ctx is not None else None,
            detail={
                "pattern": kind,
                "candidates": candidates,
                "order": list(order),
                "changed": changed,
                "fallback": fallback,
            },
        )

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

    def reroutes(self) -> int:
        """Expansions where load ranking beat declaration order so far."""
        return int(self._reroutes.total())

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

    def describe_load(self) -> dict[str, Any]:
        """JSON-serializable view of the space's load: the ``load``
        payload of a harvest row (:mod:`repro.health.harvest`)."""
        info: dict[str, Any] = {
            "enabled": self.enabled,
            "server": self.server.hostname,
            "cadence": self.cadence,
            "stale_after": self.view.stale_after,
            "peers": self.view.describe(),
        }
        if self.enabled:
            info["local"] = self.local_digest().describe()
            info["reroutes"] = self.reroutes()
        return info
