"""Space administration console.

The paper's NapletManager "provides local users or application programs
with an interface to launch naplets, monitor their execution states, and
control their behaviors", and keeps footprints "for management purposes".
:class:`SpaceAdmin` is that interface lifted to the whole naplet space: it
aggregates the per-server naplet tables, footprints and monitors into
space-wide queries — where is naplet X, what has it visited, what is it
consuming — and routes control operations by location.

This console is in-process (it holds the server objects).  Its
observation queries — :meth:`SpaceAdmin.harvest` and what reads from it
(``harvest_journal``, ``space_health``, ``space_view``) — call the same
:class:`~repro.health.harvest.HarvestService` method a touring
:class:`~repro.health.harvest.HarvestProbe` calls on-site, so what it
returns is what a probe carries home over any transport (DESIGN.md §6.9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.errors import NapletError, NapletLocationError
from repro.core.naplet_id import NapletID
from repro.health.findings import HealthFinding, Severity
from repro.health.harvest import ALL, HarvestService, merged_journal
from repro.health.profile import ResourceProfile
from repro.server.manager import Resident
from repro.server.messages import SystemControl
from repro.server.monitor import ResourceUsage
from repro.telemetry.journal import JournalRecord, span_from_record
from repro.telemetry.journey import Journey, stitch
from repro.telemetry.metrics import MetricsSnapshot
from repro.util.concurrency import wait_until

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import NapletServer

__all__ = ["NapletStatus", "ServerSummary", "SpaceAdmin"]


@dataclass(frozen=True)
class NapletStatus:
    """Space-wide view of one naplet."""

    naplet_id: NapletID
    resident_at: str | None  # hostname, None when not running anywhere
    in_transit: bool
    outcome: str | None  # terminal outcome if retired
    servers_visited: tuple[str, ...]
    cpu_seconds: float | None
    messages_sent: int | None

    @property
    def alive(self) -> bool:
        return self.resident_at is not None or self.in_transit


@dataclass(frozen=True)
class ServerSummary:
    """One server's row in the space summary."""

    hostname: str
    residents: int
    admitted_total: int
    outcomes: dict[str, int]
    active_channels: int
    footprints: int
    active_naplets: int = 0  # monitor threads currently running
    dead_letter_depth: int = 0  # undeliverable messages awaiting requeue
    health_findings: int = 0  # active watchdog findings


class SpaceAdmin:
    """Administrative console over a set of naplet servers."""

    def __init__(self, servers: "Iterable[NapletServer] | dict[str, NapletServer]") -> None:
        if isinstance(servers, dict):
            servers = servers.values()
        self._servers: dict[str, "NapletServer"] = {s.hostname: s for s in servers}
        if not self._servers:
            raise NapletError("SpaceAdmin needs at least one server")

    @property
    def hostnames(self) -> list[str]:
        return sorted(self._servers)

    def _any_server(self) -> "NapletServer":
        return next(iter(self._servers.values()))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def locate(self, nid: NapletID) -> str | None:
        """Hostname where *nid* currently resides (None if nowhere)."""
        for hostname, server in self._servers.items():
            if server.manager.is_resident(nid):
                return hostname
        return None

    def _visits(self, nid: NapletID) -> list[tuple[str, Resident]]:
        """``(hostname, footprint)`` of every server *nid* visited, by arrival."""
        visits = [
            (hostname, fp)
            for hostname, server in self._servers.items()
            if (fp := server.manager.footprint(nid)) is not None
        ]
        return sorted(visits, key=lambda visit: visit[1].arrived_at)

    def trace(self, nid: NapletID) -> list[Resident]:
        """The naplet's journey, reconstructed from per-server footprints,
        ordered by arrival time."""
        return [fp for _, fp in self._visits(nid)]

    def status(self, nid: NapletID) -> NapletStatus:
        """Aggregate status of one naplet across the space."""
        resident_at = self.locate(nid)
        visits = self._visits(nid)
        trace = [fp for _, fp in visits]
        outcome = None
        for footprint in trace:
            if footprint.outcome is not None:
                outcome = footprint.outcome
        in_transit = (
            resident_at is None
            and outcome is None
            and any(fp.departed_to is not None for fp in trace)
        )
        usage: ResourceUsage | None = None
        if resident_at is not None:
            usage = self._servers[resident_at].manager.usage_table().get(nid)
        visited = tuple(hostname for hostname, _ in visits)
        return NapletStatus(
            naplet_id=nid,
            resident_at=resident_at,
            in_transit=in_transit,
            outcome=outcome,
            servers_visited=visited,
            cpu_seconds=usage.cpu_seconds if usage else None,
            messages_sent=usage.messages_sent if usage else None,
        )

    def alive_naplets(self) -> dict[NapletID, str]:
        """Every resident naplet in the space: id -> hostname."""
        alive: dict[NapletID, str] = {}
        for hostname, server in self._servers.items():
            for nid in server.manager.resident_ids():
                alive[nid] = hostname
        return alive

    def space_summary(self) -> list[ServerSummary]:
        """Per-server health rows for the whole space."""
        rows = []
        for hostname in self.hostnames:
            server = self._servers[hostname]
            rows.append(
                ServerSummary(
                    hostname=hostname,
                    residents=server.manager.resident_count,
                    admitted_total=server.monitor.admitted,
                    outcomes=dict(server.monitor.outcomes),
                    active_channels=server.resource_manager.active_channel_count,
                    footprints=len(server.manager.footprints()),
                    active_naplets=server.monitor.active_count,
                    dead_letter_depth=len(server.messenger.dead_letters),
                    health_findings=len(server.health.findings()),
                )
            )
        return rows

    # ------------------------------------------------------------------ #
    # Telemetry (space-wide)
    # ------------------------------------------------------------------ #

    def journey(self, nid: NapletID) -> Journey:
        """Stitch the cross-server spans of *nid*'s journey into one tree.

        The span records of the harvested journey — every span of the
        trace(s) the naplet id resolves to, a clone family's included, and
        message-forward spans recorded at servers the naplet never
        visited — stitched by parent reference.
        """
        records = self.harvest_journal(journey=str(nid), category="span")
        return stitch([span_from_record(record) for record in records])

    def space_metrics(self) -> MetricsSnapshot:
        """One merged snapshot over every server registry and transport.

        Servers are visited in sorted-hostname order so the merge (and any
        text rendering of it) is deterministic regardless of construction
        order.  Transports are deduplicated by identity: in-memory spaces
        share one transport object across servers, TCP-split spaces may
        not.
        """
        ordered = [self._servers[hostname] for hostname in self.hostnames]
        snapshots = [server.telemetry.registry.snapshot() for server in ordered]
        seen: set[int] = set()
        for server in ordered:
            transport = server.transport
            if id(transport) in seen:
                continue
            seen.add(id(transport))
            snapshots.append(transport.metrics.snapshot())
        return MetricsSnapshot.merged(snapshots)

    # ------------------------------------------------------------------ #
    # The harvest (space-wide observation rows)
    # ------------------------------------------------------------------ #

    def harvest(self, kinds: Iterable[str] = ALL, **filters: Any) -> list[dict]:
        """One observation row per server, in hostname order.

        Each row is what :meth:`HarvestService.harvest` builds — the very
        method a probe naplet calls on-site — so these rows and
        ``harvest_via_probe``'s are identical in shape by construction.
        """
        return [
            HarvestService(self._servers[hostname]).harvest(kinds, **filters)
            for hostname in self.hostnames
        ]

    def harvest_journal(
        self, journey: str | None = None, **filters: Any
    ) -> list["JournalRecord"]:
        """Merge every server's flight-recorder journal into one timeline.

        Records are causally ordered by their hybrid-logical-clock stamps
        (DESIGN.md §6.5), so a hop's departure always precedes its landing
        even when the servers' wall clocks disagree.  *filters* (``naplet``,
        ``kind``, ``category``, ``trace_id``, … — any ``select`` criterion)
        apply at each server before the merge.  A *journey* (a trace id or
        a naplet id) can only be resolved over the whole merged timeline,
        so with one given nothing is filtered away on-site first.
        """
        if journey is None:
            return merged_journal(self.harvest(("journal",), **filters))
        return merged_journal(self.harvest(("journal",)), journey=journey, **filters)

    def space_health(self) -> dict[str, dict]:
        """Every server's health snapshot (findings + profiles), by host."""
        return {row["server"]: row["health"] for row in self.harvest(("health",))}

    def space_view(self) -> dict[str, dict]:
        """Every server's merged load view (its health plane's), by host.

        Each snapshot carries the server's own on-demand digest plus the
        peer digests it has merged, with staleness aging applied.
        """
        return {row["server"]: row["load"] for row in self.harvest(("load",))}

    # ------------------------------------------------------------------ #
    # Health plane (space-wide, typed)
    # ------------------------------------------------------------------ #

    def space_findings(self) -> list["HealthFinding"]:
        """All active watchdog findings, most severe first."""
        findings: list[HealthFinding] = []
        for hostname in self.hostnames:
            findings.extend(self._servers[hostname].health.findings())
        findings.sort(key=lambda f: (-Severity.rank(f.severity), f.first_seen))
        return findings

    def top_naplets_by_cpu(self, count: int = 5) -> list[tuple[str, "ResourceProfile"]]:
        """The space's busiest naplets: (hostname, profile), hottest first."""
        candidates: list[tuple[str, ResourceProfile]] = []
        for hostname in self.hostnames:
            for profile in self._servers[hostname].health.profiles:
                if profile.latest is not None:
                    candidates.append((hostname, profile))
        candidates.sort(key=lambda hp: hp[1].latest.cpu_seconds, reverse=True)  # type: ignore[union-attr]
        return candidates[:count]

    # ------------------------------------------------------------------ #
    # Dead letters
    # ------------------------------------------------------------------ #

    def dead_letters(self, hostname: str | None = None) -> dict[str, list[dict]]:
        """Undelivered-message backlog per host (described, not drained)."""
        hosts = [hostname] if hostname is not None else self.hostnames
        return {
            host: [
                letter.describe()
                for letter in self._servers[host].messenger.dead_letters.peek()
            ]
            for host in hosts
        }

    def dead_letter_depth(self) -> int:
        """Total dead letters waiting anywhere in the space."""
        return sum(
            len(server.messenger.dead_letters) for server in self._servers.values()
        )

    def requeue_dead_letters(self, hostname: str | None = None) -> tuple[int, int]:
        """Redeliver dead letters space-wide (or on one host) after a heal.

        Returns the space-wide ``(delivered, requeued)`` totals.
        """
        servers = (
            [self._servers[hostname]]
            if hostname is not None
            else list(self._servers.values())
        )
        delivered = requeued = 0
        for server in servers:
            got, kept = server.messenger.requeue_dead_letters()
            delivered += got
            requeued += kept
        return delivered, requeued

    # ------------------------------------------------------------------ #
    # Control (location-routed)
    # ------------------------------------------------------------------ #

    def _control(self, nid: NapletID, control: str, payload=None) -> None:
        hostname = self.locate(nid)
        if hostname is not None:
            self._servers[hostname].messenger.send_control(
                nid, control, payload, dest_urn=self._servers[hostname].urn
            )
            return
        # not resident anywhere: let any server chase it via its directory
        try:
            self._any_server().messenger.send_control(nid, control, payload)
        except NapletLocationError:
            raise NapletError(f"cannot control {nid}: not found in the space") from None

    def terminate(self, nid: NapletID, reason: str | None = None) -> None:
        self._control(nid, SystemControl.TERMINATE, reason)

    def suspend(self, nid: NapletID) -> None:
        self._control(nid, SystemControl.SUSPEND)

    def resume(self, nid: NapletID) -> None:
        self._control(nid, SystemControl.RESUME)

    def callback(self, nid: NapletID, payload=None) -> None:
        self._control(nid, SystemControl.CALLBACK, payload)

    def terminate_all(self) -> int:
        """Emergency stop: terminate every resident naplet. Returns count."""
        count = 0
        for nid, hostname in self.alive_naplets().items():
            self._servers[hostname].messenger.send_control(
                nid, SystemControl.TERMINATE, "terminate_all",
                dest_urn=self._servers[hostname].urn,
            )
            count += 1
        return count

    def _space_is_idle(self) -> bool:
        # Residency alone is not enough: after a hop the source
        # worker thread is still unwinding (closing its hop span, retiring
        # the run) while the naplet is already resident — and possibly
        # already finished — at the destination.  Requiring every monitor's
        # run table to drain too means "idle" implies every span of every
        # journey has been recorded.
        if self.alive_naplets():
            return False
        return all(
            server.monitor.active_count == 0 for server in self._servers.values()
        )

    def wait_space_idle(self, timeout: float = 10.0) -> bool:
        """Block until no naplet runs anywhere in the space."""
        return wait_until(self._space_is_idle, timeout, interval=0.01)
