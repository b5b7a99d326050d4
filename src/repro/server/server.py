"""NapletServer: the dock of naplets (paper §2.2, Fig. 2).

Assembles the seven architecture components around one transport endpoint:

====================  =====================================================
NapletMonitor         confined execution, resource accounting (monitor.py)
NapletSecurityManager signature checks + access-control matrix (security.py)
ResourceManager       open/privileged services, ServiceChannels
NapletManager         the naplet table, launching, listeners
Messenger             post-office messaging, forwarding, the departure chase
Navigator             LAUNCH/LANDING migration protocol
Locator               tracing/location with cache (directory-mode aware)
====================  =====================================================

A host contains at most one NapletServer; servers run autonomously and
cooperatively form the naplet space.  All inter-server interaction goes
through frames handled in :meth:`_handle_frame`, which answers a frame it
will not serve (shut down, an unknown kind, no directory here) with the one
refusal, ``refused <reason>``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.core.credential import Credential, SigningAuthority
from repro.core.errors import NapletError
from repro.core.listener import NapletListener
from repro.core.naplet_id import NapletID
from repro.faults.retry import RetryPolicy, no_retry
from repro.server.directory import DirectoryClient, DirectoryMode, NapletDirectory
from repro.server.locator import Locator
from repro.server.manager import NapletManager
from repro.server.messages import SystemControl
from repro.server.messenger import Messenger
from repro.server.monitor import NapletMonitor, ResourceQuota
from repro.server.navigator import Navigator
from repro.server.resource_manager import ResourceManager
from repro.server.security import NapletSecurityManager, SecurityPolicy
from repro.telemetry.exposition import ServerTelemetry
from repro.transport.base import Frame, FrameKind, Transport, refusal, reply, urn_of
from repro.transport.serializer import NapletSerializer
from repro.util.concurrency import wait_until

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.simnet.host import VirtualHost
    from repro.simnet.network import VirtualNetwork

__all__ = ["ServerConfig", "NapletServer"]


@dataclass
class ServerConfig:
    """Per-server knobs; the defaults give a working research posture."""

    directory_mode: DirectoryMode = DirectoryMode.HOME
    directory_urn: str | None = None  # required for CENTRAL mode
    eager_code: bool = False
    max_residents: int | None = None
    max_residents_per_owner: int | None = None
    default_quota: ResourceQuota = field(default_factory=ResourceQuota)
    quota_policy: Callable[[Credential], ResourceQuota | None] | None = None
    policy: SecurityPolicy = field(default_factory=SecurityPolicy.permissive)
    require_signature: bool = True
    codebase_host: str | None = None  # where lazy code fetches are billed from
    telemetry_enabled: bool = True  # False: no-op metrics/tracer (benchmarks)
    # Resilience policies (DESIGN.md §6.3).  The defaults are the
    # single-attempt policies — exactly the historical give-up behavior —
    # so existing spaces are unaffected until a config opts in.
    migration_retry: RetryPolicy = field(default_factory=no_retry)
    message_retry: RetryPolicy = field(default_factory=no_retry)
    # Health plane (DESIGN.md §6.4): each server's one background loop —
    # sampler, watchdog and load heartbeat — on exactly when telemetry is.
    # A peer silent for ``health.plane.STALE_BEATS`` beats decays to
    # unknown and navigation keeps declaration order.
    health_cadence: float = 0.5
    health_stuck_deadline: float = 30.0  # no-progress watchdog deadline
    # Flight recorder (DESIGN.md §6.5): the per-server causal journal, on
    # exactly when telemetry is.  ``journal_time_source`` lets tests run
    # servers with deliberately skewed wall clocks to prove the hybrid
    # logical clock keeps the merged timeline causally consistent.
    journal_time_source: Callable[[], float] | None = None


class NapletServer:
    """One server in the naplet space."""

    def __init__(
        self,
        hostname: str,
        transport: Transport,
        authority: SigningAuthority,
        code_registry: CodeBaseRegistry,
        config: ServerConfig | None = None,
        network: "VirtualNetwork | None" = None,
    ) -> None:
        self.hostname = hostname
        self.urn = urn_of(hostname)
        self.transport = transport
        self.authority = authority
        self.code_registry = code_registry
        self.config = config or ServerConfig()
        self.network = network
        self.telemetry = ServerTelemetry(
            hostname,
            enabled=self.config.telemetry_enabled,
            journal_time_source=self.config.journal_time_source,
        )

        # Flight recorder: the server's one record store.  Every component
        # (Locator, Monitor, CodeCache, Messenger, Navigator, the health
        # plane, the transport's drops and injected faults) writes to it,
        # and the tracer hands it each completed span.
        self.journal = self.telemetry.journal
        # The same object under its older name, read by the frozen
        # journey harness.
        self.events = self.journal

        if (
            self.config.directory_mode is DirectoryMode.CENTRAL
            and self.config.directory_urn is None
        ):
            raise NapletError("CENTRAL directory mode requires config.directory_urn")

        self.serializer = NapletSerializer(
            registry=code_registry,
            eager_code=self.config.eager_code,
            observer=self.telemetry.serializer_observer(),
        )
        self.code_cache = CodeCache(
            code_registry, fetch_observer=self._on_code_fetch, journal=self.journal
        )

        # -- the seven components -------------------------------------- #
        self.security = NapletSecurityManager(
            policy=self.config.policy,
            authority=authority,
            require_signature=self.config.require_signature,
        )
        self.monitor = NapletMonitor(
            hostname, self.config.default_quota, self.journal, telemetry=self.telemetry
        )
        self.manager = NapletManager(self)
        self.resource_manager = ResourceManager(self)
        self.messenger = Messenger(self)
        self.navigator = Navigator(self)

        hosts_directory = (
            self.config.directory_mode is DirectoryMode.HOME
            or (
                self.config.directory_mode is DirectoryMode.CENTRAL
                and self.config.directory_urn == self.urn
            )
        )
        self.local_directory: NapletDirectory | None = (
            NapletDirectory() if hosts_directory else None
        )
        self.directory_client = DirectoryClient(
            mode=self.config.directory_mode,
            transport=transport,
            self_urn=self.urn,
            central_urn=self.config.directory_urn,
            local_directory=self.local_directory,
        )
        self.locator = Locator(
            self.directory_client, journal=self.journal, telemetry=self.telemetry
        )

        # Health plane: the server's one background loop.  It samples the
        # monitor's control blocks, runs the watchdog and heartbeats load
        # digests over connections the space already holds open; the
        # Navigator orders Alt/Par by its merged view.  Dormant (no thread)
        # when telemetry is off.
        from repro.health.plane import HealthPlane

        self.health = HealthPlane(self)
        # Kept only for the frozen journey harness, which wraps
        # ``server.observatory.order_branches``; drop it with that harness.
        self.observatory = self.health
        self.health.start()

        # Every server exposes its own observation planes in-space through
        # one open service, so a probe naplet harvests metrics, health, load
        # and the journal like the paper's MAN agents harvest SNMP variables.
        from repro.health.harvest import HarvestService

        self.resource_manager.register_open_service(
            HarvestService.SERVICE_NAME, HarvestService(self)
        )

        self._shutdown = threading.Event()
        transport.register(self.urn, self._handle_frame)
        # Wire-level connection failures at our endpoint — and, through a
        # fault-injecting transport, each fault fired on our outbound
        # frames — land in our journal instead of vanishing in the wire.
        transport.bind_event_log(self.urn, self.journal)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def attach(cls, host: "VirtualHost", config: ServerConfig | None = None) -> "NapletServer":
        """Build a server on a virtual host, wired to its network fixtures."""
        network = host.network
        server = cls(
            hostname=host.hostname,
            transport=network.transport,
            authority=network.authority,
            code_registry=network.code_registry,
            config=config,
            network=network,
        )
        host.install_server(server)
        return server

    # ------------------------------------------------------------------ #
    # Frame dispatch
    # ------------------------------------------------------------------ #

    def _handle_frame(self, frame: Frame) -> bytes | None:
        if self._shutdown.is_set():
            return refusal("server shut down")
        # Piggybacked HLC stamp: advance our clock before any handler
        # journals, so everything recorded here sorts after the sender's
        # pre-send records in the merged timeline (DESIGN.md §6.5).
        hlc_header = frame.headers.get("hlc")
        if hlc_header is not None:
            self.journal.receive(hlc_header)
        kind = frame.kind
        if kind == FrameKind.NAPLET_TRANSFER:
            return self.navigator.handle_transfer(frame)
        if kind == FrameKind.MESSAGE:
            return self.messenger.handle_message_frame(frame)
        if kind == FrameKind.REPORT:
            return self.messenger.handle_report_frame(frame)
        if kind in (FrameKind.DIRECTORY_EVENT, FrameKind.DIRECTORY_QUERY):
            if self.local_directory is None:
                return refusal(f"{self.urn} hosts no directory")
            if kind == FrameKind.DIRECTORY_EVENT:  # one-way: no reply
                return DirectoryClient.handle_event_frame(self.local_directory, frame)
            return DirectoryClient.handle_query_frame(self.local_directory, frame)
        if kind == FrameKind.PING:
            return reply("pong", self.urn)
        if kind == FrameKind.LOAD:
            return self.health.handle_load_frame(frame)
        return refusal(f"{self.urn}: unknown frame kind {kind!r}")

    # ------------------------------------------------------------------ #
    # Public facade
    # ------------------------------------------------------------------ #

    def launch(
        self,
        naplet: "Naplet",
        owner: str,
        listener: NapletListener | None = None,
        attributes: dict[str, str] | None = None,
    ) -> NapletID:
        """Launch *naplet* from this (its home) server."""
        return self.manager.launch(naplet, owner, listener, attributes)

    # -- remote control of launched naplets ------------------------------- #

    def terminate_naplet(self, nid: NapletID) -> None:
        self.messenger.send_control(nid, SystemControl.TERMINATE)

    def suspend_naplet(self, nid: NapletID) -> None:
        self.messenger.send_control(nid, SystemControl.SUSPEND)

    def resume_naplet(self, nid: NapletID) -> None:
        self.messenger.send_control(nid, SystemControl.RESUME)

    def callback_naplet(self, nid: NapletID, payload: Any = None) -> None:
        self.messenger.send_control(nid, SystemControl.CALLBACK, payload)

    # -- freeze / thaw (extension: checkpoint-and-revive) ------------------ #

    def freeze_naplet(self, nid: NapletID, timeout: float = 10.0) -> bytes:
        """Checkpoint a resident naplet to bytes and retire it here.

        The naplet unwinds at its next cooperative checkpoint (its
        ``on_stop`` hook runs, ``on_destroy`` does not); the returned image
        can be persisted and later revived with :meth:`thaw_naplet` on any
        server — its ``on_start`` re-runs there, the same per-visit restart
        semantics as ordinary migration.
        """
        naplet = self.manager.resident(nid)
        if naplet is None:
            raise NapletError(f"{nid} is not resident at {self.hostname}")
        if not self.manager.interrupt(nid, SystemControl.FREEZE):
            raise NapletError(f"{nid} has no running thread at {self.hostname}")

        def frozen() -> bool:
            footprint = self.manager.footprint(nid)
            return footprint is not None and footprint.outcome == "frozen"

        if not wait_until(frozen, timeout, interval=0.005):
            raise NapletError(f"freeze of {nid} did not complete within {timeout}s")
        if self.journal.enabled:
            # The stamp travels in the image so a later thaw — possibly at
            # a server with a skewed clock — still lands after the freeze.
            naplet._hlc = self.journal.clock.now()
        image = self.serializer.dumps(naplet)
        self.journal.record("naplet-frozen", naplet=str(nid), bytes=len(image))
        return image

    def thaw_naplet(self, image: bytes) -> NapletID:
        """Revive a frozen naplet image at this server."""
        naplet = self.serializer.loads(image, self.code_cache)
        nid = naplet.naplet_id
        if self.manager.is_resident(nid):
            raise NapletError(f"{nid} is already resident at {self.hostname}")
        self.journal.record("naplet-thawed", naplet=str(nid), bytes=len(image))
        self.navigator.receive(naplet, arrived_from=None, payload_bytes=len(image))
        return nid

    # -- services ------------------------------------------------------------ #

    def register_open_service(self, name: str, handler: Any) -> None:
        self.resource_manager.register_open_service(name, handler)

    def register_privileged_service(self, name: str, factory: Callable[[], Any]) -> None:
        self.resource_manager.register_privileged_service(name, factory)

    # -- policy helpers -------------------------------------------------------- #

    def quota_for(self, naplet: "Naplet") -> ResourceQuota:
        if self.config.quota_policy is not None:
            quota = self.config.quota_policy(naplet.credential)
            if quota is not None:
                return quota
        return self.config.default_quota

    def _on_code_fetch(self, codebase_name: str, module_key: str, nbytes: int) -> None:
        """Account a lazy codebase fetch as network traffic."""
        self.journal.record(
            "codebase-fetch", codebase=codebase_name, module=module_key, bytes=nbytes
        )
        # Lazy shipping moves code on the fetch, not in the hop payload;
        # attribute it to the same histogram part eager bundles use.
        self.telemetry.hop_bytes.observe(nbytes, part="code")
        if self.network is None or self.config.codebase_host is None:
            return
        src = self.config.codebase_host
        self.network.clock.advance(self.network.latency.delay(src, self.hostname, nbytes))
        self.transport.meter.record(src, self.hostname, FrameKind.CODEBASE_FETCH, nbytes)

    # -- lifecycle ---------------------------------------------------------------- #

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Wait until no naplet is running here (test/benchmark helper)."""
        return self.monitor.wait_idle(timeout)

    def shutdown(self) -> None:
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self.health.stop()
        for nid in self.manager.resident_ids():
            self.manager.interrupt(nid, SystemControl.TERMINATE, "server shutdown")
        self.transport.unregister(self.urn)
        self.serializer.blobs.clear()  # no image here is leaned on again

    def __repr__(self) -> str:
        return f"<NapletServer {self.hostname!r} residents={self.manager.resident_count}>"
