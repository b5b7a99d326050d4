"""ResourceManager (paper §2.2, §5.3).

Separates resource *mechanism* from *policy*: the mechanism here is service
registration and allocation; which naplets may use what is decided by the
security policy at allocation time.

Two protection modes for server-side services:

- **open (non-privileged)** services — e.g. math library routines — are
  registered under a name and called directly via their handler;
- **privileged** services — e.g. workload probes, SNMP/MIB access — are
  reachable only through :class:`~repro.server.service_channel.ServiceChannel`
  pipes that the ResourceManager creates on request: one endpoint pair goes
  to the requesting naplet, the other to a fresh service instance running on
  its own thread.  Naplet-specific access control happens here, based on
  the naplet credential (``channel:<name>`` permissions).

Channels are host resources: the naplet table holds them on the naplet's
record and closes them when the naplet departs or retires.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import ServiceNotFoundError
from repro.server.security import Permission
from repro.server.service_channel import PrivilegedService, ServiceChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.server.server import NapletServer

__all__ = ["ResourceManager"]

ServiceFactory = Callable[[], PrivilegedService]


class ResourceManager:
    """Service registry + channel allocator for one server."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        self._open_services: dict[str, Any] = {}
        self._privileged: dict[str, ServiceFactory] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Configuration (dynamic, per the paper: services can be installed
    # and re-configured at runtime)
    # ------------------------------------------------------------------ #

    def register_open_service(self, name: str, handler: Any) -> None:
        with self._lock:
            self._open_services[name] = handler

    def register_privileged_service(self, name: str, factory: ServiceFactory) -> None:
        with self._lock:
            self._privileged[name] = factory

    def unregister_service(self, name: str) -> None:
        with self._lock:
            self._open_services.pop(name, None)
            self._privileged.pop(name, None)

    def open_service_names(self) -> list[str]:
        with self._lock:
            return sorted(self._open_services)

    def privileged_service_names(self) -> list[str]:
        with self._lock:
            return sorted(self._privileged)

    # ------------------------------------------------------------------ #
    # Allocation (policy-checked)
    # ------------------------------------------------------------------ #

    def open_service(self, naplet: "Naplet", name: str) -> Any:
        """Handler of open service *name* for *naplet* (policy-checked)."""
        with self._lock:
            handler = self._open_services.get(name)
        if handler is None:
            raise ServiceNotFoundError(f"no open service {name!r} on {self.server.hostname}")
        who = str(naplet.naplet_id) if naplet.has_id else naplet.name
        try:
            self.server.security.check(naplet.credential, Permission.service(name))
        except Exception as exc:
            self.server.journal.record(
                "service-denied", naplet=who, service=name, reason=str(exc)
            )
            raise
        self.server.journal.record("service-granted", naplet=who, service=name)
        return handler

    def request_channel(self, naplet: "Naplet", name: str) -> ServiceChannel:
        """Create a channel between *naplet* and privileged service *name*.

        The naplet keeps the naplet-side endpoints; the service instance is
        started on its own daemon thread with the service-side endpoints.
        """
        with self._lock:
            factory = self._privileged.get(name)
        if factory is None:
            raise ServiceNotFoundError(
                f"no privileged service {name!r} on {self.server.hostname}"
            )
        who = str(naplet.naplet_id) if naplet.has_id else naplet.name
        try:
            self.server.security.check(naplet.credential, Permission.channel(name))
        except Exception as exc:
            self.server.journal.record(
                "channel-denied", naplet=who, service=name, reason=str(exc)
            )
            raise
        channel = ServiceChannel(service_name=name)
        service = factory()
        service.bind(channel.service_reader, channel.service_writer)
        service.start(name=f"service-{name}@{self.server.hostname}")
        nid = naplet.naplet_id
        self.server.manager.add_channel(nid, name, channel)
        self.server.journal.record(
            "channel-created", naplet=str(nid), service=name
        )
        return channel

    @property
    def active_channel_count(self) -> int:
        return self.server.manager.channel_count()

    def proxy_for(self, naplet: "Naplet") -> "NapletServiceProxy":
        return NapletServiceProxy(self, naplet)


class NapletServiceProxy:
    """Context-facing service facade scoped to one resident naplet."""

    def __init__(self, manager: ResourceManager, naplet: "Naplet") -> None:
        self._manager = manager
        self._naplet = naplet

    def open_service(self, name: str) -> Any:
        return self._manager.open_service(self._naplet, name)

    def request_service_channel(self, name: str) -> ServiceChannel:
        return self._manager.request_channel(self._naplet, name)

    def service_channel_list(self) -> dict[str, ServiceChannel]:
        return self._manager.server.manager.channels_of(self._naplet.naplet_id)
