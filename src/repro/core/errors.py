"""Exception hierarchy for the Naplet framework.

Mirrors the paper's exception surface: the code listings reference
``NapletCommunicationException`` and ``InterruptedException``; the security
and resource sections imply permission and quota failures.  Everything
derives from :class:`NapletError` so applications can catch framework
failures with one handler.
"""

from __future__ import annotations

__all__ = [
    "NapletError",
    "NapletCommunicationError",
    "NapletLocationError",
    "NapletMigrationError",
    "LaunchDeniedError",
    "LandingDeniedError",
    "NapletSecurityError",
    "PermissionDeniedError",
    "CredentialError",
    "ResourceError",
    "ResourceLimitExceeded",
    "ServiceNotFoundError",
    "ServiceChannelClosed",
    "ItineraryError",
    "StateAccessError",
    "NapletInterrupted",
    "NapletTerminated",
    "NapletFrozen",
    "SerializationError",
    "DeltaBaseMissingError",
    "CodeShippingError",
    "ShippedCodeMissingError",
    "NapletDeparted",
    "NapletCompleted",
]


class NapletError(Exception):
    """Base class for all framework errors."""


class NapletCommunicationError(NapletError):
    """Message could not be delivered (paper: NapletCommunicationException)."""


class NapletLocationError(NapletCommunicationError):
    """A naplet could not be located by the Locator / directory services."""


class NapletMigrationError(NapletError):
    """Migration failed between LAUNCH and LANDING."""


class LaunchDeniedError(NapletMigrationError):
    """The source server's security manager refused LAUNCH permission."""


class LandingDeniedError(NapletMigrationError):
    """The destination server refused LANDING permission."""


class NapletSecurityError(NapletError):
    """Base class for security violations."""


class PermissionDeniedError(NapletSecurityError):
    """An operation was denied by the active :class:`SecurityPolicy`."""


class CredentialError(NapletSecurityError):
    """A credential failed signature verification or was tampered with."""


class ResourceError(NapletError):
    """Base class for resource-management failures."""


class ResourceLimitExceeded(ResourceError):
    """A naplet exceeded a CPU / memory / bandwidth quota set by its monitor."""

    def __init__(self, resource: str, used: float, limit: float) -> None:
        super().__init__(f"{resource} quota exceeded: used {used!r}, limit {limit!r}")
        self.resource = resource
        self.used = used
        self.limit = limit


class ServiceNotFoundError(ResourceError):
    """No service registered under the requested name."""


class ServiceChannelClosed(ResourceError):
    """Read/write on a service channel whose peer has shut down."""


class ItineraryError(NapletError):
    """Malformed or unsatisfiable itinerary."""


class StateAccessError(NapletSecurityError):
    """NapletState access violating the entry's protection mode."""


class NapletInterrupted(NapletError):
    """Raised inside a naplet thread when a system message interrupts it.

    The paper's Messenger "casts an interrupt onto the running naplet
    thread"; in Python we surface that as this exception at the naplet's next
    checkpoint, and the naplet's ``on_interrupt`` hook decides the reaction.
    """

    def __init__(self, control: str = "interrupt", payload: object | None = None) -> None:
        super().__init__(f"naplet interrupted: {control}")
        self.control = control
        self.payload = payload


class NapletTerminated(NapletInterrupted):
    """A TERMINATE system message: the naplet must unwind and die."""

    def __init__(self, payload: object | None = None) -> None:
        super().__init__("terminate", payload)


class NapletFrozen(NapletInterrupted):
    """A FREEZE control: unwind for checkpointing, without on_destroy.

    The frozen naplet's serialized image can later be thawed on any server;
    its ``on_start`` re-runs there, consistent with the per-visit restart
    semantics of ordinary migration.
    """

    def __init__(self, payload: object | None = None) -> None:
        super().__init__("freeze", payload)


class SerializationError(NapletError):
    """Naplet (de)serialization failed during migration."""


class DeltaBaseMissingError(SerializationError):
    """A delta envelope arrived that this server cannot compose: a record
    or a blob it leans on is not cached here, or what is cached does not
    hash to the announced image.

    Recoverable by protocol: the receiver acks ``need_full`` and the
    sender transparently re-ships the full image (DESIGN.md §6.7).
    """


class NapletDeparted(BaseException):
    """Control-flow signal: the naplet was dispatched to another server.

    Raised by the Navigator inside ``travel()`` to unwind the naplet's
    ``on_start`` frame after a successful dispatch.  Derives from
    ``BaseException`` so application-level ``except Exception`` blocks in
    agent code cannot accidentally swallow a migration.
    """

    def __init__(self, destination: str) -> None:
        super().__init__(f"naplet departed for {destination}")
        self.destination = destination


class NapletCompleted(BaseException):
    """Control-flow signal: the itinerary finished; the runtime retires the agent."""


class CodeShippingError(NapletError):
    """Codebase fetch / class reconstruction failed during lazy loading."""


class ShippedCodeMissingError(CodeShippingError):
    """An envelope referenced code by content hash this server lacks.

    Raised when a sender skipped re-shipping a bundle it believed the
    destination held (code-hash negotiation) but the destination's
    CodeCache has no matching module.  Recoverable by protocol: the
    receiver acks ``need_full`` and the sender re-ships with bundles.
    """
