"""NapletManager (paper §2.2).

The manager is the local users' interface: launch naplets, monitor their
execution states, control their behaviour.  It maintains the *naplet table*
of resident naplets and keeps *footprints* of all past and current alien
naplets — the trace that directory-less message forwarding and management
tooling rely on ("the NapletManager maintains the source and destination
information about each naplet visit").

It also owns the home-side listener registry: launching with a
:class:`~repro.core.listener.NapletListener` hands the travelling naplet a
serializable :class:`~repro.core.listener.ListenerRef` pointing back here.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.errors import NapletError
from repro.core.listener import ListenerRef, NapletListener, ReportEnvelope
from repro.core.naplet_id import NapletID
from repro.util.timeutil import unique_compact_timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.server.server import NapletServer

__all__ = ["Footprint", "ResidentRecord", "NapletManager"]


@dataclass
class ResidentRecord:
    """One row of the naplet table: a currently resident naplet."""

    naplet: "Naplet"
    arrived_from: str | None
    arrived_at: float = field(default_factory=time.time)


@dataclass
class Footprint:
    """Visit trace of one naplet at this server (kept after departure)."""

    naplet_id: NapletID
    arrived_from: str | None
    arrived_at: float
    departed_to: str | None = None
    departed_at: float | None = None
    outcome: str | None = None


class NapletManager:
    """Naplet table, footprints, launching, and home listeners."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        self._residents: dict[NapletID, ResidentRecord] = {}
        self._footprints: dict[NapletID, Footprint] = {}
        self._listeners: dict[str, NapletListener] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Launching (realized by the home Navigator; see paper §2.2)
    # ------------------------------------------------------------------ #

    def launch(
        self,
        naplet: "Naplet",
        owner: str,
        listener: NapletListener | None = None,
        attributes: dict[str, str] | None = None,
    ) -> NapletID:
        """Mint identity, sign the credential, and send the naplet off.

        Returns the assigned :class:`NapletID`.  A naplet whose itinerary
        admits no visit is retired immediately (degenerate journey).
        """
        if not naplet.has_itinerary:
            raise NapletError(f"naplet {naplet.name!r} cannot launch without an itinerary")
        if not naplet.has_id:
            nid = NapletID.create(
                owner=owner,
                home=self.server.hostname,
                stamp=unique_compact_timestamp(),
            )
            self.server.authority.register_owner(owner)
            credential = self.server.authority.issue(
                nid, naplet.codebase, attributes or {}
            )
            naplet._assign_identity(nid, credential)
        nid = naplet.naplet_id
        if listener is not None:
            key = self.register_listener(listener)
            naplet.set_listener(ListenerRef(home_urn=self.server.urn, listener_key=key))
        self.server.journal.record("naplet-launch", naplet=str(nid), owner=owner)
        telemetry = self.server.telemetry
        # Root span of the journey tree: hop/message spans parent to it via
        # the context minted here, which travels inside migration frames.
        ctx = naplet._ensure_trace()
        with telemetry.tracer.span(
            "launch",
            ctx,
            parent_id="",  # explicit root (no parent)
            span_id=ctx.span_id,
            naplet=str(nid),
            owner=owner,
            home=self.server.hostname,
        ):
            self.server.navigator.launch(naplet)
        return nid

    # ------------------------------------------------------------------ #
    # Naplet table & footprints
    # ------------------------------------------------------------------ #

    def record_arrival(self, naplet: "Naplet", arrived_from: str | None) -> None:
        nid = naplet.naplet_id
        with self._lock:
            self._residents[nid] = ResidentRecord(naplet=naplet, arrived_from=arrived_from)
            self._footprints[nid] = Footprint(
                naplet_id=nid, arrived_from=arrived_from, arrived_at=time.time()
            )

    def record_departure(self, nid: NapletID, departed_to: str) -> None:
        with self._lock:
            self._residents.pop(nid, None)
            footprint = self._footprints.get(nid)
            if footprint is not None:
                footprint.departed_to = departed_to
                footprint.departed_at = time.time()

    def begin_departure(self, nid: NapletID, departed_to: str) -> ResidentRecord | None:
        """Mark *nid* in transit BEFORE the transfer is attempted.

        From this moment the messenger treats the naplet as gone: messages
        are forwarded toward *departed_to* (where they are parked until the
        naplet lands) instead of being deposited in a mailbox the naplet
        will never read again.  Returns the resident record for a possible
        :meth:`abort_departure` rollback.
        """
        with self._lock:
            record = self._residents.pop(nid, None)
            footprint = self._footprints.get(nid)
            if footprint is not None:
                footprint.departed_to = departed_to
                footprint.departed_at = time.time()
            return record

    def abort_departure(self, nid: NapletID, record: ResidentRecord | None) -> None:
        """Roll back :meth:`begin_departure` after a failed transfer."""
        with self._lock:
            if record is not None:
                self._residents[nid] = record
            footprint = self._footprints.get(nid)
            if footprint is not None:
                footprint.departed_to = None
                footprint.departed_at = None

    def record_retirement(self, nid: NapletID, outcome: str) -> None:
        with self._lock:
            self._residents.pop(nid, None)
            footprint = self._footprints.get(nid)
            if footprint is not None:
                footprint.outcome = outcome
                footprint.departed_at = time.time()

    def resident(self, nid: NapletID) -> "Naplet | None":
        with self._lock:
            record = self._residents.get(nid)
            return record.naplet if record is not None else None

    def is_resident(self, nid: NapletID) -> bool:
        with self._lock:
            return nid in self._residents

    def resident_ids(self) -> list[NapletID]:
        with self._lock:
            return list(self._residents)

    def footprint(self, nid: NapletID) -> Footprint | None:
        with self._lock:
            return self._footprints.get(nid)

    def footprints(self) -> list[Footprint]:
        with self._lock:
            return list(self._footprints.values())

    def trace_next_hop(self, nid: NapletID) -> str | None:
        """Where the naplet went after visiting here (forwarding hint)."""
        with self._lock:
            footprint = self._footprints.get(nid)
            if footprint is None:
                return None
            return footprint.departed_to

    @property
    def resident_count(self) -> int:
        with self._lock:
            return len(self._residents)

    def resident_count_for_owner(self, owner: str) -> int:
        """Residents belonging to *owner* (for per-owner admission caps)."""
        with self._lock:
            return sum(1 for nid in self._residents if nid.owner == owner)

    # ------------------------------------------------------------------ #
    # Home listeners
    # ------------------------------------------------------------------ #

    def register_listener(self, listener: NapletListener, key: str | None = None) -> str:
        key = key or uuid.uuid4().hex[:12]
        with self._lock:
            if key in self._listeners:
                raise NapletError(f"listener key already registered: {key!r}")
            self._listeners[key] = listener
        return key

    def deliver_report(self, listener_key: str, reporter: Any, payload: Any) -> bool:
        with self._lock:
            listener = self._listeners.get(listener_key)
        if listener is None:
            return False
        listener.deliver(
            ReportEnvelope(listener_key=listener_key, reporter=reporter, payload=payload)
        )
        return True

    def unregister_listener(self, key: str) -> None:
        with self._lock:
            self._listeners.pop(key, None)
