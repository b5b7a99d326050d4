"""Naplet directory services (paper §4.1).

The naplet space operates in one of three tracing modes:

- ``CENTRAL`` — one server hosts a :class:`NapletDirectory`; Navigators
  register ARRIVAL and DEPART events there.  Naplet execution is postponed
  until the arrival registration is acknowledged, which guarantees the
  directory is never behind: "latest = departure" means in transit,
  "latest = arrival" means running at (or just leaving) that server.
- ``HOME``   — the directory is distributed over NapletManagers: each
  naplet's location is maintained by its *home* manager (the home is encoded
  in the naplet id), and tracing requests are directed there.
- ``NONE``   — no registrations at all; location queries fail and the
  Messenger falls back to trace-based message forwarding.

:class:`DirectoryClient` gives Navigators/Locators a mode-independent API;
event and query frames travel over the ordinary transport.
"""

from __future__ import annotations

import enum
import pickle
import threading
from dataclasses import dataclass

from repro.core.errors import NapletCommunicationError
from repro.core.naplet_id import NapletID
from repro.transport.base import Frame, FrameKind, Transport, urn_of

__all__ = [
    "DirectoryMode",
    "DirectoryEvent",
    "DirectoryRecord",
    "NapletDirectory",
    "DirectoryClient",
]


class DirectoryMode(enum.Enum):
    CENTRAL = "central"
    HOME = "home"
    NONE = "none"


class DirectoryEvent:
    ARRIVAL = "arrival"
    DEPART = "depart"
    # Combined depart-at-source + arrive-at-destination registration: a
    # migration reports both in ONE frame from the destination.
    MIGRATION = "migration"


# Hot control replies, serialized once (the ack for every registration).
_ACK = pickle.dumps(True)


@dataclass(frozen=True)
class DirectoryRecord:
    """Latest registration about one naplet."""

    naplet_id: NapletID
    event: str
    server_urn: str
    sequence: int

    @property
    def in_transit(self) -> bool:
        """True when the latest registration is a departure (paper §4.1)."""
        return self.event == DirectoryEvent.DEPART


class NapletDirectory:
    """The registry itself (central mode) or one manager's slice (home mode)."""

    def __init__(self) -> None:
        self._records: dict[NapletID, DirectoryRecord] = {}
        self._lock = threading.RLock()
        self._sequence = 0

    def _register(self, nid: NapletID, event: str, urn: str) -> DirectoryRecord:
        with self._lock:
            self._sequence += 1
            record = DirectoryRecord(
                naplet_id=nid, event=event, server_urn=urn, sequence=self._sequence
            )
            self._records[nid] = record
            return record

    def register_arrival(self, nid: NapletID, urn: str) -> DirectoryRecord:
        return self._register(nid, DirectoryEvent.ARRIVAL, urn)

    def register_departure(self, nid: NapletID, urn: str) -> DirectoryRecord:
        return self._register(nid, DirectoryEvent.DEPART, urn)

    def lookup(self, nid: NapletID) -> DirectoryRecord | None:
        with self._lock:
            return self._records.get(nid)

    def drop(self, nid: NapletID) -> None:
        """Remove a retired naplet's record."""
        with self._lock:
            self._records.pop(nid, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class DirectoryClient:
    """Mode-aware access to the directory from one server.

    ``local_directory`` is this server's own store: the central one if this
    server hosts it, or the home-mode slice for naplets homed here.
    """

    def __init__(
        self,
        mode: DirectoryMode,
        transport: Transport,
        self_urn: str,
        central_urn: str | None = None,
        local_directory: NapletDirectory | None = None,
    ) -> None:
        if mode is DirectoryMode.CENTRAL and central_urn is None:
            raise ValueError("CENTRAL mode needs the directory server's URN")
        self.mode = mode
        self.transport = transport
        self.self_urn = self_urn
        self.central_urn = central_urn
        self.local = local_directory

    # -- where is the authority for this naplet? ---------------------------- #

    def _authority_urn(self, nid: NapletID) -> str | None:
        if self.mode is DirectoryMode.CENTRAL:
            return self.central_urn
        if self.mode is DirectoryMode.HOME:
            return urn_of(nid.home)
        return None

    def _is_local_authority(self, nid: NapletID) -> bool:
        return self._authority_urn(nid) == self.self_urn and self.local is not None

    # -- event registration (synchronous: ack required) ----------------------- #

    def _report(self, nid: NapletID, event: str, at_urn: str) -> None:
        if self.mode is DirectoryMode.NONE:
            return
        if self._is_local_authority(nid):
            assert self.local is not None
            if event == DirectoryEvent.ARRIVAL:
                self.local.register_arrival(nid, at_urn)
            else:
                self.local.register_departure(nid, at_urn)
            return
        authority = self._authority_urn(nid)
        assert authority is not None
        payload = pickle.dumps({"nid": nid, "event": event, "urn": at_urn})
        frame = Frame(
            kind=FrameKind.DIRECTORY_EVENT,
            source=self.self_urn,
            dest=authority,
            payload=payload,
        )
        reply = self.transport.request(frame)
        if pickle.loads(reply) is not True:
            raise NapletCommunicationError(
                f"directory at {authority} did not acknowledge {event} of {nid}"
            )

    def report_arrival(self, nid: NapletID, at_urn: str) -> None:
        """Register an arrival; returns only after the ack (paper §4.1)."""
        self._report(nid, DirectoryEvent.ARRIVAL, at_urn)

    def report_departure(self, nid: NapletID, at_urn: str) -> None:
        self._report(nid, DirectoryEvent.DEPART, at_urn)

    def report_migration(self, nid: NapletID, from_urn: str, to_urn: str) -> None:
        """Register depart(*from_urn*) + arrival(*to_urn*) in one exchange.

        Used by every migration: the destination registers both
        legs of the hop on the source's behalf, so the hop costs at most
        one directory round trip (zero when this server is the authority).
        """
        if self.mode is DirectoryMode.NONE:
            return
        if self._is_local_authority(nid):
            assert self.local is not None
            self.local.register_departure(nid, from_urn)
            self.local.register_arrival(nid, to_urn)
            return
        authority = self._authority_urn(nid)
        assert authority is not None
        payload = pickle.dumps(
            {"nid": nid, "event": DirectoryEvent.MIGRATION, "from": from_urn, "urn": to_urn}
        )
        frame = Frame(
            kind=FrameKind.DIRECTORY_EVENT,
            source=self.self_urn,
            dest=authority,
            payload=payload,
        )
        reply = self.transport.request(frame)
        if pickle.loads(reply) is not True:
            raise NapletCommunicationError(
                f"directory at {authority} did not acknowledge migration of {nid}"
            )

    # -- lookup ------------------------------------------------------------------ #

    def lookup(self, nid: NapletID) -> DirectoryRecord | None:
        """Latest record for *nid*, or None (unknown or mode NONE)."""
        if self.mode is DirectoryMode.NONE:
            return None
        if self._is_local_authority(nid):
            assert self.local is not None
            return self.local.lookup(nid)
        authority = self._authority_urn(nid)
        assert authority is not None
        frame = Frame(
            kind=FrameKind.DIRECTORY_QUERY,
            source=self.self_urn,
            dest=authority,
            payload=pickle.dumps({"nid": nid}),
        )
        try:
            reply = self.transport.request(frame)
        except NapletCommunicationError:
            return None
        record = pickle.loads(reply)
        return record  # DirectoryRecord or None

    # -- frame handling on the authority side --------------------------------- #

    @staticmethod
    def handle_event_frame(directory: NapletDirectory, frame: Frame) -> bytes:
        data = pickle.loads(frame.payload)
        event = data["event"]
        if event == DirectoryEvent.MIGRATION:
            directory.register_departure(data["nid"], data["from"])
            directory.register_arrival(data["nid"], data["urn"])
        elif event == DirectoryEvent.ARRIVAL:
            directory.register_arrival(data["nid"], data["urn"])
        else:
            directory.register_departure(data["nid"], data["urn"])
        return _ACK

    @staticmethod
    def handle_query_frame(directory: NapletDirectory, frame: Frame) -> bytes:
        data = pickle.loads(frame.payload)
        return pickle.dumps(directory.lookup(data["nid"]))
