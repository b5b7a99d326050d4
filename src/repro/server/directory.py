"""Naplet directory services (paper §4.1).

The naplet space operates in one of three tracing modes:

- ``CENTRAL`` — one server hosts a :class:`NapletDirectory`; every landing
  registers the naplet there.
- ``HOME``   — the directory is distributed over NapletManagers: each
  naplet's location is maintained by its *home* manager (the home is encoded
  in the naplet id), and tracing requests are directed there.
- ``NONE``   — no registrations at all; location queries fail and the
  Messenger falls back to trace-based message forwarding.

A registration is one-way and ordered by the naplet's landing count (the
length of its navigation log once the arrival is recorded): the directory
keeps the highest count it has seen, so one-way frames handled out of
order never move it backwards, and it only ever names a server the naplet
reached.  This deviates from §4.1, which postpones execution until the
arrival registration is acknowledged.  Here the naplet starts at once, and
the directory may lag one landing behind — for the width of a frame's
flight, or for good if that frame is lost.  That is safe because a lagging
answer is an older server on the naplet's trace, and the post office
(§4.2) forwards a message from there along the footprints to wherever the
naplet went.  A hop from the authority's own server sends nothing: the
source books the landing on its ack (see :meth:`report_migration`).

:class:`DirectoryClient` gives Navigators/Locators a mode-independent API.
Its frames carry no pickle: a registration is ``"<id> <count>"`` (the
frame's source is the server it names) and a query is the id's text.  A
query's reply, in the transport's one reply grammar, is ``<event> <urn>
<count>`` or ``none``; a refusal, or a reply it cannot read, is an
unreachable authority, and the lookup answers no record.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.core.errors import NapletCommunicationError
from repro.core.naplet_id import NapletID
from repro.transport.base import Frame, FrameKind, Transport, read_reply, reply, urn_of

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


@dataclass(frozen=True)
class DirectoryRecord:
    """Latest registration about one naplet."""

    naplet_id: NapletID
    event: str
    server_urn: str
    count: int = 0  # the naplet's landing count when it was registered

    @property
    def in_transit(self) -> bool:
        """True when the latest registration is a departure (paper §4.1)."""
        return self.event == DirectoryEvent.DEPART


class NapletDirectory:
    """The registry itself (central mode) or one manager's slice (home mode)."""

    def __init__(self) -> None:
        self._records: dict[NapletID, DirectoryRecord] = {}
        self._lock = threading.RLock()

    def register(self, nid: NapletID, event: str, urn: str, count: int = 0) -> DirectoryRecord:
        """Record *event* at *urn*, unless a later landing is already held.

        A registration whose *count* is lower than the held one arrived
        out of order and is ignored; an equal count replaces the record, so
        a repeat is idempotent.  Returns the record held afterwards.
        """
        with self._lock:
            held = self._records.get(nid)
            if held is not None and count < held.count:
                return held
            record = DirectoryRecord(nid, event, urn, count)
            self._records[nid] = record
            return record

    def register_arrival(self, nid: NapletID, urn: str, count: int = 0) -> DirectoryRecord:
        return self.register(nid, DirectoryEvent.ARRIVAL, urn, count)

    def register_departure(self, nid: NapletID, urn: str, count: int = 0) -> DirectoryRecord:
        return self.register(nid, DirectoryEvent.DEPART, urn, count)

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

    def hosts(self, nid: NapletID) -> bool:
        """True when this server holds *nid*'s authoritative record."""
        return self._authority_urn(nid) == self.self_urn and self.local is not None

    # -- event registration (one-way, ordered by landing count) ---------------- #

    def _report(self, nid: NapletID, event: str, at_urn: str, count: int) -> None:
        if self.mode is DirectoryMode.NONE:
            return
        if self.hosts(nid):
            assert self.local is not None
            self.local.register(nid, event, at_urn, count)
            return
        if at_urn != self.self_urn:
            raise ValueError(f"{self.self_urn} cannot register {nid} at {at_urn}")
        payload = f"{nid} {count}" if event == DirectoryEvent.ARRIVAL else f"{nid} {count} {event}"
        self.transport.send(
            Frame(
                kind=FrameKind.DIRECTORY_EVENT,
                source=self.self_urn,
                dest=self._authority_urn(nid),
                payload=payload.encode(),
            )
        )

    def report_arrival(self, nid: NapletID, at_urn: str, count: int = 0) -> None:
        """Register *nid*'s landing number *count* at *at_urn*.

        Returns once the frame is sent, not once it is handled; raises
        :class:`NapletCommunicationError` when the authority is unreachable.
        """
        self._report(nid, DirectoryEvent.ARRIVAL, at_urn, count)

    def report_departure(self, nid: NapletID, at_urn: str, count: int = 0) -> None:
        self._report(nid, DirectoryEvent.DEPART, at_urn, count)

    def report_migration(
        self, nid: NapletID, from_urn: str | None, to_urn: str, count: int
    ) -> None:
        """Register the landing of a hop from *from_urn* (None for a thaw)
        at *to_urn*.

        Called by the destination.  When the source hosts the authority
        (every HOME-mode launch and Par spawn) it books the landing itself
        once the transfer is acked, and nothing is sent from here.
        """
        if self._authority_urn(nid) != from_urn:
            self._report(nid, DirectoryEvent.ARRIVAL, to_urn, count)

    # -- lookup ------------------------------------------------------------------ #

    def lookup(self, nid: NapletID) -> DirectoryRecord | None:
        """Latest record for *nid*, or None (unknown or mode NONE)."""
        if self.mode is DirectoryMode.NONE:
            return None
        if self.hosts(nid):
            assert self.local is not None
            return self.local.lookup(nid)
        frame = Frame(
            kind=FrameKind.DIRECTORY_QUERY,
            source=self.self_urn,
            dest=self._authority_urn(nid),
            payload=str(nid).encode(),
        )
        try:
            event, fields = read_reply(
                self.transport.request(frame), "directory",
                DirectoryEvent.ARRIVAL, DirectoryEvent.DEPART, "none",
            )
            urn, count = fields  # ``none`` has no fields: no record
            return DirectoryRecord(nid, event, urn, int(count))
        except (NapletCommunicationError, ValueError):
            return None

    # -- frame handling on the authority side --------------------------------- #

    @staticmethod
    def handle_event_frame(directory: NapletDirectory, frame: Frame) -> None:
        nid, count, *rest = frame.payload.decode().split(" ")
        (event,) = rest or (DirectoryEvent.ARRIVAL,)
        if event not in (DirectoryEvent.ARRIVAL, DirectoryEvent.DEPART):
            raise ValueError(f"not a directory event: {event!r}")
        directory.register(NapletID.parse(nid), event, frame.source, int(count))

    @staticmethod
    def handle_query_frame(directory: NapletDirectory, frame: Frame) -> bytes:
        record = directory.lookup(NapletID.parse(frame.payload.decode()))
        if record is None:
            return reply("none")
        return reply(record.event, record.server_urn, str(record.count))
