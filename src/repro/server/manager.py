"""NapletManager: the naplet table (paper §2.2, §4.2).

The manager is the local users' interface: launch naplets, monitor their
execution states, control their behaviour.  It keeps the server's one
*naplet table*: a :class:`Resident` record for each naplet the server holds
anything of, under one lock.  A record holds the naplet, its mailbox, the
system messages held for its admission, its control block, its service
channels, its last per-field image here (:class:`~repro.transport.delta.Image`),
and the footprint of its visit that message forwarding and management
tooling rely on ("the NapletManager maintains the source and destination
information about each naplet visit").

Each state change is one method under the table lock: ``expected``
(messages came first: the paper's special mailbox) → ``arriving`` →
``admitted`` → ``departing`` → ``departed`` or ``retired``, which keep only
the footprint and the image's manifest (DESIGN.md §6.3, §6.7).

It also owns the home-side listener registry: launching with a
:class:`~repro.core.listener.NapletListener` hands the travelling naplet a
serializable :class:`~repro.core.listener.ListenerRef` pointing back here.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import NapletError
from repro.core.listener import ListenerRef, NapletListener, ReportEnvelope
from repro.core.naplet_id import NapletID
from repro.server.mailbox import Mailbox
from repro.server.messages import Message, SystemMessage
from repro.util.timeutil import unique_compact_timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.server.monitor import ResourceUsage, _ControlBlock
    from repro.server.server import NapletServer
    from repro.server.service_channel import ServiceChannel
    from repro.transport.delta import Image

__all__ = ["Resident", "NapletManager"]

EXPECTED, ARRIVING, ADMITTED = "expected", "arriving", "admitted"
DEPARTING, DEPARTED, RETIRED = "departing", "departed", "retired"
_RESIDENT = (ARRIVING, ADMITTED)
_GONE = (DEPARTED, RETIRED)

# Departed and retired records kept per server, the oldest forgotten first
# (the navigator's transfer dedup bound).  A live record is never forgotten.
_FOOTPRINT_CAPACITY = 4096


class Resident:
    """One row of the naplet table; once the naplet is gone, its footprint."""

    __slots__ = (
        "naplet_id", "state", "naplet", "mailbox", "held", "block", "channels", "image",
        "arrived_from", "arrived_at", "departed_to", "departed_at", "outcome",
    )

    def __init__(
        self, naplet_id: NapletID, naplet: "Naplet | None" = None, arrived_from: str | None = None
    ) -> None:
        self.naplet_id = naplet_id
        self.state = EXPECTED if naplet is None else ARRIVING
        self.naplet = naplet
        self.mailbox: Mailbox | None = None
        self.held: list[SystemMessage] | None = None  # system messages awaiting admission
        self.block: "_ControlBlock | None" = None
        self.channels: dict[str, "ServiceChannel"] | None = None
        self.image: "Image | None" = None  # the last one dumped or landed here
        self.arrived_from = arrived_from
        self.arrived_at = time.time()
        self.departed_to: str | None = None
        self.departed_at: float | None = None
        self.outcome: str | None = None

    def keep(self, message: Message) -> None:
        """Queue *message* here: a user message in the mailbox, a system
        message with the held ones."""
        if isinstance(message, SystemMessage):
            self.held = [*(self.held or ()), message]
        else:
            if self.mailbox is None:
                self.mailbox = Mailbox()
            self.mailbox.put(message)

    def waiting(self) -> int:
        return (0 if self.mailbox is None else len(self.mailbox)) + len(self.held or ())


class NapletManager:
    """The naplet table, launching, and home listeners."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        self._table: OrderedDict[NapletID, Resident] = OrderedDict()  # in arrival order
        self._gone = 0  # departed and retired records in the table
        self._listeners: dict[str, NapletListener] = {}
        self._lock = threading.RLock()  # a message body is decoded under it
        self._blobs = server.serializer.blobs  # what the records' images name

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
    # The naplet table
    # ------------------------------------------------------------------ #

    def record_arrival(
        self, naplet: "Naplet", arrived_from: str | None, image: "Image | None" = None
    ) -> None:
        """A landing, or a launch or spawn from here: a fresh ``arriving``
        record keeping the landed *image*.  What waited on the one it
        replaces — messages parked before the naplet came, or left by a
        departure it came back from before the ack — is its own."""
        nid = naplet.naplet_id
        record = Resident(nid, naplet, arrived_from)
        record.image = image
        parked = 0
        with self._lock:
            previous = self._table.pop(nid, None)
            if previous is not None:
                if previous.state in _GONE:
                    self._gone -= 1
                if previous.state in (EXPECTED, RETIRED):
                    parked = previous.waiting()
                record.mailbox, record.held = previous.mailbox, previous.held
                self._blobs.let_go(previous.image)
            if record.mailbox is None:
                record.mailbox = Mailbox()
            self._table[nid] = record
        if parked:
            self.server.telemetry.special_mailbox_hits.inc(parked)

    def record_admission(self, nid: NapletID, block: "_ControlBlock") -> None:
        """The monitor admitted the naplet under *block*: ``admitted``; the
        held system messages become its interrupts."""
        with self._lock:
            record = self._table.get(nid)
            if record is not None and record.state is ARRIVING:
                record.state, record.block = ADMITTED, block
                for message in record.held or ():
                    self._interrupt(record, message.control, message.payload)
                record.held = None

    def begin_departure(
        self, nid: NapletID, departed_to: str, visit: Resident | None = None
    ) -> Resident | None:
        """Mark *nid* in transit BEFORE the transfer is attempted: from now
        on messages for it are forwarded toward *departed_to*, where they
        park until it lands.  Returns the record, for :meth:`abort_departure`
        or :meth:`end_departure`; None if the naplet is not resident here
        under the *visit* record, when given."""
        with self._lock:
            record = self._table.get(nid)
            if record is None or record.state not in _RESIDENT or visit not in (None, record):
                return None
            record.state = DEPARTING
            record.departed_to, record.departed_at = departed_to, time.time()
            return record

    def keep_image(self, record: Resident | None, image: "Image | None") -> None:
        """*image*, dumped for the departure *record* marks, replaces its image."""
        with self._lock:
            self._blobs.let_go(image if record is None else record.image)
            if record is not None:
                record.image = image

    def abort_departure(self, nid: NapletID, record: Resident | None) -> None:
        """Roll back :meth:`begin_departure` after a failed transfer."""
        with self._lock:
            if self._departing(nid, record):
                record.state = ARRIVING if record.block is None else ADMITTED
                record.departed_to = record.departed_at = None

    def end_departure(self, nid: NapletID, record: Resident | None) -> list[Message]:
        """The departure *record* began was acked: ``departed``.  Returns what
        waited on it (its mailbox and held messages) for the messenger to
        chase the naplet with; a naplet already back here keeps them."""
        with self._lock:
            return self._bury(record, DEPARTED) if self._departing(nid, record) else []

    def record_retirement(self, nid: NapletID, outcome: str) -> None:
        """The journey ended here: ``retired``, unread messages dropped."""
        with self._lock:
            record = self._table.get(nid)
            if record is not None and record.state in (*_RESIDENT, DEPARTING):
                record.outcome, record.departed_at = outcome, time.time()
                self._bury(record, RETIRED)

    def _departing(self, nid: NapletID, record: Resident | None) -> bool:
        return record is not None and self._table.get(nid) is record and record.state is DEPARTING

    def _bury(self, record: Resident, state: str) -> list[Message]:
        """Leave only *record*'s footprint and its image's manifest, closing
        its mailbox and channels; returns the messages that waited on it."""
        pending: list[Message] = record.mailbox.drain() + (record.held or [])
        record.mailbox.close()
        for channel in (record.channels or {}).values():
            channel.close()
        record.state = state
        record.naplet = record.mailbox = record.held = record.block = record.channels = None
        if record.image is not None:  # the live values left with the naplet
            record.image = record.image.manifest()
        self._gone += 1
        while self._gone > _FOOTPRINT_CAPACITY:  # forget the oldest footprint
            oldest = next(nid for nid, r in self._table.items() if r.state in _GONE)
            self._blobs.let_go(self._table.pop(oldest).image)
            self._gone -= 1
        return pending

    def take(self, message: Message, open_body: Callable[[], Any]) -> str:
        """Where *message* goes, decided under the one lock: ``"delivered"``
        to a naplet resident here, ``"parked"`` on its record for a landing
        still to come, or the URN of the server it departed for.
        *open_body* decodes the body; a forward relays it undecoded.

        A system message interrupts an admitted naplet; any other record
        holds it until the naplet's admission.
        """
        nid = message.target
        with self._lock:
            record = self._table.get(nid)
            if record is not None and record.state in (DEPARTING, DEPARTED):
                return record.departed_to
            open_body()
            if record is None:
                record = self._table[nid] = Resident(nid)
            if record.state is ADMITTED and isinstance(message, SystemMessage):
                self._interrupt(record, message.control, message.payload)
            else:
                record.keep(message)
            return "delivered" if record.state in _RESIDENT else "parked"

    def interrupt(self, nid: NapletID, control: str, payload: Any = None) -> bool:
        """Interrupt a naplet admitted here; False if none is."""
        with self._lock:
            record = self._table.get(nid)
            if record is None or record.state is not ADMITTED:
                return False
            self._interrupt(record, control, payload)
            return True

    def _interrupt(self, record: Resident, control: str, payload: Any) -> None:
        record.block.post_interrupt(control, payload)
        nid = str(record.naplet_id)
        self.server.journal.record("naplet-interrupt", naplet=nid, control=control)

    def add_channel(self, nid: NapletID, name: str, channel: "ServiceChannel") -> None:
        """Hold *channel* for a resident *nid* until it departs or retires."""
        with self._lock:
            record = self._resident(nid)
            if record is None:
                channel.close()
                raise NapletError(f"{nid} is not resident at {self.server.hostname}")
            record.channels = {**(record.channels or {}), name: channel}

    def _resident(self, nid: NapletID) -> Resident | None:
        record = self._table.get(nid)
        return record if record is not None and record.state in _RESIDENT else None

    def _resident_records(self) -> list[Resident]:
        with self._lock:
            return [r for r in self._table.values() if r.state in _RESIDENT]

    def resident(self, nid: NapletID) -> "Naplet | None":
        with self._lock:
            return getattr(self._resident(nid), "naplet", None)

    def is_resident(self, nid: NapletID) -> bool:
        return self.resident(nid) is not None

    def resident_ids(self) -> list[NapletID]:
        return [r.naplet_id for r in self._resident_records()]

    @property
    def resident_count(self) -> int:
        return len(self._resident_records())

    def resident_count_for_owner(self, owner: str) -> int:
        """Residents belonging to *owner* (for per-owner admission caps)."""
        return sum(1 for r in self._resident_records() if r.naplet_id.owner == owner)

    def mailbox_of(self, nid: NapletID) -> Mailbox | None:
        with self._lock:
            return getattr(self._resident(nid), "mailbox", None)

    def control_block(self, nid: NapletID) -> "_ControlBlock | None":
        with self._lock:
            return getattr(self._table.get(nid), "block", None)

    def channels_of(self, nid: NapletID) -> dict[str, "ServiceChannel"]:
        with self._lock:
            return dict(getattr(self._table.get(nid), "channels", None) or {})

    def channel_count(self) -> int:
        with self._lock:
            return sum(len(r.channels or ()) for r in self._table.values())

    def waiting(self, nid: NapletID | None = None) -> tuple[int, int]:
        """Messages waiting here for *nid*, or for every naplet:
        ``(queued for residents, parked for naplets not resident here)``."""
        with self._lock:
            records = self._table.values() if nid is None else [self._table.get(nid)]
            counts = [(r.state in _RESIDENT, r.waiting()) for r in records if r is not None]
        queued = sum(n for resident, n in counts if resident)
        return queued, sum(n for _, n in counts) - queued

    def usage_table(self) -> dict[NapletID, "ResourceUsage"]:
        """Consistent copies of every control block's usage, for the health
        plane's sampler.  CPU figures advance only at cooperative
        checkpoints, which lets the watchdog spot a wedged naplet."""
        with self._lock:
            blocks = [(nid, r.block) for nid, r in self._table.items() if r.block is not None]
        return {nid: block.usage_copy() for nid, block in blocks}

    def footprint(self, nid: NapletID) -> Resident | None:
        """The record of *nid*'s latest visit here, None if it never came."""
        with self._lock:
            record = self._table.get(nid)
            return record if record is not None and record.state is not EXPECTED else None

    def footprints(self) -> list[Resident]:
        with self._lock:
            return [r for r in self._table.values() if r.state is not EXPECTED]

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
