"""Navigator: launching and migration (paper §2.2, §4.1).

One migration path, one exchange per hop:

1. the source Navigator consults its NapletSecurityManager for **LAUNCH**
   permission, marks the naplet in transit (so messages arriving here are
   forwarded toward the destination, the standard chase guarantee) and
   serializes it (transient context dropped);
2. it sends one ``NAPLET_TRANSFER`` request: the credential as the frame
   payload (its signed fields and MAC, no pickle), the image as frame
   segments;
3. the destination Navigator recognises a retransmission by its source
   and transfer-id and re-acks it; otherwise it decodes the credential and
   runs the **LANDING** check (signature, security policy, then residency
   limits) *before* it unpickles any byte; a denial acks
   ``denied <reason>``;
4. on grant it deserializes, refuses an image that is not the naplet the
   credential names, installs that verified credential on the naplet's
   own id (the image carries none), sends the directory a one-way
   registration of this landing, records the arrival in the naplet table
   (where messages parked for it already wait), binds a fresh context,
   hands control to the NapletMonitor and acks ``ok``;
5. the ack releases all resources the naplet held at the source and sends
   what waited there for it after it; a source that hosts the naplet's
   directory books the landing there itself, and the destination sent
   nothing.

The paper's separate LANDING round trip is folded into the transfer
exchange, so a hop is one round trip.  Unlike §4.1, execution does not wait
for the directory to acknowledge the registration: until the registration
is handled (or for good, if its frame is lost) the directory names a server
the naplet left.  That is safe because every such server has marked the
departure locally and the post office (§4.2) forwards along the footprints
from there; the directory orders registrations by landing count, so a late
one never moves it backwards.

One recovery happens inside a hop: a destination that cannot compose a
delta envelope (a record, a blob or the code it leans on is gone) acks
``need_full <reason>`` and the source re-ships the full image once
(DESIGN.md §6.7).  Every other rejection — a refusal (a corrupt frame, a
peer shutting down, a landing check that broke), or an ack it cannot
read — rolls the departure back and raises
:class:`NapletMigrationError`, which ``config.migration_retry`` may retry;
a denial raises :class:`LandingDeniedError`, which it never does.

The per-naplet :class:`NavigatorOps` object implements the itinerary
driver's :class:`~repro.itinerary.itinerary.TravelOps` protocol — dispatch,
clone spawning, credential re-issue, and Par join signalling.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.context import NapletContext
from repro.core.credential import Credential
from repro.core.errors import (
    DeltaBaseMissingError,
    LandingDeniedError,
    LaunchDeniedError,
    NapletCommunicationError,
    NapletDeparted,
    NapletError,
    NapletMigrationError,
    NapletSecurityError,
    ShippedCodeMissingError,
)
from repro.core.naplet import Naplet
from repro.core.naplet_id import NapletID
from repro.server.messenger import NapletMessengerProxy
from repro.server.monitor import NapletOutcome, _ControlBlock
from repro.server.security import Permission
from repro.transport.base import (
    Frame,
    FrameKind,
    decode_credential,
    encode_credential,
    read_reply,
    refusal,
    reply,
    urn_of,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import NapletServer

__all__ = ["Navigator", "NavigatorOps"]

# The transfer acks: ``ok [code hashes…]``, ``denied <reason>`` or
# ``need_full <reason>``; any other answer is the one refusal.
_ACKS = ("ok", "denied", "need_full")

# Remembered (source, transfer-id) pairs per destination navigator: enough
# to absorb any realistic retry window, small enough to never matter.
_TRANSFER_DEDUP_CAPACITY = 4096

# Remembered (peer, field hash or naplet id) pairs — what each peer is known
# to hold.  A dropped entry only costs shipping a field the peer had.
_PEER_HELD_CAPACITY = 1024


def _image_nbytes(payload: bytes, buffers: tuple | list = ()) -> int:
    """Wire size of a naplet image: envelope plus out-of-band segments."""
    total = len(payload)
    for buf in buffers:
        total += buf.nbytes if isinstance(buf, memoryview) else len(buf)
    return total


class _HeldBy:
    """One peer's share of the held table: ``key in`` it, for a field
    content hash or the id of a naplet the peer has a record of."""

    def __init__(self, table: OrderedDict, peer_urn: str) -> None:
        self._table, self._peer = table, peer_urn

    def __contains__(self, key: str) -> bool:
        return (self._peer, key) in self._table


class Navigator:
    """Per-server migration endpoint."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        # Exactly-once landing: retransmitted transfers (the source never
        # saw our ack) are recognized by their source and transfer-id and
        # re-acked without landing a second copy of the naplet (kept: its id text).
        self._landed_transfers: OrderedDict[tuple[str, str], str] = OrderedDict()
        self._transfer_seq = itertools.count(1)
        # Delta-shipping hints (DESIGN.md §6.7), all advisory: what each
        # peer is known to hold — field hashes and naplet ids
        # of every image it acked or shipped here, an LRU that only ever
        # learns — and which module content hashes its code cache holds.
        # Stale or lost entries cost shipped bytes or one in-hop re-ship.
        self._peer_holds: OrderedDict[tuple[str, str], None] = OrderedDict()
        self._peer_code: dict[str, set[str]] = {}

    @property
    def migrations_in(self) -> int:
        """Landings at this server: a view over the journal's tally of
        ``landing`` spans, read by the frozen journey harness."""
        return self.server.journal.count("landing")

    # ------------------------------------------------------------------ #
    # Outbound
    # ------------------------------------------------------------------ #

    def launch(self, naplet: "Naplet") -> None:
        """Initial launch from the home manager (paper: 'similar to agent
        migration')."""
        ops = NavigatorOps(self, naplet)
        nid = naplet.naplet_id
        # Footprint at home so early messages seeded with the home URN can
        # chase the naplet by trace forwarding.
        self.server.manager.record_arrival(naplet, arrived_from=None)
        try:
            travelled = naplet.itinerary.launch_with(
                naplet, ops, lambda destination: self.transfer(naplet, urn_of(destination))
            )
        except NapletError:
            self.server.manager.record_retirement(nid, "launch-failed")
            raise
        if not travelled:
            # Degenerate journey: nothing admitted. Retire without travel.
            self.server.manager.record_retirement(nid, "completed")
            self.server.journal.record("naplet-degenerate-launch", naplet=str(nid))
            naplet.on_destroy()

    def dispatch(self, naplet: "Naplet", dest_urn: str) -> None:
        """Migrate a *resident* naplet; raises NapletDeparted on success."""
        dest_urn = urn_of(dest_urn)
        self.transfer(naplet, dest_urn)  # marks the departure; the ack releases its resources
        naplet._bind_context(None)
        raise NapletDeparted(dest_urn)

    def transfer(self, naplet: "Naplet", dest_urn: str) -> None:
        """Run the migration protocol toward *dest_urn*.

        The whole protocol is attempted under ``config.migration_retry``:
        each attempt marks the departure, ships, and rolls back cleanly on
        failure, so a retry starts from the same resident state.  All
        attempts share one transfer-id, a sequence number unique per
        source, letting the destination recognize a retransmission whose
        ack was lost and re-ack instead of landing a second copy.
        Deterministic denials (landing/launch refused) are never retried —
        the destination already said no.
        """
        telemetry = self.server.telemetry
        nid = naplet.naplet_id
        transfer_id = str(next(self._transfer_seq))
        # The landing count this hop gives the naplet, taken before any
        # attempt: a rolled-back attempt reopens the visit here, which
        # lengthens the log, and a count booked here must never run ahead.
        count = len(naplet.navigation_log) + 1
        # The visit this departure ends: a retry after an attempt that
        # landed (its ack lost) must not take a later visit's record.
        visit = self.server.manager.footprint(nid)

        def _attempt() -> None:
            with telemetry.naplet_span(
                naplet, "hop", source=self.server.hostname, dest=dest_urn
            ) as hop:
                self._transfer(naplet, dest_urn, hop, transfer_id, count, visit)
            telemetry.hop_latency.observe(hop.duration)

        def _on_retry(attempt: int, wait: float, exc: BaseException) -> None:
            self.server.journal.record(
                "migration-retry",
                naplet=str(nid),
                dest=dest_urn,
                attempt=attempt,
                wait=round(wait, 4),
                error=str(exc),
            )

        self.server.config.migration_retry.run(
            _attempt,
            retry_on=(NapletMigrationError,),
            give_up_on=(LandingDeniedError, LaunchDeniedError),
            on_retry=_on_retry,
        )

    def _transfer(
        self, naplet: "Naplet", dest_urn: str, hop, transfer_id: str, count: int, visit
    ) -> None:
        """One attempt: mark departure, dump against the visit's image, ship,
        and either book the ack or roll everything back and raise."""
        nid = naplet.naplet_id
        self.server.security.check(naplet.credential, Permission.LAUNCH)
        # In transit before the wire transfer: messages arriving here now
        # forward toward the destination.  The directory is not told (the
        # landing registers the new server); _rollback_departure undoes this.
        manager, serializer = self.server.manager, self.server.serializer
        record = manager.begin_departure(nid, dest_urn, visit)
        if naplet.navigation_log.current_server() == self.server.urn:
            naplet.navigation_log.record_departure(self.server.urn)
        prev, held, full = getattr(visit, "image", None), self.held_by(dest_urn), False
        known = self._peer_code.get(dest_urn)
        try:
            while True:
                data, buffers, cost, image = serializer.dumps_with_cost(
                    naplet, held=held, known_code=known, prev=prev
                )
                manager.keep_image(record, image)
                # What the peer holds once it acks (a re-ship is the same
                # image), booked before it can ack: the naplet may run there
                # and be back here before this thread sees the ack.  A
                # failed attempt takes back what it added.
                noted = self._note_held(dest_urn, str(nid), image)
                frame = self._transfer_frame(naplet, dest_urn, hop, transfer_id, data, buffers, cost)
                ack, fields = read_reply(self.server.transport.request(frame), "transfer", *_ACKS)
                if ack != "need_full" or full:
                    break
                # The one in-hop recovery: the peer lost a record, a blob
                # or the code this envelope leaned on.  Forget what we
                # thought it held and ship everything, once.
                for key in list(self._peer_holds):
                    if key[0] == dest_urn:
                        self._peer_holds.pop(key, None)
                self.server.journal.record(
                    "delta-full-reship", naplet=str(nid), dest=dest_urn,
                    reason=" ".join(fields),
                )
                prev, held, known, full = image, (), None, True
        except NapletCommunicationError as exc:
            # A refusal (corrupt frame, peer shutting down, a landing check
            # that broke) says nothing lasting about the peer: retriable.
            self._rollback_departure(naplet, nid, record, noted)
            raise NapletMigrationError(f"transfer to {dest_urn} failed: {exc}") from exc
        if ack == "ok":
            self._transfer_acked(nid, dest_urn, cost, fields, count, record)
            return
        self._rollback_departure(naplet, nid, record, noted)
        reason = " ".join(fields)
        if ack == "denied":
            self.server.journal.record(
                "landing-denied", naplet=str(nid), dest=dest_urn, reason=reason
            )
            raise LandingDeniedError(f"{dest_urn} denied landing for {nid}: {reason}")
        raise NapletMigrationError(f"{dest_urn} asked again for the full image of {nid}: {reason}")

    def _rollback_departure(self, naplet: "Naplet", nid: NapletID, record, noted: list) -> None:
        for key in noted:  # the peer does not hold what it never acked
            self._peer_holds.pop(key, None)
        self.server.manager.abort_departure(nid, record)
        if naplet.navigation_log.servers_visited() and not naplet.navigation_log.current_server():
            naplet.navigation_log.record_arrival(self.server.urn)

    def _transfer_frame(
        self, naplet: "Naplet", dest_urn: str, hop,
        transfer_id: str, data: bytes, buffers: list, cost,
    ) -> Frame:
        """Build the transfer frame around a dumped image.

        The credential alone is the payload, so the destination decides
        admission before it touches the image; the image rides as frame
        segments — envelope first, then its out-of-band field buffers,
        none of them re-copied by the TCP wire.
        """
        hop.set("serialize_s", cost.seconds)
        segments = (data, *buffers)
        payload = encode_credential(naplet.credential)
        image_bytes = _image_nbytes(payload, segments)
        hop.set("bytes", image_bytes)
        headers = {"transfer-id": transfer_id}
        # The hop span's record is written at the stamp this frame carries:
        # the receiver's clock update places every landing record causally
        # after it, however late the source closes the span.  (A re-ship
        # mints a fresh stamp, still before the landing.)
        hlc = self.server.journal.header_stamp()
        if hlc is not None:
            headers["hlc"] = hlc
            hop.stamp(hlc)
        if hop.span_id and naplet.trace_context is not None:
            # The landing span at the destination nests under this hop (the
            # trace id itself rides in the image).
            headers["trace-parent"] = hop.span_id
        frame = Frame(
            kind=FrameKind.NAPLET_TRANSFER,
            source=self.server.urn,
            dest=dest_urn,
            payload=payload,
            headers=headers,
            buffers=segments,
        )
        # Hop-cost attribution (perf plane): split this hop's wire size
        # into payload vs. header vs. shipped code, on the histogram and
        # on the hop span, which is the hop's cost record (``naplet hops``
        # and the journey's bytes column read it).  Delta hops also record
        # what stayed *off* the wire (part "saved").
        telemetry = self.server.telemetry
        header_bytes = frame.size - image_bytes
        telemetry.hop_bytes.observe(image_bytes, part="payload")
        telemetry.hop_bytes.observe(header_bytes, part="header")
        hop.set("header_bytes", header_bytes)
        if cost.code_bytes:
            telemetry.hop_bytes.observe(cost.code_bytes, part="code")
            hop.set("code_bytes", cost.code_bytes)
        if cost.delta:
            hop.set("delta", True)
            if cost.saved_bytes:
                telemetry.hop_bytes.observe(cost.saved_bytes, part="saved")
                hop.set("saved_bytes", cost.saved_bytes)
        return frame

    # -- delta-shipping hints (DESIGN.md §6.7) ----------------------------- #

    def held_by(self, peer_urn: str) -> _HeldBy:
        """What *peer_urn* is known to hold, for ``dumps_with_cost(held=)``."""
        return _HeldBy(self._peer_holds, urn_of(peer_urn))

    def _note_held(self, peer_urn: str, nid: str, image) -> list:
        """Remember that *peer_urn* holds *image* — a per-field image shipped
        to, or landed from, that peer (a single pickle has none): an image
        of naplet *nid*, and every field hash in it.  Returns the entries
        that are new."""
        if image is None:
            return []
        table = self._peer_holds
        keys = [(peer_urn, key) for key in (nid, *(blob.hash for blob in image.blobs))]
        added = [key for key in keys if key not in table]
        for key in keys:  # re-inserted last: the most recently learnt
            table.pop(key, None)
            table[key] = None
        while len(table) > _PEER_HELD_CAPACITY:
            table.popitem(last=False)
        return added

    def _transfer_acked(
        self, nid: NapletID, dest_urn: str, cost, code: list[str], count: int, record
    ) -> None:
        """Source-side bookkeeping once *dest_urn* acked the landing."""
        directory = self.server.directory_client
        if directory.hosts(nid):
            # The destination sent no registration (report_migration): a
            # hop from the directory's own server is booked here, on the ack.
            directory.report_arrival(nid, dest_urn, count)
        telemetry = self.server.telemetry
        if cost.delta:
            telemetry.delta_hops.inc()
            if cost.saved_bytes:
                telemetry.delta_saved_bytes.inc(cost.saved_bytes)
        if code:  # the modules cached there, when a per-field landing said
            self._peer_code[dest_urn] = set(code)
        # Its record keeps only the footprint and the image's manifest (the
        # live values left with the naplet), and the messages waiting on
        # it chase the naplet.  Every departure (launch, dispatch, spawn)
        # passes here, so none leaves a message behind.
        self.server.messenger.chase(self.server.manager.end_departure(nid, record), dest_urn)

    # ------------------------------------------------------------------ #
    # Inbound (frame handler)
    # ------------------------------------------------------------------ #

    def _landing_denial(self, credential: Credential) -> str | None:
        """Reason to refuse this landing, or None when it is admissible.

        Only a verdict is a denial: a check that *breaks* propagates, and
        :meth:`handle_transfer` acks it as a plain, retriable rejection.
        """
        try:
            self.server.security.check(credential, Permission.LANDING)
        except NapletSecurityError as exc:
            return str(exc)
        limit = self.server.config.max_residents
        if limit is not None and self.server.manager.resident_count >= limit:
            return f"server full ({limit} residents)"
        owner_limit = self.server.config.max_residents_per_owner
        if owner_limit is not None:
            owner = credential.naplet_id.owner
            if self.server.manager.resident_count_for_owner(owner) >= owner_limit:
                return f"owner {owner!r} at capacity ({owner_limit})"
        return None

    def _duplicate_transfer_ack(self, frame: Frame) -> bytes | None:
        """Ack a retransmitted transfer without landing a second copy.

        A retry whose previous attempt landed but whose ack was lost (the
        two-generals window) arrives with a transfer-id we have already
        landed from that source.  Re-acking makes the retransmit idempotent.
        """
        transfer_id = frame.headers.get("transfer-id")
        if not transfer_id:
            return None
        nid = self._landed_transfers.get((frame.source, transfer_id))
        if nid is None:
            return None
        self.server.journal.record(
            "duplicate-transfer",
            naplet=nid,
            transfer_id=transfer_id,
            source=frame.source,
        )
        return reply("ok")

    def _remember_transfer(self, frame: Frame, nid: NapletID) -> None:
        transfer_id = frame.headers.get("transfer-id")
        if not transfer_id:
            return
        self._landed_transfers[frame.source, transfer_id] = str(nid)
        while len(self._landed_transfers) > _TRANSFER_DEDUP_CAPACITY:
            self._landed_transfers.popitem(last=False)

    def handle_transfer(self, frame: Frame) -> bytes:
        """Dedup, landing check, deserialize, land, ack — one exchange.

        The credential is the frame payload, decoded without unpickling,
        and the image its segments, so admission is decided *before* any
        byte is unpickled; the naplet that lands is the one that credential
        names, carrying it.
        """
        duplicate = self._duplicate_transfer_ack(frame)
        if duplicate is not None:
            return duplicate
        if not frame.buffers:
            return refusal("bad transfer frame: no image segment")
        try:
            credential = decode_credential(frame.payload)
        except NapletCommunicationError as exc:
            return refusal(f"bad transfer frame: {exc}")
        try:
            reason = self._landing_denial(credential)
        except Exception as exc:
            # The check itself broke (a policy rule raised): not a verdict
            # on the naplet, so not "denied" — the source rolls back and
            # its retry policy decides.
            self.server.journal.record(
                "landing-check-error",
                naplet=str(credential.naplet_id),
                source=frame.source,
                error=f"{type(exc).__name__}: {exc}",
            )
            return refusal(f"landing check failed: {type(exc).__name__}: {exc}")
        if reason is not None:
            self.server.telemetry.landings_denied.inc()
            return reply("denied", reason)
        image, oob = frame.buffers[0], tuple(frame.buffers[1:])
        footprint = self.server.manager.footprint(credential.naplet_id)
        deserialize_started = time.perf_counter()
        try:
            naplet, info = self.server.serializer.loads_with_info(
                image, self.server.code_cache, buffers=oob or None,
                prev=getattr(footprint, "image", None),
            )
        except (DeltaBaseMissingError, ShippedCodeMissingError) as exc:
            # Recoverable by protocol: the sender forgets what this peer
            # held and re-ships the full image within the same attempt.
            self.server.journal.record(
                "delta-need-full",
                naplet=str(credential.naplet_id),
                source=frame.source,
                reason=str(exc),
            )
            return reply("need_full", str(exc))
        except Exception as exc:
            return refusal(f"deserialization failed: {exc}")
        if not isinstance(naplet, Naplet) or naplet._nid != credential.naplet_id:
            # Admission was decided on the credential: an image of any other
            # naplet must not land under it, nor be kept to lean on.
            self.server.journal.record(
                "landing-identity-mismatch",
                naplet=str(credential.naplet_id),
                image=str(getattr(naplet, "_nid", None)),
                source=frame.source,
            )
            return refusal("image is not the naplet its credential names")
        naplet._cred = dataclasses.replace(credential, naplet_id=naplet._nid)
        # A per-field image is kept here, and its sender keeps what it just
        # shipped: a hop toward it can lean on that at once.  Noted *before*
        # the naplet is handed to the monitor — it may dump for its next hop
        # on another thread immediately.  The ack advertises the modules
        # cached here, so eager senders skip re-shipping bundles.
        ack = reply("ok")
        landed = info["image"]
        if landed is not None:
            self._note_held(frame.source, info["nid"], landed)
            ack = reply("ok", *self.server.code_cache.known_hashes())
        self.receive(
            naplet,
            arrived_from=sys.intern(frame.source),  # one string per peer in the ring
            payload_bytes=_image_nbytes(image, oob),
            trace_parent=frame.headers.get("trace-parent"),
            deserialize_s=time.perf_counter() - deserialize_started,
            image=landed,
        )
        # Remember only after the landing succeeded: a failed landing must
        # NOT dedup the retry that follows it.
        self._remember_transfer(frame, naplet.naplet_id)
        return ack

    def receive(
        self,
        naplet: "Naplet",
        arrived_from: str | None,
        payload_bytes: int = 0,
        trace_parent: str | None = None,
        deserialize_s: float | None = None,
        image=None,
    ) -> None:
        """Land *naplet* at this server: register, bind, and start it.

        Shared by the wire transfer path (``arrived_from`` is the source,
        *image* the landed per-field image its record keeps) and local
        revival (thaw, no source).  ``trace_parent`` is the source hop's
        span id (from the transfer frame headers), so the landing span
        nests under the hop in the journey tree; without one (thaw) it
        parents to the journey root.
        """
        nid = naplet.naplet_id
        telemetry = self.server.telemetry
        # A stamp carried inside the pickle covers paths with no frame
        # headers (thaw of a persisted image); the wire path already
        # advanced the clock from the transfer frame's header.
        stamp = naplet.hlc_stamp
        if stamp is not None:
            self.server.journal.receive(stamp)
        # Register the landing, one-way: the naplet starts without waiting
        # for the directory.  Sent before anything here changes, so an
        # unreachable authority refuses the landing cleanly — and before
        # the landing span opens, so a refused landing leaves no landing
        # record (the source's hop span ends in error).
        self.server.directory_client.report_migration(
            nid, arrived_from, self.server.urn, len(naplet.navigation_log) + 1
        )
        landing_attrs = {"arrived_from": arrived_from, "bytes": payload_bytes}
        if deserialize_s is not None:
            landing_attrs["deserialize_s"] = deserialize_s
        with telemetry.naplet_span(
            naplet,
            "landing",
            parent_id=trace_parent,
            **landing_attrs,
        ):
            self.server.manager.record_arrival(naplet, arrived_from, image)
            naplet.navigation_log.record_arrival(self.server.urn)
            self.server.locator.note_location(nid, self.server.urn)
        telemetry.itinerary_depth.observe(len(naplet.navigation_log))
        self._start_naplet(naplet)

    def _start_naplet(self, naplet: "Naplet") -> None:
        """Bind a fresh context and hand control to the NapletMonitor."""
        server = self.server

        def prepare(block: _ControlBlock) -> None:
            context = NapletContext(
                server_urn=server.urn,
                hostname=server.hostname,
                dispatcher=NavigatorOps(self, naplet),
                messenger=NapletMessengerProxy(server.messenger, naplet),
                services=server.resource_manager.proxy_for(naplet),
                monitor_hook=block,
                extras={"tracer": server.telemetry.tracer},
            )
            naplet._bind_context(context)
            server.manager.record_admission(naplet.naplet_id, block)

        def run_body() -> None:
            naplet.on_start()

        def on_retire(
            agent: "Naplet", outcome: str, error: BaseException | None
        ) -> None:
            nid = agent.naplet_id
            if outcome == NapletOutcome.DEPARTED:
                return  # dispatch() already released everything
            server.manager.record_retirement(nid, outcome)
            if agent.navigation_log.current_server() == server.urn:
                agent.navigation_log.record_departure(server.urn)
            agent._bind_context(None)
            server.journal.record(
                "naplet-retired",
                naplet=str(nid),
                outcome=outcome,
                error=repr(error) if error else None,
            )

        quota = server.quota_for(naplet)
        server.monitor.admit(
            naplet, run_body, on_retire, quota=quota, prepare=prepare
        )


class NavigatorOps:
    """TravelOps implementation bound to one naplet at this server."""

    def __init__(self, navigator: Navigator, naplet: "Naplet") -> None:
        self._navigator = navigator
        self._naplet = naplet

    @property
    def origin_urn(self) -> str:
        return self._navigator.server.urn

    @property
    def journal(self):
        """Server journal, duck-typed for the itinerary driver's
        failover notes (a test double without one simply records nothing)."""
        return self._navigator.server.journal

    def order_alt_branches(self, naplet: "Naplet", pattern) -> tuple[int, ...] | None:
        """Load-ranked Alt branch order from the server's health plane.

        Duck-typed by the itinerary driver like ``journal``; returns
        None (static declaration order) whenever the plane is dormant or
        its space view cannot vouch fresh digests for every admitting
        candidate.
        """
        return self._navigator.server.health.order_branches(naplet, pattern, kind="alt")

    def order_par_branches(self, naplet: "Naplet", pattern) -> tuple[int, ...] | None:
        """Load-ranked Par spawn order, same ladder as the Alt hook."""
        return self._navigator.server.health.order_branches(naplet, pattern, kind="par")

    def dispatch(self, naplet: "Naplet", destination: str) -> None:
        self._navigator.dispatch(naplet, urn_of(destination))

    def spawn(self, parent: "Naplet", clone: "Naplet", destination: str) -> None:
        server = self._navigator.server
        server.security.check(parent.credential, Permission.CLONE)
        # Leave a trace at the fork origin so messages seeded with this
        # server's URN can chase the clone; transfer() marks the departure
        # (and rolls it back if the spawn fails, when the clone retires here).
        server.manager.record_arrival(clone, arrived_from=None)
        try:
            self._navigator.transfer(clone, urn_of(destination))
        except NapletError:
            server.manager.record_retirement(clone.naplet_id, "spawn-failed")
            raise
        server.journal.record(
            "clone-spawned",
            parent=str(parent.naplet_id),
            clone=str(clone.naplet_id),
            dest=destination,
        )

    def issue_clone_credential(self, clone: "Naplet") -> None:
        server = self._navigator.server
        credential = server.authority.issue(
            clone.naplet_id, clone.codebase, clone.inherited_attributes
        )
        clone._cred = credential

    def await_join(
        self, naplet: "Naplet", tokens: set[str], timeout: float | None
    ) -> None:
        proxy = NapletMessengerProxy(self._navigator.server.messenger, naplet)
        proxy.await_join_tokens(tokens, timeout)

    def notify_join(self, naplet: "Naplet", target: NapletID, token: str) -> None:
        proxy = NapletMessengerProxy(self._navigator.server.messenger, naplet)
        proxy.post_join_notice(target, token)
