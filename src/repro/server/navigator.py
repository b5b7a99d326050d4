"""Navigator: launching and migration (paper §2.2, §4.1).

One migration path, one exchange per hop:

1. the source Navigator consults its NapletSecurityManager for **LAUNCH**
   permission, marks the naplet in transit (so messages arriving here are
   forwarded toward the destination, the standard chase guarantee) and
   serializes it (transient context dropped);
2. it sends one ``NAPLET_TRANSFER`` request: the credential as the frame
   payload, the image as frame segments;
3. the destination Navigator recognises a retransmission by its
   transfer-id and re-acks it; otherwise it runs the **LANDING** check
   (security manager, then residency limits) on the credential *before* it
   deserializes any image byte; a refusal acks ``{"denied": True}``;
4. on grant it deserializes, refuses an image that is not the naplet the
   credential names, installs that verified credential (the image carries
   none), registers depart+arrival with the directory
   in one event on the source's behalf and *postpones execution until the
   registration is acknowledged*, then records the arrival with its
   NapletManager, creates the mailbox (draining the special mailbox),
   binds a fresh context, hands control to the NapletMonitor and acks;
5. the ack releases all resources the naplet held at the source.

The paper's separate LANDING round trip is folded into the transfer
exchange; the order of its steps is not changed.  During the single
in-flight window the directory still shows the naplet at the source, which
is safe because the source has already marked the departure locally.

One recovery happens inside a hop: a destination that cannot compose a
delta envelope (a record, a blob or the code it leans on is gone) acks
``need_full`` and the source re-ships the full image once (DESIGN.md §6.7).
Every other rejection — a corrupt frame, a peer shutting down, a landing
check that broke — rolls the departure back and raises
:class:`NapletMigrationError`, which ``config.migration_retry`` may retry;
a denial raises :class:`LandingDeniedError`, which it never does.

The per-naplet :class:`NavigatorOps` object implements the itinerary
driver's :class:`~repro.itinerary.itinerary.TravelOps` protocol — dispatch,
clone spawning, credential re-issue, and Par join signalling.
"""

from __future__ import annotations

import itertools
import pickle
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
    NapletMigrationError,
    NapletSecurityError,
    ShippedCodeMissingError,
)
from repro.core.naplet import Naplet
from repro.core.naplet_id import NapletID
from repro.server.messenger import NapletMessengerProxy
from repro.server.monitor import NapletOutcome, _ControlBlock
from repro.server.security import Permission
from repro.transport.base import Frame, FrameKind, urn_of
from repro.util.hlc import HLCStamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import NapletServer

__all__ = ["Navigator", "NavigatorOps"]

# Hot control reply, serialized once instead of per-exchange.
_ACK_OK = pickle.dumps({"ok": True})

# Remembered transfer-ids per destination navigator: enough to absorb any
# realistic retry window, small enough to never matter for memory.
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


def _rejection(reason: str) -> bytes:
    """Negative transfer ack that is neither a denial nor ``need_full``."""
    return pickle.dumps({"ok": False, "reason": reason})


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
        self.migrations_out = 0
        self.migrations_in = 0
        # Exactly-once landing: retransmitted transfers (the source never
        # saw our ack) are recognized by their transfer-id and re-acked
        # without landing a second copy of the naplet.
        self._landed_transfers: OrderedDict[str, NapletID] = OrderedDict()
        self._transfer_seq = itertools.count(1)
        # Delta-shipping hints (DESIGN.md §6.7), all advisory: what each
        # peer's delta cache is known to hold — field hashes and naplet ids
        # of every image it acked or shipped here, an LRU that only ever
        # learns — and which module content hashes its code cache holds.
        # Stale or lost entries cost shipped bytes or one in-hop re-ship.
        self._peer_holds: OrderedDict[tuple[str, str], None] = OrderedDict()
        self._peer_code: dict[str, set[str]] = {}

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
        sent = {"dest": None}

        def _transfer(destination: str) -> None:
            self.transfer(naplet, urn_of(destination))
            sent["dest"] = urn_of(destination)

        try:
            travelled = naplet.itinerary.launch_with(naplet, ops, _transfer)
        except NapletMigrationError:
            self.server.manager.record_retirement(nid, "launch-failed")
            raise
        if not travelled:
            # Degenerate journey: nothing admitted. Retire without travel.
            self.server.manager.record_retirement(nid, "completed")
            self.server.journal.record("naplet-degenerate-launch", naplet=str(nid))
            naplet.on_destroy()
            return
        self.server.messenger.remove_mailbox(nid, forward_to=sent["dest"])
        self.migrations_out += 1

    def dispatch(self, naplet: "Naplet", dest_urn: str) -> None:
        """Migrate a *resident* naplet; raises NapletDeparted on success."""
        dest_urn = urn_of(dest_urn)
        nid = naplet.naplet_id
        self.transfer(naplet, dest_urn)  # marks the departure itself
        # Success: release everything the naplet held here (paper §2.2).
        self.server.resource_manager.release(nid)
        self.server.messenger.remove_mailbox(nid, forward_to=dest_urn)
        naplet._bind_context(None)
        self.migrations_out += 1
        raise NapletDeparted(dest_urn)

    def transfer(self, naplet: "Naplet", dest_urn: str) -> None:
        """Run the migration protocol toward *dest_urn*.

        The whole protocol is attempted under ``config.migration_retry``:
        each attempt marks the departure, ships, and rolls back cleanly on
        failure, so a retry starts from the same resident state.  All
        attempts share one transfer-id, letting the destination recognize
        a retransmission whose ack was lost and re-ack instead of landing
        a second copy.  Deterministic denials (landing/launch refused) are
        never retried — the destination already said no.
        """
        telemetry = self.server.telemetry
        nid = naplet.naplet_id
        transfer_id = f"{self.server.urn}#{next(self._transfer_seq)}"

        def _attempt() -> None:
            with telemetry.naplet_span(
                naplet, "hop", source=self.server.hostname, dest=dest_urn
            ) as hop:
                self._transfer(naplet, dest_urn, hop, transfer_id)
            telemetry.hops.inc()
            telemetry.hop_latency.observe(hop.duration)

        def _on_retry(attempt: int, wait: float, exc: BaseException) -> None:
            telemetry.migration_retries.inc()
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
        self, naplet: "Naplet", dest_urn: str, hop, transfer_id: str
    ) -> None:
        """One attempt: mark departure, dump, ship, and either book the
        ack or roll everything back and raise."""
        nid = naplet.naplet_id
        self.server.security.check(naplet.credential, Permission.LAUNCH)
        resident_record = self._mark_departure(naplet, nid, dest_urn)
        data, buffers, cost = dumped = self.server.serializer.dumps_with_cost(
            naplet, held=self.held_by(dest_urn), known_code=self._peer_code.get(dest_urn)
        )
        # What the peer holds once it acks (a re-ship is the same image),
        # booked before it can ack: the naplet may run there and be back
        # here before this thread sees the ack.  A failed attempt takes
        # back what it added.
        image = self.server.serializer.delta_cache.peek(str(nid))
        noted = self._note_held(dest_urn, str(nid), image)
        # Journal the departure *before* the frame's HLC header is minted:
        # the merged timeline must show this record ahead of the landing.
        # (A re-ship mints a fresh header, still after this record.)
        self.server.journal.record(
            "naplet-depart", naplet=str(nid), dest=dest_urn,
            bytes=_image_nbytes(data, buffers), delta=bool(cost.delta),
        )
        try:
            frame = self._transfer_frame(naplet, dest_urn, hop, transfer_id, *dumped)
            ack = pickle.loads(self.server.transport.request(frame))
            if ack.get("need_full"):
                # The one in-hop recovery: the peer lost a record, a blob
                # or the code this envelope leaned on.  Forget what we
                # thought it held and ship everything, once.
                for key in list(self._peer_holds):
                    if key[0] == dest_urn:
                        self._peer_holds.pop(key, None)
                self.server.telemetry.delta_full_reships.inc()
                self.server.journal.record(
                    "delta-full-reship", naplet=str(nid), dest=dest_urn,
                    reason=ack.get("reason"),
                )
                *_, cost = dumped = self.server.serializer.dumps_with_cost(naplet)
                noted = self._note_held(dest_urn, str(nid), image)
                frame = self._transfer_frame(naplet, dest_urn, hop, transfer_id, *dumped)
                ack = pickle.loads(self.server.transport.request(frame))
        except NapletCommunicationError as exc:
            self._rollback_departure(naplet, nid, resident_record, noted)
            raise NapletMigrationError(f"transfer to {dest_urn} failed: {exc}") from exc
        if ack.get("ok") is True:
            self._transfer_acked(naplet, nid, dest_urn, frame, cost, ack, image)
            return
        self._rollback_departure(naplet, nid, resident_record, noted)
        if ack.get("denied"):
            self.server.journal.record(
                "landing-denied", naplet=str(nid), dest=dest_urn, reason=ack.get("reason")
            )
            raise LandingDeniedError(
                f"{dest_urn} denied landing for {nid}: {ack.get('reason', 'unknown')}"
            )
        # Anything else (corrupt frame, peer shutting down, a landing check
        # that broke) says nothing lasting about the peer: retriable.
        raise NapletMigrationError(
            f"{dest_urn} rejected the transfer of {nid}: {ack.get('reason')}"
        )

    def _mark_departure(self, naplet: "Naplet", nid: NapletID, dest_urn: str):
        """Mark the naplet in transit *before* the wire transfer.

        Messages arriving here during the transfer must be forwarded toward
        the destination, not deposited in a mailbox the naplet will never
        read.  The directory is not told: the destination registers depart
        and arrival in one event when it lands the naplet, and until then
        the directory still (rightly) routes to this server, which forwards.
        Everything here is undone by :meth:`_rollback_departure` on failure.
        """
        resident_record = self.server.manager.begin_departure(nid, dest_urn)
        if naplet.navigation_log.current_server() == self.server.urn:
            naplet.navigation_log.record_departure(self.server.urn)
        return resident_record

    def _rollback_departure(
        self, naplet: "Naplet", nid: NapletID, resident_record, noted: list
    ) -> None:
        for key in noted:  # the peer does not hold what it never acked
            self._peer_holds.pop(key, None)
        self.server.manager.abort_departure(nid, resident_record)
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
        payload = pickle.dumps(naplet.credential)
        image_bytes = _image_nbytes(payload, segments)
        hop.set("bytes", image_bytes)
        self.server.telemetry.frame_bytes.inc(image_bytes, kind="naplet-transfer")
        headers = {"transfer-id": transfer_id}
        # The HLC stamp is minted *after* the depart event was journaled,
        # so the receiver's clock update places every landing record
        # causally after it.
        hlc = self.server.journal.header_stamp()
        if hlc is not None:
            headers["hlc"] = hlc
        if hop.span_id:
            # The landing span at the destination nests under this hop.
            ctx = naplet.trace_context
            if ctx is not None:
                headers["trace-id"] = ctx.trace_id
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
        # on the hop span (the journey's bytes column reads the span).
        # Delta hops also record what stayed *off* the wire (part "saved").
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

    def _journal_hop_cost(
        self, nid: NapletID, naplet: "Naplet", dest_urn: str, frame: Frame, cost
    ) -> None:
        """Flight-record this hop's cost split (category ``perf``).

        Written only after the destination acked the transfer, so every
        record describes a migration that actually happened; harvested
        journals feed ``napletperf hops`` and the per-hop cost tables.
        By then the naplet is running at the destination and may have
        left it again, so the record carries the HLC that rode the acked
        frame: it sorts after this hop's depart event and before the
        landing, however late this thread gets to write it.
        """
        journal = self.server.journal
        if not journal.enabled:
            return
        ctx = naplet.trace_context
        image_bytes = _image_nbytes(frame.payload, frame.buffers)
        journal.append(
            kind="hop-cost",
            category="perf",
            naplet=str(nid),
            trace_id=ctx.trace_id if ctx is not None else None,
            hlc=HLCStamp.decode(frame.headers["hlc"]),
            detail={
                "source": self.server.hostname,
                "dest": dest_urn,
                "serialize_s": round(cost.seconds, 9),
                "payload_bytes": image_bytes,
                "header_bytes": frame.size - image_bytes,
                "code_bytes": cost.code_bytes,
                "total_bytes": frame.size,
                "delta": bool(cost.delta),
                "saved_bytes": cost.saved_bytes,
            },
        )

    # -- delta-shipping hints (DESIGN.md §6.7) ----------------------------- #

    def held_by(self, peer_urn: str) -> _HeldBy:
        """What *peer_urn* is known to hold, for ``dumps_with_cost(held=)``."""
        return _HeldBy(self._peer_holds, urn_of(peer_urn))

    def _note_held(self, peer_urn: str, nid: str, image) -> list:
        """Remember that *peer_urn* holds *image* — this server's delta-cache
        record of a per-field image shipped to, or landed from, that peer
        (a single pickle left none): a record of naplet *nid*, and every
        field hash in it.  Returns the entries that are new."""
        if image is None:
            return []
        table = self._peer_holds
        keys = [(peer_urn, key) for key in (nid, *(e.hash for e in image.fields.values()))]
        added = [key for key in keys if key not in table]
        for key in keys:  # re-inserted last: the most recently learnt
            table.pop(key, None)
            table[key] = None
        while len(table) > _PEER_HELD_CAPACITY:
            table.popitem(last=False)
        return added

    def _transfer_acked(
        self, naplet: "Naplet", nid: NapletID, dest_urn: str, frame: Frame,
        cost, ack: dict, image,
    ) -> None:
        """Source-side bookkeeping once *dest_urn* acked the landing."""
        telemetry = self.server.telemetry
        if cost.delta:
            telemetry.delta_hops.inc()
            if cost.saved_bytes:
                telemetry.delta_saved_bytes.inc(cost.saved_bytes)
        code = ack.get("code")
        if isinstance(code, list):
            self._peer_code[dest_urn] = set(code)
        self._journal_hop_cost(nid, naplet, dest_urn, frame, cost)
        # Messages that were parked here waiting for this naplet chase it.
        self.server.messenger.forward_parked(nid, dest_urn)
        # The image stays cached here without the live objects it was
        # pickled from: they left with the naplet.
        if image is not None:
            self.server.serializer.delta_cache.release(str(nid), image.hash)

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
        landed.  Re-acking makes the retransmit idempotent; if the naplet
        still lives here we also re-report the arrival, repairing any
        directory record the source's rollback overwrote.
        """
        transfer_id = frame.headers.get("transfer-id")
        if not transfer_id:
            return None
        nid = self._landed_transfers.get(transfer_id)
        if nid is None:
            return None
        self.server.telemetry.duplicate_transfers.inc()
        self.server.journal.record(
            "duplicate-transfer",
            naplet=str(nid),
            transfer_id=transfer_id,
            source=frame.source,
        )
        if self.server.manager.is_resident(nid):
            self.server.directory_client.report_arrival(nid, self.server.urn)
        return _ACK_OK

    def _remember_transfer(self, frame: Frame, nid: NapletID) -> None:
        transfer_id = frame.headers.get("transfer-id")
        if not transfer_id:
            return
        self._landed_transfers[transfer_id] = nid
        while len(self._landed_transfers) > _TRANSFER_DEDUP_CAPACITY:
            self._landed_transfers.popitem(last=False)

    def handle_transfer(self, frame: Frame) -> bytes:
        """Dedup, landing check, deserialize, land, ack — one exchange.

        The credential is the frame payload and the image its segments,
        so admission is decided *before* any image byte is unpickled; the
        naplet that lands is the one that credential names, carrying it.
        """
        duplicate = self._duplicate_transfer_ack(frame)
        if duplicate is not None:
            return duplicate
        if not frame.buffers:
            return _rejection("bad transfer frame: no image segment")
        try:
            credential = pickle.loads(frame.payload)
        except Exception as exc:
            return _rejection(f"bad transfer frame: {exc}")
        try:
            reason = self._landing_denial(credential)
        except Exception as exc:
            # The check itself broke (a policy rule raised): not a verdict
            # on the naplet, so not "denied" — the source rolls back and
            # its retry policy decides.
            self.server.journal.record(
                "landing-check-error",
                naplet=str(getattr(credential, "naplet_id", None)),
                source=frame.source,
                error=f"{type(exc).__name__}: {exc}",
            )
            return _rejection(f"landing check failed: {type(exc).__name__}: {exc}")
        if reason is not None:
            self.server.telemetry.landings_denied.inc()
            return pickle.dumps({"ok": False, "denied": True, "reason": reason})
        self.server.journal.record(
            "landing-granted", naplet=str(credential.naplet_id), source=frame.source
        )
        image, oob = frame.buffers[0], tuple(frame.buffers[1:])
        deserialize_started = time.perf_counter()
        try:
            naplet, info = self.server.serializer.loads_with_info(
                image, self.server.code_cache, buffers=oob or None
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
            return pickle.dumps({"ok": False, "need_full": True, "reason": str(exc)})
        except Exception as exc:
            return _rejection(f"deserialization failed: {exc}")
        if not isinstance(naplet, Naplet) or naplet._nid != credential.naplet_id:
            # Admission was decided on the credential: an image of any other
            # naplet must not land under it, nor leave a record to lean on.
            if isinstance(info.get("hash"), str):
                self.server.serializer.delta_cache.drop(info["nid"])
            self.server.journal.record(
                "landing-identity-mismatch",
                naplet=str(credential.naplet_id),
                image=str(getattr(naplet, "_nid", None)),
                source=frame.source,
            )
            return _rejection("image is not the naplet its credential names")
        naplet._cred = credential
        # A per-field image left a record here, and its sender keeps what it
        # just shipped: a hop toward it can lean on that at once.  Noted
        # *before* the naplet is handed to the monitor — it may dump for its
        # next hop on another thread immediately.  The ack advertises the
        # modules cached here, so eager senders skip re-shipping bundles.
        ack = _ACK_OK
        if isinstance(info.get("hash"), str):
            record = self.server.serializer.delta_cache.peek(info["nid"])
            self._note_held(frame.source, info["nid"], record)
            ack = pickle.dumps({"ok": True, "code": self.server.code_cache.known_hashes()})
        self.receive(
            naplet,
            arrived_from=frame.source,
            payload_bytes=_image_nbytes(image, oob),
            trace_parent=frame.headers.get("trace-parent"),
            departed_from=frame.source,
            deserialize_s=time.perf_counter() - deserialize_started,
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
        departed_from: str | None = None,
        deserialize_s: float | None = None,
    ) -> None:
        """Land *naplet* at this server: register, bind, and start it.

        Shared by the wire transfer path and local revival (thaw).
        ``trace_parent`` is the source hop's span id (from the transfer
        frame headers), so the landing span nests under the hop in the
        journey tree; without one (thaw) it parents to the journey root.
        ``departed_from`` is the source of a wire transfer: this server
        reports the combined depart+arrival in one directory exchange on
        the source's behalf (a thaw has no source and reports an arrival).
        """
        nid = naplet.naplet_id
        telemetry = self.server.telemetry
        # A stamp carried inside the pickle covers paths with no frame
        # headers (thaw of a persisted image); the wire path already
        # advanced the clock from the transfer frame's header.
        stamp = naplet.hlc_stamp
        if stamp is not None:
            self.server.journal.receive(stamp)
        landing_attrs = {"arrived_from": arrived_from, "bytes": payload_bytes}
        if deserialize_s is not None:
            landing_attrs["deserialize_s"] = deserialize_s
        with telemetry.naplet_span(
            naplet,
            "landing",
            parent_id=trace_parent,
            **landing_attrs,
        ):
            # Postpone execution until the arrival registration is acknowledged.
            if departed_from is not None:
                self.server.directory_client.report_migration(
                    nid, departed_from, self.server.urn
                )
            else:
                self.server.directory_client.report_arrival(nid, self.server.urn)
            self.server.manager.record_arrival(naplet, arrived_from=arrived_from)
            naplet.navigation_log.record_arrival(self.server.urn)
            self.server.messenger.create_mailbox(nid)
            self.server.locator.note_location(nid, self.server.urn)
        telemetry.landings.inc()
        telemetry.itinerary_depth.observe(len(naplet.navigation_log.servers_visited()))
        self.migrations_in += 1
        self.server.journal.record(
            "naplet-arrive",
            naplet=str(nid),
            source=arrived_from,
            bytes=payload_bytes,
        )
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
                extras={"network": server.network, "tracer": server.telemetry.tracer},
            )
            naplet._bind_context(context)

        def run_body() -> None:
            naplet.on_start()

        def on_retire(
            agent: "Naplet", outcome: str, error: BaseException | None
        ) -> None:
            nid = agent.naplet_id
            if outcome == NapletOutcome.DEPARTED:
                return  # dispatch() already released everything
            # It will not dump here again: its base image goes with it.
            server.serializer.delta_cache.drop(str(nid))
            server.manager.record_retirement(nid, outcome)
            server.resource_manager.release(nid)
            server.messenger.remove_mailbox(nid)
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
        # (and rolls it back if the spawn fails).
        server.manager.record_arrival(clone, arrived_from=None)
        self._navigator.transfer(clone, urn_of(destination))
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
