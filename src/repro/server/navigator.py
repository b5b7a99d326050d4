"""Navigator: launching and migration (paper §2.2, §4.1).

Two-phase migration protocol, exactly the paper's sequence:

1. the source Navigator consults its NapletSecurityManager for **LAUNCH**
   permission;
2. it contacts the destination Navigator for **LANDING** permission (the
   destination consults its own security manager and resource manager);
3. on grant it reports DEPART to the directory, serializes the naplet
   (transient context dropped) and transfers it;
4. the destination registers ARRIVAL with the directory and *postpones
   execution until the registration is acknowledged*, then records the
   arrival with its NapletManager, creates the mailbox (draining the
   special mailbox), binds a fresh context and hands control to the
   NapletMonitor;
5. success releases all resources the naplet held at the source.

**Fast path** (``ServerConfig.migration_fast_path``, on by default): the
credential is piggybacked on the NAPLET_TRANSFER frame, so the destination
performs the landing check and the transfer ack in ONE exchange — no
separate LANDING_REQUEST round trip — and registers depart+arrival with
the directory in one combined event on the source's behalf.  The landing
check still runs *before* the naplet image is deserialized; a denial acks
``{"denied": True}`` and the source rolls back exactly as in the
two-phase protocol.  A destination that does not speak the fast path acks
``{"unsupported": True}`` and the source transparently falls back to the
two-phase sequence.  During the single in-flight window the directory
still shows the naplet at the source; that is safe because the source has
already marked the departure locally, so messages arriving there are
forwarded toward the destination (the standard chase guarantee).

The per-naplet :class:`NavigatorOps` object implements the itinerary
driver's :class:`~repro.itinerary.itinerary.TravelOps` protocol — dispatch,
clone spawning, credential re-issue, and Par join signalling.
"""

from __future__ import annotations

import itertools
import pickle
import time
from collections import OrderedDict, deque
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
    ShippedCodeMissingError,
)
from repro.core.naplet_id import NapletID
from repro.server.messenger import NapletMessengerProxy
from repro.server.monitor import NapletOutcome, _ControlBlock
from repro.server.security import Permission
from repro.transport.base import Frame, FrameKind, urn_of
from repro.util.hlc import HLCStamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.server.server import NapletServer

__all__ = ["Navigator", "NavigatorOps"]

# Hot control replies, serialized once instead of per-exchange.
_GRANTED = pickle.dumps({"granted": True})
_ACK_OK = pickle.dumps({"ok": True})
_FAST_PATH_UNSUPPORTED = pickle.dumps(
    {"ok": False, "unsupported": True, "reason": "fast-path not supported here"}
)

# Remembered transfer-ids per destination navigator: enough to absorb any
# realistic retry window, small enough to never matter for memory.
_TRANSFER_DEDUP_CAPACITY = 4096

# Remembered (naplet, destination) base-image hashes — what each peer last
# acked holding.  Bounded like the dedup table; a dropped entry only costs
# one full-image hop.
_PEER_BASE_CAPACITY = 4096


def _image_nbytes(payload: bytes, buffers: tuple | list = ()) -> int:
    """Wire size of a naplet image: envelope plus out-of-band segments."""
    total = len(payload)
    for buf in buffers:
        total += buf.nbytes if isinstance(buf, memoryview) else len(buf)
    return total


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
        # Delta-shipping negotiation state (DESIGN.md §6.7), all advisory:
        # which base image hash each peer last acked holding per naplet,
        # which module content hashes each peer's code cache holds, and
        # which peers rejected v2 envelopes outright (v1-only).  Stale or
        # lost entries never break a transfer — they only cost a full
        # image or one extra in-attempt resend.
        self._peer_bases: OrderedDict[tuple[str, str], str] = OrderedDict()
        self._peer_code: dict[str, set[str]] = {}
        self._v1_peers: set[str] = set()

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
            self.server.events.record("naplet-degenerate-launch", naplet=str(nid))
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
        """Run the LAUNCH/LANDING/transfer protocol toward *dest_urn*.

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
            self.server.events.record(
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
        nid = naplet.naplet_id
        credential = naplet.credential
        # 1. LAUNCH permission at the source (both paths).
        self.server.security.check(credential, Permission.LAUNCH)
        if self.server.config.migration_fast_path:
            if self._transfer_fast(naplet, dest_urn, hop, credential, transfer_id):
                return
            # Destination predates (or disabled) the fast path: fall back.
            self.server.telemetry.fast_path_fallbacks.inc()
            self.server.events.record(
                "fast-path-fallback", naplet=str(nid), dest=dest_urn
            )
        self._transfer_two_phase(naplet, dest_urn, hop, credential, transfer_id)

    # -- departure bookkeeping shared by both protocols ------------------- #

    def _mark_departure(
        self, naplet: "Naplet", nid: NapletID, dest_urn: str, report: bool
    ):
        """Mark the naplet in transit *before* the wire transfer.

        The directory's latest event must never run behind the synchronous
        landing, and messages arriving here during the transfer must be
        forwarded toward the destination, not deposited in a mailbox the
        naplet will never read.  Everything here is undone by
        :meth:`_rollback_departure` on failure.  ``report=False`` skips the
        directory DEPART report (fast path: the destination registers the
        combined depart+arrival instead).
        """
        was_resident = self.server.manager.is_resident(nid)
        resident_record = self.server.manager.begin_departure(nid, dest_urn)
        if report:
            self.server.directory_client.report_departure(nid, self.server.urn)
        if naplet.navigation_log.current_server() == self.server.urn:
            naplet.navigation_log.record_departure(self.server.urn)
        return was_resident, resident_record

    def _rollback_departure(
        self,
        naplet: "Naplet",
        nid: NapletID,
        was_resident: bool,
        resident_record,
        reported: bool,
    ) -> None:
        self.server.manager.abort_departure(nid, resident_record)
        if naplet.navigation_log.servers_visited() and not naplet.navigation_log.current_server():
            naplet.navigation_log.record_arrival(self.server.urn)
        if reported and was_resident:
            self.server.directory_client.report_arrival(nid, self.server.urn)

    def _transfer_frame(
        self, naplet: "Naplet", nid: NapletID, dest_urn: str, hop, payload: bytes,
        transfer_id: str, extra_headers: dict[str, str] | None = None,
        cost=None, buffers: tuple = (),
    ) -> Frame:
        image_bytes = _image_nbytes(payload, buffers)
        hop.set("bytes", image_bytes)
        self.server.telemetry.frame_bytes.inc(image_bytes, kind="naplet-transfer")
        headers = {"naplet": str(nid), "transfer-id": transfer_id}
        # The HLC stamp is minted *after* the depart event was journaled
        # (callers record it before building the frame), so the receiver's
        # clock update places every landing record causally after it.
        hlc = self.server.journal.header_stamp()
        if hlc is not None:
            headers["hlc"] = hlc
        if extra_headers:
            headers.update(extra_headers)
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
            buffers=tuple(buffers),
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
        if cost is not None and cost.code_bytes:
            telemetry.hop_bytes.observe(cost.code_bytes, part="code")
            hop.set("code_bytes", cost.code_bytes)
        if cost is not None and cost.delta:
            hop.set("delta", True)
            if cost.saved_bytes:
                telemetry.hop_bytes.observe(cost.saved_bytes, part="saved")
                hop.set("saved_bytes", cost.saved_bytes)
        return frame

    def _journal_hop_cost(
        self, nid: NapletID, naplet: "Naplet", dest_urn: str, frame: Frame,
        cost, fast_path: bool,
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
                "fast_path": fast_path,
                "delta": bool(cost.delta),
                "saved_bytes": cost.saved_bytes,
            },
        )

    # -- delta-shipping negotiation (DESIGN.md §6.7) ----------------------- #

    def _dump_plans(self, nid: str, dest_urn: str) -> deque:
        """Escalation ladder of serialization plans toward *dest_urn*.

        Most-optimistic first: a delta against the base the peer was last
        seen holding, then a full v2 image (bundling all code), then the
        legacy v1 envelope.  Every negative image ack moves down the
        ladder *within* the same transfer attempt — the migration retry
        policy never sees a delta refusal.
        """
        plans: deque = deque()
        serializer = self.server.serializer
        if serializer.delta_shipping and dest_urn not in self._v1_peers:
            base = self._peer_bases.get((nid, dest_urn))
            code = self._peer_code.get(dest_urn)
            if base is not None:
                plans.append({"base": base, "code": code})
            elif code:
                plans.append({"code": code})
            plans.append({})
        plans.append({"force_v1": True})
        return plans

    def _dump_image(self, naplet: "Naplet", plan: dict):
        """Serialize *naplet* under one plan: ``(data, buffers, cost)``."""
        if plan.get("force_v1"):
            return self.server.serializer.dumps_with_cost(naplet, force_v1=True)
        return self.server.serializer.dumps_with_cost(
            naplet, base_hint=plan.get("base"), known_code=plan.get("code")
        )

    def _note_peer_image(self, nid: str, peer_urn: str, img_hash: str) -> None:
        """Remember that *peer_urn* holds base *img_hash* for this naplet."""
        key = (nid, peer_urn)
        self._peer_bases[key] = img_hash
        self._peer_bases.move_to_end(key)
        while len(self._peer_bases) > _PEER_BASE_CAPACITY:
            self._peer_bases.popitem(last=False)

    def _forget_peer_base(self, nid: str, dest_urn: str) -> None:
        self._peer_bases.pop((nid, dest_urn), None)

    def _record_peer_ack(
        self, nid: NapletID, dest_urn: str, ack: dict, observed: str | None,
    ) -> None:
        """Fold a positive transfer ack into the per-peer delta state.

        *observed* is the base entry read when the transfer was planned.
        The naplet can land back here (writing a fresher base for this
        very peer) before this — older — ack is processed, so the base is
        only written if the entry still reads as observed (or is gone):
        a lost compare-and-swap means fresher information won the race.
        """
        base = ack.get("base")
        if isinstance(base, str):
            key = (str(nid), dest_urn)
            current = self._peer_bases.get(key)
            if current is None or current == observed:
                self._note_peer_image(str(nid), dest_urn, base)
        code = ack.get("code")
        if isinstance(code, list):
            self._peer_code[dest_urn] = set(code)

    def _transfer_acked(
        self, naplet: "Naplet", nid: NapletID, dest_urn: str, frame: Frame,
        cost, ack: dict, observed: str | None, fast_path: bool,
    ) -> None:
        """Source-side bookkeeping once *dest_urn* acked the landing."""
        telemetry = self.server.telemetry
        if cost.delta:
            telemetry.delta_hops.inc()
            if cost.saved_bytes:
                telemetry.delta_saved_bytes.inc(cost.saved_bytes)
        self._record_peer_ack(nid, dest_urn, ack, observed)
        self._journal_hop_cost(nid, naplet, dest_urn, frame, cost, fast_path)
        # Messages that were parked here waiting for this naplet chase it.
        self.server.messenger.forward_parked(nid, dest_urn)
        # Last, off the path of anything another server waits for: the
        # image the peer acked stays cached here as a delta base, but the
        # live objects it was pickled from left with the naplet.
        base = ack.get("base")
        if isinstance(base, str):
            self.server.serializer.delta_cache.release(str(nid), base)

    def _escalate_plan(
        self, plans: deque, plan: dict, ack: dict, nid: NapletID, dest_urn: str,
    ) -> dict | None:
        """Pick the next plan after a negative *image* ack, or None.

        ``need_full`` (base evicted / referenced code missing at the
        destination) drops one rung; any other rejection of a v2 envelope
        jumps straight to the v1 rung and pins the peer as v1-only for
        this process.  Returns None when the ladder is exhausted (or the
        failing envelope was already v1, where resending the same bytes
        cannot help).
        """
        if plan.get("force_v1"):
            return None
        if ack.get("need_full"):
            self._forget_peer_base(str(nid), dest_urn)
            self.server.telemetry.delta_full_reships.inc()
            self.server.events.record(
                "delta-full-reship",
                naplet=str(nid),
                dest=dest_urn,
                reason=ack.get("reason"),
            )
        else:
            # Generic rejection of a v2 envelope: assume a v1-only peer.
            self._v1_peers.add(dest_urn)
            self.server.events.record(
                "delta-v1-downgrade",
                naplet=str(nid),
                dest=dest_urn,
                reason=ack.get("reason"),
            )
            while plans and not plans[0].get("force_v1"):
                plans.popleft()
        return plans.popleft() if plans else None

    # -- fast path: landing check + transfer ack in one exchange ----------- #

    def _fast_frame(
        self, naplet: "Naplet", nid: NapletID, dest_urn: str, hop,
        credential: Credential, transfer_id: str, plan: dict, dumped: tuple,
    ) -> Frame:
        """Build one fast-path transfer frame around a *dumped* image.

        v1 keeps the legacy layout — ``(credential, image)`` pickled as
        the payload — so pre-delta peers interoperate.  v2 rides the
        credential alone in the payload and the image as out-of-band
        frame segments (``xfer: 2``): envelope first, then the raw field
        buffers, none of them re-copied by a protocol-5 transport.
        """
        data, buffers, cost = dumped
        if plan.get("force_v1"):
            return self._transfer_frame(
                naplet, nid, dest_urn, hop,
                payload=pickle.dumps((credential, data)),
                transfer_id=transfer_id,
                extra_headers={"fast-path": "1"},
                cost=cost,
            )
        return self._transfer_frame(
            naplet, nid, dest_urn, hop,
            payload=pickle.dumps(credential),
            transfer_id=transfer_id,
            extra_headers={"fast-path": "1", "xfer": "2"},
            cost=cost,
            buffers=(data, *buffers),
        )

    def _transfer_fast(
        self, naplet: "Naplet", dest_urn: str, hop, credential: Credential,
        transfer_id: str,
    ) -> bool:
        """Single-round-trip migration; False when the destination lacks it."""
        nid = naplet.naplet_id
        was_resident, record = self._mark_departure(naplet, nid, dest_urn, report=False)
        if self.server.journal.enabled:
            naplet._stamp_hlc(self.server.journal.clock.now())
        observed_base = self._peer_bases.get((str(nid), dest_urn))
        plans = self._dump_plans(str(nid), dest_urn)
        plan = plans.popleft()
        data, buffers, cost = self._dump_image(naplet, plan)
        hop.set("serialize_s", cost.seconds)
        # Journal the departure *before* the frame's HLC header is minted:
        # the merged timeline must show this record ahead of the landing.
        # (Escalation resends mint fresh headers, still after this record.)
        self.server.events.record(
            "naplet-depart", naplet=str(nid), dest=dest_urn,
            bytes=_image_nbytes(data, buffers),
            fast_path=True, delta=bool(cost.delta),
        )
        frame = self._fast_frame(
            naplet, nid, dest_urn, hop, credential, transfer_id, plan,
            (data, buffers, cost),
        )

        def _rollback() -> None:
            self._rollback_departure(naplet, nid, was_resident, record, reported=False)

        while True:
            try:
                ack = pickle.loads(self.server.transport.request(frame))
            except NapletCommunicationError as exc:
                _rollback()
                raise NapletMigrationError(
                    f"transfer to {dest_urn} failed: {exc}"
                ) from exc
            if ack.get("ok") is True:
                self.server.telemetry.fast_path_hops.inc()
                hop.set("fast_path", True)
                self._transfer_acked(
                    naplet, nid, dest_urn, frame, cost, ack, observed_base,
                    fast_path=True,
                )
                return True
            if ack.get("unsupported"):
                _rollback()
                return False
            if ack.get("denied"):
                _rollback()
                self.server.events.record(
                    "landing-denied", naplet=str(nid), dest=dest_urn,
                    reason=ack.get("reason"), fast_path=True,
                )
                raise LandingDeniedError(
                    f"{dest_urn} denied landing for {nid}: {ack.get('reason', 'unknown')}"
                )
            plan = self._escalate_plan(plans, plan, ack, nid, dest_urn)
            if plan is None:
                _rollback()
                raise NapletMigrationError(
                    f"{dest_urn} rejected the transfer of {nid}: {ack.get('reason')}"
                )
            data, buffers, cost = self._dump_image(naplet, plan)
            hop.set("serialize_s", cost.seconds)
            frame = self._fast_frame(
                naplet, nid, dest_urn, hop, credential, transfer_id, plan,
                (data, buffers, cost),
            )

    # -- two-phase path: LANDING_REQUEST then NAPLET_TRANSFER -------------- #

    def _transfer_two_phase(
        self, naplet: "Naplet", dest_urn: str, hop, credential: Credential,
        transfer_id: str,
    ) -> None:
        nid = naplet.naplet_id
        # 2. LANDING permission at the destination.
        headers = {"naplet": str(nid)}
        hlc = self.server.journal.header_stamp()
        if hlc is not None:
            headers["hlc"] = hlc
        request = Frame(
            kind=FrameKind.LANDING_REQUEST,
            source=self.server.urn,
            dest=dest_urn,
            payload=pickle.dumps(credential),
            headers=headers,
        )
        try:
            reply = pickle.loads(self.server.transport.request(request))
        except NapletCommunicationError as exc:
            raise NapletMigrationError(f"cannot reach {dest_urn}: {exc}") from exc
        if not reply.get("granted", False):
            self.server.events.record(
                "landing-denied", naplet=str(nid), dest=dest_urn, reason=reply.get("reason")
            )
            raise LandingDeniedError(
                f"{dest_urn} denied landing for {nid}: {reply.get('reason', 'unknown')}"
            )
        # 3. Mark in transit, report DEPART, then ship.
        was_resident, record = self._mark_departure(naplet, nid, dest_urn, report=True)
        if self.server.journal.enabled:
            naplet._stamp_hlc(self.server.journal.clock.now())
        observed_base = self._peer_bases.get((str(nid), dest_urn))
        plans = self._dump_plans(str(nid), dest_urn)
        plan = plans.popleft()
        data, buffers, cost = self._dump_image(naplet, plan)
        hop.set("serialize_s", cost.seconds)
        # Depart is journaled before the frame's HLC header is minted, so
        # the landing sorts after it in the merged timeline.
        self.server.events.record(
            "naplet-depart", naplet=str(nid), dest=dest_urn,
            bytes=_image_nbytes(data, buffers), delta=bool(cost.delta),
        )
        frame = self._transfer_frame(
            naplet, nid, dest_urn, hop, data, transfer_id, cost=cost,
            buffers=tuple(buffers),
        )

        def _rollback() -> None:
            self._rollback_departure(naplet, nid, was_resident, record, reported=True)

        while True:
            try:
                ack = pickle.loads(self.server.transport.request(frame))
            except NapletCommunicationError as exc:
                _rollback()
                raise NapletMigrationError(
                    f"transfer to {dest_urn} failed: {exc}"
                ) from exc
            if ack.get("ok") is True:
                break
            plan = self._escalate_plan(plans, plan, ack, nid, dest_urn)
            if plan is None:
                _rollback()
                raise NapletMigrationError(
                    f"{dest_urn} rejected the transfer of {nid}: {ack.get('reason')}"
                )
            data, buffers, cost = self._dump_image(naplet, plan)
            hop.set("serialize_s", cost.seconds)
            frame = self._transfer_frame(
                naplet, nid, dest_urn, hop, data, transfer_id, cost=cost,
                buffers=tuple(buffers),
            )
        self._transfer_acked(
            naplet, nid, dest_urn, frame, cost, ack, observed_base, fast_path=False
        )

    # ------------------------------------------------------------------ #
    # Inbound (frame handlers)
    # ------------------------------------------------------------------ #

    def _landing_denial(self, credential: Credential) -> str | None:
        """Reason to refuse this landing, or None when it is admissible."""
        try:
            self.server.security.check(credential, Permission.LANDING)
        except Exception as exc:
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

    def _deny_landing(self, reason: str) -> bytes:
        self.server.telemetry.landings_denied.inc()
        return pickle.dumps({"granted": False, "reason": reason})

    def handle_landing_request(self, frame: Frame) -> bytes:
        credential: Credential = pickle.loads(frame.payload)
        reason = self._landing_denial(credential)
        if reason is not None:
            return self._deny_landing(reason)
        self.server.events.record(
            "landing-granted", naplet=str(credential.naplet_id), source=frame.source
        )
        return _GRANTED

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
        self.server.events.record(
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

    def _need_full_ack(self, frame: Frame, exc: Exception) -> bytes:
        """Refuse a delta whose base (or referenced code) is missing here.

        Recoverable by protocol: the sender forgets this peer's base and
        transparently re-ships the full image within the same attempt.
        """
        self.server.events.record(
            "delta-need-full",
            naplet=frame.headers.get("naplet"),
            source=frame.source,
            reason=str(exc),
        )
        return pickle.dumps({"ok": False, "need_full": True, "reason": str(exc)})

    def _note_arrived_image(self, frame: Frame, info: dict) -> None:
        """Note that the *sender* of a landed v2 image holds it as a base.

        Its own delta cache retains what it just shipped, so a later hop
        straight back toward it (the ping-pong itinerary) can go delta
        without waiting for an ack from that side.  Must run *before*
        :meth:`receive` hands the naplet to the monitor — the naplet may
        dump for its return hop on another thread immediately.
        """
        nid, img_hash = info.get("nid"), info.get("hash")
        if (
            info.get("v") == 2
            and isinstance(nid, str)
            and isinstance(img_hash, str)
        ):
            self._note_peer_image(nid, frame.source, img_hash)

    def _landing_ack(self, info: dict) -> bytes:
        """Ack a landed transfer, advertising delta state for next time.

        A v2 landing acks the image hash now cached here (the sender
        deltas against it on its next hop this way) plus the content
        hashes of every module in the local code cache (so eager senders
        skip re-shipping bundles).
        """
        if not self.server.serializer.delta_shipping or info.get("v") != 2:
            return _ACK_OK
        ack: dict = {"ok": True, "code": self.server.code_cache.known_hashes()}
        img_hash = info.get("hash")
        if isinstance(img_hash, str):
            ack["base"] = img_hash
        return pickle.dumps(ack)

    def handle_transfer(self, frame: Frame) -> bytes:
        duplicate = self._duplicate_transfer_ack(frame)
        if duplicate is not None:
            return duplicate
        if frame.headers.get("fast-path") == "1":
            return self._handle_fast_transfer(frame)
        deserialize_started = time.perf_counter()
        try:
            naplet, info = self.server.serializer.loads_with_info(
                frame.payload, self.server.code_cache,
                buffers=frame.buffers or None,
            )
        except (DeltaBaseMissingError, ShippedCodeMissingError) as exc:
            return self._need_full_ack(frame, exc)
        except Exception as exc:
            return pickle.dumps({"ok": False, "reason": f"deserialization failed: {exc}"})
        self._note_arrived_image(frame, info)
        self.receive(
            naplet,
            arrived_from=frame.source,
            payload_bytes=_image_nbytes(frame.payload, frame.buffers),
            trace_parent=frame.headers.get("trace-parent"),
            deserialize_s=time.perf_counter() - deserialize_started,
        )
        # Remember only after the landing succeeded: a failed landing must
        # NOT dedup the retry that follows it.
        self._remember_transfer(frame, naplet.naplet_id)
        return self._landing_ack(info)

    def _handle_fast_transfer(self, frame: Frame) -> bytes:
        """Landing check + land + ack, all in one exchange.

        The credential rides ahead of the naplet image, so admission is
        decided *before* the image is deserialized — same security posture
        as the two-phase protocol, one round trip instead of two.  Layouts:
        legacy (v1) packs ``(credential, image)`` into the payload; v2
        (``xfer: 2`` header) packs only the credential there, with the
        envelope and its out-of-band field buffers as frame segments.
        """
        if not self.server.config.migration_fast_path:
            return _FAST_PATH_UNSUPPORTED
        oob: tuple = ()
        if frame.headers.get("xfer") == "2":
            if not frame.buffers:
                return pickle.dumps(
                    {"ok": False, "reason": "bad fast-path payload: no image segment"}
                )
            try:
                credential = pickle.loads(frame.payload)
            except Exception as exc:
                return pickle.dumps(
                    {"ok": False, "reason": f"bad fast-path payload: {exc}"}
                )
            image, oob = frame.buffers[0], tuple(frame.buffers[1:])
        else:
            try:
                credential, image = pickle.loads(frame.payload)
            except Exception as exc:
                return pickle.dumps(
                    {"ok": False, "reason": f"bad fast-path payload: {exc}"}
                )
        reason = self._landing_denial(credential)
        if reason is not None:
            self.server.telemetry.landings_denied.inc()
            return pickle.dumps({"ok": False, "denied": True, "reason": reason})
        self.server.events.record(
            "landing-granted",
            naplet=str(credential.naplet_id),
            source=frame.source,
            fast_path=True,
        )
        deserialize_started = time.perf_counter()
        try:
            naplet, info = self.server.serializer.loads_with_info(
                image, self.server.code_cache, buffers=oob or None
            )
        except (DeltaBaseMissingError, ShippedCodeMissingError) as exc:
            return self._need_full_ack(frame, exc)
        except Exception as exc:
            return pickle.dumps({"ok": False, "reason": f"deserialization failed: {exc}"})
        self._note_arrived_image(frame, info)
        self.receive(
            naplet,
            arrived_from=frame.source,
            payload_bytes=_image_nbytes(image, oob),
            trace_parent=frame.headers.get("trace-parent"),
            departed_from=frame.source,
            deserialize_s=time.perf_counter() - deserialize_started,
        )
        self._remember_transfer(frame, naplet.naplet_id)
        return self._landing_ack(info)

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
        ``departed_from`` set means the fast path piggybacked the DEPART
        registration onto the transfer: this server reports the combined
        depart+arrival in one directory exchange on the source's behalf.
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
        self.server.events.record(
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
            server.events.record(
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
    def event_log(self):
        """Server EventLog, duck-typed for the itinerary driver's
        failover notes (a test double without one simply records nothing)."""
        return self._navigator.server.events

    def order_alt_branches(self, naplet: "Naplet", pattern) -> tuple[int, ...] | None:
        """Load-ranked Alt branch order from the server's observatory.

        Duck-typed by the itinerary driver like ``event_log``; returns
        None (static declaration order) whenever the observatory is
        dormant, load-aware navigation is off, or the space view cannot
        vouch fresh digests for every admitting candidate.
        """
        observatory = getattr(self._navigator.server, "observatory", None)
        if observatory is None:
            return None
        return observatory.order_branches(naplet, pattern, kind="alt")

    def order_par_branches(self, naplet: "Naplet", pattern) -> tuple[int, ...] | None:
        """Load-ranked Par spawn order, same ladder as the Alt hook."""
        observatory = getattr(self._navigator.server, "observatory", None)
        if observatory is None:
            return None
        return observatory.order_branches(naplet, pattern, kind="par")

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
        server.events.record(
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
