"""Messenger: post-office messaging service (paper §2.2, §4.2).

Implements the three-case post-office protocol verbatim:

1. target resident here → insert into its mailbox, reply *delivered*; the
   confirmation is kept by the sending Messenger for later inquiry;
2. target already left → consult the NapletManager's trace and forward the
   message to the server it departed for; forwarding repeats until the
   message catches up (*forwarded*, with hop count);
3. target not arrived yet (naplet temporarily blocked in the network) →
   park the message in the **special mailbox**; when the naplet lands, its
   fresh mailbox is seeded from the parked messages (*parked*).

System messages ride the same chase logic but are delivered as monitor
interrupts instead of mailbox entries.  Message bodies are serialized with
the server's NapletSerializer so they may carry shipped-class instances.
"""

from __future__ import annotations

import pickle
import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import (
    NapletCommunicationError,
    NapletLocationError,
)
from repro.core.naplet_id import NapletID
from repro.faults.deadletter import DeadLetter, DeadLetterQueue
from repro.server.mailbox import Mailbox
from repro.server.messages import (
    DeliveryReceipt,
    SystemMessage,
    UserMessage,
    join_token_of,
    make_join_body,
)
from repro.server.security import Permission
from repro.telemetry.trace import NULL_SPAN, TraceContext
from repro.transport.base import Frame, FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.server.server import NapletServer

__all__ = ["Messenger", "NapletMessengerProxy"]

_MAX_HOPS = 16


class Messenger:
    """Per-server post office."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        self._mailboxes: dict[NapletID, Mailbox] = {}
        self._special: dict[NapletID, list[UserMessage | SystemMessage]] = {}
        self._receipts: dict[int, DeliveryReceipt] = {}
        self._lock = threading.RLock()
        self.parked_count = 0
        self.forwarded_count = 0
        # Messages that exhausted their delivery budget wait here for a
        # requeue once the network heals, instead of vanishing.
        self.dead_letters = DeadLetterQueue(server.config.dead_letter_capacity)
        # Health-plane hook: called with each freshly dead-lettered message
        # so backlog growth is detected the moment it starts.
        self.on_dead_letter: Callable[[DeadLetter], None] | None = None
        # Queue depths are sampled lazily at snapshot time, not on every put.
        registry = server.telemetry.registry
        registry.gauge_fn(
            "naplet_dead_letter_depth",
            "Undeliverable messages waiting in the dead-letter queue",
            lambda: float(len(self.dead_letters)),
        )
        registry.gauge_fn(
            "naplet_mailbox_queue_depth",
            "Messages waiting across resident mailboxes",
            lambda: float(self.mailbox_queue_depth()),
        )
        registry.gauge_fn(
            "naplet_special_mailbox_depth",
            "Messages parked for naplets not (yet) resident here",
            lambda: float(self.special_mailbox_size()),
        )

    def _wire_headers(self, **headers: str) -> dict[str, str]:
        """Frame headers with the flight recorder's HLC stamp piggybacked."""
        stamp = self.server.journal.header_stamp()
        if stamp is not None:
            headers["hlc"] = stamp
        return headers

    # ------------------------------------------------------------------ #
    # Mailbox lifecycle (driven by Navigator arrivals/departures)
    # ------------------------------------------------------------------ #

    def create_mailbox(self, nid: NapletID) -> Mailbox:
        """Create the mailbox on arrival and seed it from the special mailbox."""
        with self._lock:
            mailbox = self._mailboxes.get(nid)
            if mailbox is None:
                mailbox = Mailbox()
                self._mailboxes[nid] = mailbox
            parked = self._special.pop(nid, [])
        if parked:
            self.server.telemetry.special_mailbox_hits.inc(len(parked))
        for message in parked:
            if isinstance(message, SystemMessage):
                self.server.monitor.interrupt(nid, message.control, message.payload)
            else:
                mailbox.put(message)
        return mailbox

    def remove_mailbox(self, nid: NapletID, forward_to: str | None = None) -> None:
        """Drop the mailbox; leftover messages chase the naplet if possible."""
        with self._lock:
            mailbox = self._mailboxes.pop(nid, None)
        if mailbox is None:
            return
        leftovers = mailbox.drain()
        mailbox.close()
        if forward_to is None:
            return
        for message in leftovers:
            try:
                self._send_user_message(message.hopped(), forward_to)
            except NapletCommunicationError:
                continue

    def mailbox_of(self, nid: NapletID) -> Mailbox | None:
        with self._lock:
            return self._mailboxes.get(nid)

    def forward_parked(self, nid: NapletID, dest_urn: str) -> None:
        """Send parked special-mailbox messages after a departing naplet.

        Covers messages that arrived for a naplet *before it ever landed
        here* (e.g. addressed to a clone at its fork server before the
        spawn): once the naplet's transfer toward *dest_urn* succeeds, the
        parked messages chase it there instead of waiting forever.
        """
        with self._lock:
            parked = self._special.pop(nid, [])
        for message in parked:
            kind = FrameKind.CONTROL if isinstance(message, SystemMessage) else FrameKind.MESSAGE
            forwarded = message.hopped() if isinstance(message, UserMessage) else message
            frame = Frame(
                kind=kind,
                source=self.server.urn,
                dest=dest_urn,
                payload=self.server.serializer.dumps(forwarded),
                headers=self._wire_headers(target=str(nid)),
            )
            try:
                self.server.transport.request(frame)
            except NapletCommunicationError as exc:
                self._dead_letter(forwarded, dest_urn, str(exc))
                continue

    # ------------------------------------------------------------------ #
    # Dead-letter queue
    # ------------------------------------------------------------------ #

    def _dead_letter(
        self,
        message: UserMessage | SystemMessage,
        dest_urn: str,
        reason: str,
        attempts: int = 1,
    ) -> None:
        letter = DeadLetter(
            message=message,
            dest_urn=dest_urn,
            reason=reason,
            attempts=attempts,
            source=self.server.urn,
        )
        self.dead_letters.put(letter)
        if self.on_dead_letter is not None:
            try:
                self.on_dead_letter(letter)
            except Exception:
                pass  # an observer must never break delivery error handling
        self.server.telemetry.dead_letters.inc()
        self.server.journal.record(
            "message-dead-lettered",
            target=str(message.target),
            dest=dest_urn,
            reason=reason,
        )

    def requeue_dead_letters(self) -> tuple[int, int]:
        """Retry every dead letter now that the network (maybe) healed.

        Each letter is re-resolved through the locator — the target may
        have moved while the link was down — and sent once; letters that
        fail again go back on the queue.  Returns ``(delivered,
        requeued)``.
        """

        def _deliver(letter: DeadLetter) -> None:
            message = letter.message
            try:
                destination = self._resolve_destination(None, message.target, None)
            except NapletLocationError:
                destination = letter.dest_urn
            if isinstance(message, SystemMessage):
                self._send_control_once(message, destination)
            else:
                self._send_user_message_once(message, destination)

        delivered, requeued = self.dead_letters.redeliver(_deliver)
        if delivered:
            self.server.telemetry.dead_letters_requeued.inc(delivered)
        if delivered or requeued:
            self.server.journal.record(
                "dead-letters-requeued", delivered=delivered, requeued=requeued
            )
        return delivered, requeued

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def _resolve_destination(
        self, naplet: "Naplet | None", target: NapletID, explicit_urn: str | None
    ) -> str:
        if explicit_urn is not None:
            return explicit_urn
        located = self.server.locator.locate(target)
        if located is not None:
            return located
        if naplet is not None:
            entry = naplet.address_book.lookup(target)
            if entry is not None:
                return entry.server_urn
        raise NapletLocationError(f"cannot locate naplet {target} from {self.server.urn}")

    def _send_user_message(self, message: UserMessage, dest_urn: str) -> DeliveryReceipt:
        """Send under ``config.message_retry``; dead-letter when it gives up.

        Retries happen only here, at the origin — the forwarding path in
        :meth:`_deliver_local` never retries, so a chase across N servers
        cannot amplify into N retry storms.
        """
        policy = self.server.config.message_retry

        def _on_retry(attempt: int, wait: float, exc: BaseException) -> None:
            self.server.telemetry.message_retries.inc()
            self.server.journal.record(
                "message-retry",
                target=str(message.target),
                dest=dest_urn,
                attempt=attempt,
                error=str(exc),
            )

        try:
            return policy.run(
                lambda: self._send_user_message_once(message, dest_urn),
                retry_on=(NapletCommunicationError,),
                on_retry=_on_retry,
            )
        except NapletCommunicationError as exc:
            self._dead_letter(message, dest_urn, str(exc), attempts=policy.max_attempts)
            raise

    def _send_user_message_once(
        self, message: UserMessage, dest_urn: str
    ) -> DeliveryReceipt:
        payload = self.server.serializer.dumps(message)
        self.server.telemetry.frame_bytes.inc(len(payload), kind="message")
        frame = Frame(
            kind=FrameKind.MESSAGE,
            source=self.server.urn,
            dest=dest_urn,
            payload=payload,
            headers=self._wire_headers(target=str(message.target)),
        )
        reply = self.server.transport.request(frame)
        result = pickle.loads(reply)
        receipt = DeliveryReceipt(
            message_id=message.message_id,
            target=message.target,
            status=result["status"],
            final_server=result["server"],
            hops=result["hops"],
        )
        if receipt.status == "undeliverable":
            raise NapletCommunicationError(
                f"message {message.message_id} to {message.target} undeliverable "
                f"after {receipt.hops} hops"
            )
        with self._lock:
            self._receipts[receipt.message_id] = receipt
        # A delivery confirms a current location — update the cache.
        if receipt.status in ("delivered", "forwarded"):
            self.server.locator.note_location(message.target, receipt.final_server)
        return receipt

    def post(
        self,
        sender: "Naplet | None",
        target: NapletID,
        body: Any,
        dest_urn: str | None = None,
    ) -> DeliveryReceipt:
        """Post a user message toward *target* (sender may be the server itself)."""
        if sender is not None:
            self.server.security.check(sender.credential, Permission.MESSAGE)
        message = UserMessage(
            sender=sender.naplet_id if sender is not None else self.server.urn,
            target=target,
            body=body,
        )
        telemetry = self.server.telemetry
        send_span = (
            telemetry.naplet_span(sender, "message-send", target=str(target))
            if sender is not None
            else NULL_SPAN
        )
        with send_span:
            ctx = sender.trace_context if sender is not None else None
            lookup_span = (
                telemetry.span(
                    "locator-lookup", ctx, parent_id=send_span.span_id, target=str(target)
                )
                if ctx is not None
                else NULL_SPAN
            )
            with lookup_span:
                destination = self._resolve_destination(sender, target, dest_urn)
                lookup_span.set("resolved", destination)
            if ctx is not None and send_span.span_id:
                # The envelope carries the trace so forwarding servers can
                # hang their forward spans under this message-send span.
                message.trace_id = ctx.trace_id
                message.trace_parent = send_span.span_id
            receipt = self._send_user_message(message, destination)
            send_span.set("status", receipt.status)
            send_span.set("hops", receipt.hops)
        if sender is not None:
            block = self.server.monitor.control_block(sender.naplet_id)
            if block is not None:
                block.account_message(len(self.server.serializer.dumps(body)))
        return receipt

    def send_control(
        self,
        target: NapletID,
        control: str,
        payload: Any = None,
        dest_urn: str | None = None,
    ) -> DeliveryReceipt:
        """Send a system message (terminate/suspend/resume/callback/...)."""
        message = SystemMessage(control=control, target=target, payload=payload)
        destination = self._resolve_destination(None, target, dest_urn)
        policy = self.server.config.message_retry

        def _on_retry(attempt: int, wait: float, exc: BaseException) -> None:
            self.server.telemetry.message_retries.inc()
            self.server.journal.record(
                "control-retry",
                target=str(target),
                control=control,
                attempt=attempt,
                error=str(exc),
            )

        try:
            return policy.run(
                lambda: self._send_control_once(message, destination),
                retry_on=(NapletCommunicationError,),
                on_retry=_on_retry,
            )
        except NapletCommunicationError as exc:
            self._dead_letter(message, destination, str(exc), attempts=policy.max_attempts)
            raise

    def _send_control_once(
        self, message: SystemMessage, destination: str
    ) -> DeliveryReceipt:
        target = message.target
        control = message.control
        frame = Frame(
            kind=FrameKind.CONTROL,
            source=self.server.urn,
            dest=destination,
            payload=self.server.serializer.dumps(message),
            headers=self._wire_headers(target=str(target), control=control),
        )
        reply = self.server.transport.request(frame)
        result = pickle.loads(reply)
        receipt = DeliveryReceipt(
            message_id=message.message_id,
            target=target,
            status=result["status"],
            final_server=result["server"],
            hops=result["hops"],
        )
        if receipt.status == "undeliverable":
            raise NapletCommunicationError(
                f"control {control!r} for {target} undeliverable"
            )
        return receipt

    def receipt_for(self, message_id: int) -> DeliveryReceipt | None:
        """The kept confirmation 'for further possible inquiry' (paper §4.2)."""
        with self._lock:
            return self._receipts.get(message_id)

    # ------------------------------------------------------------------ #
    # Receiving (frame handlers; run on delivering threads)
    # ------------------------------------------------------------------ #

    def handle_message_frame(self, frame: Frame) -> bytes:
        message: UserMessage = self.server.serializer.loads(
            frame.payload, self.server.code_cache
        )
        return pickle.dumps(self._deliver_local(message, is_control=False))

    def handle_control_frame(self, frame: Frame) -> bytes:
        message: SystemMessage = self.server.serializer.loads(
            frame.payload, self.server.code_cache
        )
        return pickle.dumps(self._deliver_local(message, is_control=True))

    def _deliver_local(
        self, message: UserMessage | SystemMessage, is_control: bool
    ) -> dict[str, Any]:
        target = message.target
        hops = getattr(message, "hops", 0)
        telemetry = self.server.telemetry
        # Case 1: resident here.
        if self.server.manager.is_resident(target):
            if is_control:
                assert isinstance(message, SystemMessage)
                self.server.monitor.interrupt(target, message.control, message.payload)
            else:
                assert isinstance(message, UserMessage)
                mailbox = self.mailbox_of(target)
                if mailbox is None:
                    mailbox = self.create_mailbox(target)
                mailbox.put(message)
            telemetry.messages_delivered.inc()
            return {"status": "delivered", "server": self.server.urn, "hops": hops}
        # Case 2: it left — forward along the trace.
        next_hop = self.server.manager.trace_next_hop(target)
        if next_hop is not None:
            if hops >= _MAX_HOPS:
                return {"status": "undeliverable", "server": self.server.urn, "hops": hops}
            forwarded = message.hopped() if isinstance(message, UserMessage) else message
            kind = FrameKind.CONTROL if is_control else FrameKind.MESSAGE
            frame = Frame(
                kind=kind,
                source=self.server.urn,
                dest=next_hop,
                payload=self.server.serializer.dumps(forwarded),
                headers=self._wire_headers(target=str(target), hops=str(hops + 1)),
            )
            self.forwarded_count += 1
            telemetry.messages_forwarded.inc()
            trace_id = getattr(message, "trace_id", None)
            trace_parent = getattr(message, "trace_parent", None)
            forward_span = (
                telemetry.span(
                    "message-forward",
                    TraceContext(trace_id=trace_id, span_id=trace_parent or ""),
                    parent_id=trace_parent,
                    target=str(target),
                    next_hop=next_hop,
                    hops=hops + 1,
                )
                if trace_id
                else NULL_SPAN
            )
            with forward_span:
                try:
                    reply = self.server.transport.request(frame)
                except NapletCommunicationError:
                    forward_span.set("undeliverable", True)
                    return {"status": "undeliverable", "server": self.server.urn, "hops": hops}
            result = pickle.loads(reply)
            if is_control:
                return result
            result["hops"] = max(result["hops"], hops + 1)
            return result
        # Case 3: never seen here — park in the special mailbox.
        with self._lock:
            self._special.setdefault(target, []).append(message)
            self.parked_count += 1
        telemetry.messages_parked.inc()
        # The naplet may have landed between the residency check above and
        # the park — after the landing's own special-mailbox drain ran.
        # Re-check and hand over now, or the message is stranded until the
        # naplet departs (and a clone that retires here never departs).
        if self.server.manager.is_resident(target):
            self.create_mailbox(target)
            telemetry.messages_delivered.inc()
            return {"status": "delivered", "server": self.server.urn, "hops": hops}
        return {"status": "parked", "server": self.server.urn, "hops": hops}

    def handle_report_frame(self, frame: Frame) -> bytes:
        data = self.server.serializer.loads(frame.payload, self.server.code_cache)
        delivered = self.server.manager.deliver_report(
            data["listener_key"], data["reporter"], data["payload"]
        )
        return pickle.dumps(delivered)

    def post_report(self, home_urn: str, listener_key: str, reporter: Any, payload: Any) -> None:
        frame = Frame(
            kind=FrameKind.REPORT,
            source=self.server.urn,
            dest=home_urn,
            payload=self.server.serializer.dumps(
                {"listener_key": listener_key, "reporter": reporter, "payload": payload}
            ),
            headers=self._wire_headers(),
        )
        reply = self.server.transport.request(frame)
        if pickle.loads(reply) is not True:
            raise NapletCommunicationError(
                f"home {home_urn} has no listener {listener_key!r}"
            )

    def special_mailbox_size(self, nid: NapletID | None = None) -> int:
        with self._lock:
            if nid is not None:
                return len(self._special.get(nid, []))
            return sum(len(v) for v in self._special.values())

    def mailbox_queue_depth(self) -> int:
        """Messages waiting across all resident mailboxes (gauge callback)."""
        with self._lock:
            mailboxes = list(self._mailboxes.values())
        return sum(len(mb) for mb in mailboxes)


class NapletMessengerProxy:
    """Messenger facade scoped to one resident naplet (the context's view)."""

    def __init__(self, messenger: Messenger, naplet: "Naplet") -> None:
        self._messenger = messenger
        self._naplet = naplet

    def post_message(
        self, server_urn: str | None, target: NapletID, body: Any
    ) -> DeliveryReceipt:
        return self._messenger.post(self._naplet, target, body, dest_urn=server_urn)

    def _mailbox(self) -> Mailbox:
        mailbox = self._messenger.mailbox_of(self._naplet.naplet_id)
        if mailbox is None:
            raise NapletCommunicationError(
                f"naplet {self._naplet.naplet_id} has no mailbox here"
            )
        return mailbox

    def get_message(self, timeout: float | None = 30.0) -> UserMessage:
        self._naplet.checkpoint()
        return self._mailbox().get(timeout)

    def get_matching(
        self, predicate: Callable[[UserMessage], bool], timeout: float | None = 30.0
    ) -> UserMessage:
        self._naplet.checkpoint()
        return self._mailbox().get_matching(predicate, timeout)

    def poll_message(self) -> UserMessage | None:
        return self._mailbox().poll()

    def post_report(self, home_urn: str, listener_key: str, payload: Any) -> None:
        self._messenger.post_report(
            home_urn, listener_key, self._naplet.naplet_id, payload
        )

    def inquire(self, message_id: int) -> DeliveryReceipt | None:
        """The paper §4.2: the confirmation is kept by the sending
        Messenger 'only for further possible inquiry from naplet A'."""
        return self._messenger.receipt_for(message_id)

    def post_join_notice(self, target: NapletID, token: str) -> DeliveryReceipt:
        return self._messenger.post(self._naplet, target, make_join_body(token))

    def await_join_tokens(self, tokens: set[str], timeout: float | None) -> None:
        remaining = set(tokens)
        while remaining:
            message = self.get_matching(
                lambda m: join_token_of(m.body) in remaining, timeout
            )
            token = join_token_of(message.body)
            assert token is not None
            remaining.discard(token)
