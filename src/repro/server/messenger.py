"""Messenger: post-office messaging service (paper §2.2, §4.2).

Implements the three-case post-office protocol verbatim:

1. target resident here → insert into its mailbox, reply *delivered*; the
   confirmation is kept by the sending Messenger for later inquiry;
2. target already left → consult the NapletManager's trace and forward the
   message to the server it departed for; forwarding repeats until the
   message catches up (the receipt's ``hops`` counts the forwards);
3. target not arrived yet (naplet temporarily blocked in the network) →
   park the message in the **special mailbox**; when the naplet lands, its
   fresh mailbox is seeded from the parked messages (*parked*).

User and system messages share one path: one frame kind, one send, one
forward and one departure chase.  They differ only at the hand-over, where
a system message becomes a monitor interrupt instead of a mailbox entry.
Message bodies are serialized with the server's NapletSerializer so they
may carry shipped-class instances.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import (
    NapletCommunicationError,
    NapletLocationError,
)
from repro.core.naplet_id import NapletID
from repro.faults.deadletter import DeadLetter, DeadLetterQueue
from repro.faults.retry import RetryPolicy, no_retry
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

# Receipts kept for inquiry, oldest forgotten first: enough for any
# realistic inquiry window, small enough to never matter for memory.
_RECEIPT_CAPACITY = 4096

# Undeliverable messages kept for a requeue, oldest evicted first.
_DEAD_LETTER_CAPACITY = 256

# The departure chase sends once; only the origin retries a message.
_ONCE = no_retry()

Message = UserMessage | SystemMessage


class Messenger:
    """Per-server post office."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        self._mailboxes: dict[NapletID, Mailbox] = {}
        self._special: dict[NapletID, list[Message]] = {}
        self._receipts: OrderedDict[int, DeliveryReceipt] = OrderedDict()
        self._lock = threading.RLock()
        # Messages that exhausted their delivery budget wait here for a
        # requeue once the network heals, instead of vanishing.
        self.dead_letters = DeadLetterQueue(_DEAD_LETTER_CAPACITY)
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

    def _frame(self, message: Message, dest_urn: str, **headers: str) -> Frame:
        """The one message frame, user or system."""
        return Frame(
            kind=FrameKind.MESSAGE,
            source=self.server.urn,
            dest=dest_urn,
            payload=self.server.serializer.dumps(message),
            headers=self._wire_headers(target=str(message.target), **headers),
        )

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
            for message in parked:
                self._hand_over(message, mailbox)
        if parked:
            self.server.telemetry.special_mailbox_hits.inc(len(parked))
        return mailbox

    def _hand_over(self, message: Message, mailbox: Mailbox) -> None:
        """Give a message to its resident target: a user message goes in
        *mailbox*, a system message becomes a monitor interrupt."""
        if isinstance(message, SystemMessage):
            self.server.monitor.interrupt(message.target, message.control, message.payload)
        else:
            mailbox.put(message)

    def remove_mailbox(self, nid: NapletID) -> None:
        """Drop a retiring naplet's mailbox with whatever it never read."""
        with self._lock:
            mailbox = self._mailboxes.pop(nid, None)
        if mailbox is not None:
            mailbox.close()

    def mailbox_of(self, nid: NapletID) -> Mailbox | None:
        with self._lock:
            return self._mailboxes.get(nid)

    def chase(self, nid: NapletID, dest_urn: str) -> None:
        """Send what waits here for *nid* after it, once its departure
        toward *dest_urn* is acked.

        That is its drained mailbox — including messages handed over while
        a clone was marked resident at its fork server, before the spawn's
        transfer — and the special-mailbox entries that arrived before it
        ever landed here.  Each goes once through the one send, which
        dead-letters a failure.  A naplet already back here keeps its
        mailbox: what waits in it is its own.
        """
        with self._lock:
            if self.server.manager.is_resident(nid):
                return
            mailbox = self._mailboxes.pop(nid, None)
            pending = mailbox.drain() if mailbox is not None else []
            pending += self._special.pop(nid, [])
        if mailbox is not None:
            mailbox.close()
        for message in pending:
            try:
                self._send(message.hopped(), dest_urn, _ONCE)
            except NapletCommunicationError:
                continue

    # ------------------------------------------------------------------ #
    # Dead-letter queue
    # ------------------------------------------------------------------ #

    def _dead_letter(
        self,
        message: Message,
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
            self._send_once(message, destination)

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

    def _send(
        self, message: Message, dest_urn: str, policy: RetryPolicy | None = None
    ) -> DeliveryReceipt:
        """Send under *policy* (``config.message_retry`` by default);
        dead-letter when it gives up.

        Only the origin retries: the forwarding path in
        :meth:`_deliver_local` never does and the departure chase sends
        once, so a chase across N servers cannot amplify into N retry
        storms.
        """
        policy = self.server.config.message_retry if policy is None else policy

        def _on_retry(attempt: int, wait: float, exc: BaseException) -> None:
            detail = {"control": message.control} if isinstance(message, SystemMessage) else {}
            self.server.journal.record(
                "message-retry",
                target=str(message.target),
                dest=dest_urn,
                attempt=attempt,
                error=str(exc),
                **detail,
            )

        try:
            return policy.run(
                lambda: self._send_once(message, dest_urn),
                retry_on=(NapletCommunicationError,),
                on_retry=_on_retry,
            )
        except NapletCommunicationError as exc:
            self._dead_letter(message, dest_urn, str(exc), attempts=policy.max_attempts)
            raise

    def _send_once(self, message: Message, dest_urn: str) -> DeliveryReceipt:
        """One attempt: frame, request, keep the receipt, note the location."""
        frame = self._frame(message, dest_urn)
        self.server.telemetry.frame_bytes.inc(len(frame.payload), kind="message")
        result = pickle.loads(self.server.transport.request(frame))
        receipt = DeliveryReceipt(
            message_id=message.message_id,
            target=message.target,
            status=result["status"],
            final_server=result["server"],
            hops=result["hops"],
            nbytes=len(frame.payload),
        )
        if receipt.status == "undeliverable":
            raise NapletCommunicationError(
                f"message {message.message_id} to {message.target} undeliverable "
                f"after {receipt.hops} hops"
            )
        with self._lock:
            self._receipts[receipt.message_id] = receipt
            while len(self._receipts) > _RECEIPT_CAPACITY:
                self._receipts.popitem(last=False)
        # A delivery confirms a current location — update the cache.
        if receipt.status == "delivered":
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
            receipt = self._send(message, destination)
            send_span.set("status", receipt.status)
            send_span.set("hops", receipt.hops)
        if sender is not None:
            block = self.server.monitor.control_block(sender.naplet_id)
            if block is not None:
                block.account_message(receipt.nbytes)  # what the send serialized
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
        return self._send(message, self._resolve_destination(None, target, dest_urn))

    def receipt_for(self, message_id: int) -> DeliveryReceipt | None:
        """The kept confirmation 'for further possible inquiry' (paper §4.2)."""
        with self._lock:
            return self._receipts.get(message_id)

    # ------------------------------------------------------------------ #
    # Receiving (frame handler; runs on delivering threads)
    # ------------------------------------------------------------------ #

    def handle_message_frame(self, frame: Frame) -> bytes:
        message: Message = self.server.serializer.loads(
            frame.payload, self.server.code_cache
        )
        return pickle.dumps(self._deliver_local(message))

    def _deliver_local(self, message: Message) -> dict[str, Any]:
        target = message.target
        hops = message.hops
        manager = self.server.manager
        telemetry = self.server.telemetry
        here = {"server": self.server.urn, "hops": hops}
        # Decided under the lock the landing's special-mailbox drain and the
        # departure chase also take, so whichever runs second sees this
        # message: it is handed over, parked for a landing still to come,
        # or forwarded after a naplet that already left — never left in a
        # mailbox or a special mailbox that nobody drains.
        with self._lock:
            # Case 1: resident here.
            if manager.is_resident(target):
                self._hand_over(message, self.create_mailbox(target))
                telemetry.messages_delivered.inc()
                return {"status": "delivered", **here}
            next_hop = manager.trace_next_hop(target)
            # Case 3: never seen here — park in the special mailbox.
            if next_hop is None:
                self._special.setdefault(target, []).append(message)
                telemetry.messages_parked.inc()
                return {"status": "parked", **here}
        # Case 2: it left — forward along the trace.
        if hops >= _MAX_HOPS:
            return {"status": "undeliverable", **here}
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
                frame = self._frame(message.hopped(), next_hop, hops=str(hops + 1))
                reply = self.server.transport.request(frame)
            except NapletCommunicationError:
                forward_span.set("undeliverable", True)
                return {"status": "undeliverable", **here}
        return pickle.loads(reply)

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
