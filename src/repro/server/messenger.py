"""Messenger: post-office messaging service (paper §2.2, §4.2).

Implements the three-case post-office protocol verbatim:

1. target resident here → insert into its mailbox, reply *delivered*; the
   confirmation is kept by the sending Messenger for later inquiry;
2. target already left → consult the NapletManager's trace and forward the
   message to the server it departed for; forwarding repeats until the
   message catches up (the receipt's ``hops`` counts the forwards);
3. target not arrived yet (naplet temporarily blocked in the network) →
   park the message on its record in the naplet table, the paper's
   **special mailbox**, where the naplet finds it when it lands (*parked*).

The naplet table picks the case under its one lock (``manager.take``).
User and system messages share one path: one frame kind, one send, one
forward and one departure chase.  They differ only at the hand-over, where
a system message becomes an interrupt (held until the naplet is admitted)
instead of a mailbox entry.

On the wire a message is its body, pickled by the server's NapletSerializer
(so it may carry shipped-class instances), under text headers (DESIGN.md
§6.2); a forward relays the body's bytes.  The reply, in the transport's
one reply grammar, is ``<status> <server-urn> <hops>``; one the origin
cannot read, a refusal included, is a failed exchange, retried and then
dead-lettered.  A report is answered ``ok`` or refused.
"""

from __future__ import annotations

import itertools
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
    Message,
    SystemMessage,
    UserMessage,
    join_token_of,
    make_join_body,
)
from repro.server.security import Permission
from repro.telemetry.trace import NULL_SPAN, TraceContext
from repro.transport.base import Frame, FrameKind, read_reply, refusal, reply

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

# A post-office reply's status; its fields are the server and the hops.
_POSTAL = ("delivered", "parked", "undeliverable")


def _naplet_or_text(text: str) -> NapletID | str:
    """A sender or reporter from its header: a naplet id when it reads as one."""
    try:
        return NapletID.parse(text)
    except ValueError:
        return text


class Messenger:
    """Per-server post office."""

    def __init__(self, server: "NapletServer") -> None:
        self.server = server
        self._receipts: OrderedDict[int, DeliveryReceipt] = OrderedDict()
        self._seq = itertools.count(1)  # ids of the messages that start here
        self._lock = threading.Lock()  # guards the receipts
        # Messages that exhausted their delivery budget wait here for a
        # requeue once the network heals, instead of vanishing.
        self.dead_letters = DeadLetterQueue(_DEAD_LETTER_CAPACITY)
        # Queue depths are sampled lazily at snapshot time, not on every put.
        registry = server.telemetry.registry
        registry.counter_fn(
            "naplet_dead_letters_requeued_total",
            "Dead letters successfully redelivered after a heal", None,
            lambda: self.dead_letters.total_redelivered,
        )
        registry.gauge_fn(
            "naplet_dead_letter_depth",
            "Undeliverable messages waiting in the dead-letter queue",
            lambda: float(len(self.dead_letters)),
        )
        registry.gauge_fn(
            "naplet_mailbox_queue_depth",
            "Messages waiting across resident mailboxes",
            lambda: float(server.manager.waiting()[0]),
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

    def _frame(self, message: Message, dest_urn: str, body: bytes | None = None) -> Frame:
        """The one message frame, user or system.  A header rides only where
        the receiver's default is wrong (origin: the frame's source; sender:
        the origin; hops: 0); a forward passes the *body* bytes it was sent."""
        urn = self.server.urn
        headers = {"target": str(message.target), "id": str(message.message_id)}
        if message.origin != urn:
            headers["origin"] = message.origin
        if message.sender != message.origin:
            headers["from"] = str(message.sender)
        if message.hops:
            headers["hops"] = str(message.hops)
        if isinstance(message, SystemMessage):
            headers["control"] = message.control
        elif message.trace_id:
            headers["trace"] = f"{message.trace_id}/{message.trace_parent or ''}"
        if body is None:
            content = message.payload if isinstance(message, SystemMessage) else message.body
            body = self.server.serializer.dumps(content)
        return Frame(FrameKind.MESSAGE, urn, dest_urn, body, self._wire_headers(**headers))

    def _read(self, frame: Frame) -> Message:
        """The message *frame* carries, its body not yet decoded (see :meth:`_open`)."""
        headers = frame.headers
        origin = headers.get("origin", frame.source)
        envelope = dict(
            sender=_naplet_or_text(headers["from"]) if "from" in headers else origin,
            target=NapletID.parse(headers["target"]),
            message_id=int(headers["id"]),
            origin=origin,
            hops=int(headers.get("hops", 0)),
        )
        if "control" in headers:
            return SystemMessage(control=headers["control"], **envelope)
        trace_id, _, parent = headers.get("trace", "").partition("/")
        return UserMessage(
            body=None, trace_id=trace_id or None, trace_parent=parent or None, **envelope
        )

    def _open(self, message: Message, body: bytes) -> Message:
        """*message* with its *body* bytes decoded into it."""
        content = self.server.serializer.loads(body, self.server.code_cache)
        if isinstance(message, SystemMessage):
            message.payload = content
        else:
            message.body = content
        return message

    # ------------------------------------------------------------------ #
    # Views of the naplet table, and the departure chase
    # ------------------------------------------------------------------ #

    def mailbox_of(self, nid: NapletID) -> Mailbox | None:
        return self.server.manager.mailbox_of(nid)

    def special_mailbox_size(self, nid: NapletID | None = None) -> int:
        """Messages parked for *nid* (or any naplet) not resident here."""
        return self.server.manager.waiting(nid)[1]

    def chase(self, messages: list[Message], dest_urn: str) -> None:
        """Send what waited here for a naplet after it, once its departure
        toward *dest_urn* is acked (:meth:`NapletManager.end_departure`).
        Each goes once through the one send, which dead-letters a failure."""
        for message in messages:
            try:
                self._send(message.hopped(), dest_urn, _ONCE)
            except NapletCommunicationError:
                continue

    # ------------------------------------------------------------------ #
    # Dead-letter queue
    # ------------------------------------------------------------------ #

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
        :meth:`handle_message_frame` never does and the departure chase sends
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
            reason = str(exc)
            self.dead_letters.put(
                DeadLetter(message, dest_urn, reason, policy.max_attempts, source=self.server.urn)
            )
            self.server.journal.record(
                "message-dead-lettered", target=str(message.target), dest=dest_urn, reason=reason
            )
            raise

    def _send_once(self, message: Message, dest_urn: str) -> DeliveryReceipt:
        """One attempt: frame, request, keep the receipt, note the location."""
        frame = self._frame(message, dest_urn)
        answer = self.server.transport.request(frame)
        status, fields = read_reply(answer, "post-office", *_POSTAL)
        if len(fields) != 2 or not fields[1].isdigit():
            raise NapletCommunicationError(f"unreadable post-office reply {answer[:80]!r}")
        receipt = DeliveryReceipt(
            message.message_id, message.target, status, fields[0], int(fields[1]),
            len(frame.payload),
        )
        if receipt.status == "undeliverable":
            raise NapletCommunicationError(
                f"message {message.message_id} to {message.target} undeliverable "
                f"after {receipt.hops} hops"
            )
        if message.origin == self.server.urn:  # a chased message's receipt is its origin's
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
        urn = self.server.urn
        sender_id = sender.naplet_id if sender is not None else urn
        message = UserMessage(sender_id, target, body, message_id=next(self._seq), origin=urn)
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
            block = self.server.manager.control_block(sender.naplet_id)
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
        message = SystemMessage(
            control, target, payload, message_id=next(self._seq), origin=self.server.urn
        )
        return self._send(message, self._resolve_destination(None, target, dest_urn))

    def receipt_for(self, message_id: int) -> DeliveryReceipt | None:
        """The kept confirmation 'for further possible inquiry' (paper §4.2)."""
        with self._lock:
            return self._receipts.get(message_id)

    # ------------------------------------------------------------------ #
    # Receiving (frame handler; runs on delivering threads)
    # ------------------------------------------------------------------ #

    def _reply(self, status: str, hops: int) -> bytes:
        return reply(status, self.server.urn, str(hops))

    def handle_message_frame(self, frame: Frame) -> bytes:
        message = self._read(frame)
        target = message.target
        hops = message.hops
        telemetry = self.server.telemetry
        # Cases 1 and 3 (hand over, or park for a landing still to come)
        # are decided by the naplet table under the lock every landing,
        # admission and departure takes, so none of them can miss this
        # message; otherwise the table names the server the naplet left for.
        next_hop = self.server.manager.take(message, lambda: self._open(message, frame.payload))
        if next_hop in ("delivered", "parked"):
            delivered = next_hop == "delivered"
            (telemetry.messages_delivered if delivered else telemetry.messages_parked).inc()
            return self._reply(next_hop, hops)
        # Case 2: it left — forward the body bytes along the trace.
        if hops >= _MAX_HOPS:
            return self._reply("undeliverable", hops)
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
                answer = self.server.transport.request(
                    self._frame(message.hopped(), next_hop, frame.payload)
                )
                read_reply(answer, "post-office", *_POSTAL)
            except NapletCommunicationError:
                forward_span.set("undeliverable", True)
                return self._reply("undeliverable", hops)
        return answer

    def handle_report_frame(self, frame: Frame) -> bytes:
        delivered = self.server.manager.deliver_report(
            frame.headers["listener"],
            _naplet_or_text(frame.headers["reporter"]),
            self.server.serializer.loads(frame.payload, self.server.code_cache),
        )
        return reply("ok") if delivered else refusal(f"no listener {frame.headers['listener']!r}")

    def post_report(self, home_urn: str, listener_key: str, reporter: Any, payload: Any) -> None:
        headers = self._wire_headers(listener=listener_key, reporter=str(reporter))
        body = self.server.serializer.dumps(payload)
        frame = Frame(FrameKind.REPORT, self.server.urn, home_urn, body, headers)
        read_reply(self.server.transport.request(frame), "report", "ok")


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
