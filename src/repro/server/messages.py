"""Message types (paper §2.2, §4.2).

Two message classes exist on the naplet wire:

- **System messages** control naplets (callback, terminate, suspend,
  resume): the receiving Messenger casts an interrupt onto the running
  naplet thread, and the naplet's ``on_interrupt`` defines the reaction.
- **User messages** carry data between naplets: the receiving Messenger
  puts them in the target's mailbox, and the naplet decides when to check.

Join notices (Par itinerary synchronisation) ride as user messages with a
reserved body shape so the itinerary driver can filter for them without a
separate channel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.naplet_id import NapletID

__all__ = [
    "SystemControl",
    "UserMessage",
    "SystemMessage",
    "Message",
    "DeliveryReceipt",
    "make_join_body",
    "join_token_of",
]

class SystemControl:
    """Well-known system-message controls."""

    CALLBACK = "callback"
    TERMINATE = "terminate"
    SUSPEND = "suspend"
    RESUME = "resume"
    INTERRUPT = "interrupt"
    FREEZE = "freeze"  # checkpoint-and-retire (extension; see admin/freeze)

    ALL = (CALLBACK, TERMINATE, SUSPEND, RESUME, INTERRUPT, FREEZE)


@dataclass
class UserMessage:
    """Data message between naplets.

    ``(origin, message_id)`` is the message's space-unique id: the server
    that first sent it and that server's sequence number for it.
    ``trace_id``/``trace_parent`` carry the sender's journey trace across
    forwarding hops, so every intermediate Messenger can record its
    forward step as a span under the sender's ``message-send`` span.
    """

    sender: NapletID | str
    target: NapletID
    body: Any
    message_id: int = 0
    origin: str = ""
    hops: int = 0
    trace_id: str | None = None
    trace_parent: str | None = None

    def hopped(self) -> "UserMessage":
        """Copy with the forwarding hop count incremented."""
        return replace(self, hops=self.hops + 1)


@dataclass
class SystemMessage:
    """Control message for a naplet; counts its forwarding hops like
    :class:`UserMessage`, so both obey the same chase bound."""

    control: str
    target: NapletID
    payload: Any = None
    sender: NapletID | str = "system"
    message_id: int = 0
    origin: str = ""
    hops: int = 0

    def hopped(self) -> "SystemMessage":
        """Copy with the forwarding hop count incremented."""
        return replace(self, hops=self.hops + 1)


Message = UserMessage | SystemMessage


@dataclass(frozen=True)
class DeliveryReceipt:
    """Confirmation kept by the sending Messenger for later inquiry.

    ``status`` is ``delivered`` (handed to the resident target) or
    ``parked`` (target not yet arrived; waiting on its record) at
    ``final_server``; ``hops > 0`` says the message was forwarded that
    many times along the target's trace to get there, in ``nbytes`` bytes.
    """

    message_id: int
    target: NapletID
    status: str
    final_server: str
    hops: int = 0
    nbytes: int = 0


_JOIN_KEY = "__naplet_join__"


def make_join_body(token: str) -> dict[str, str]:
    """Body of a Par-join notification message."""
    return {_JOIN_KEY: token}


def join_token_of(body: Any) -> str | None:
    """Extract a join token from a message body, if it is a join notice."""
    if isinstance(body, dict) and _JOIN_KEY in body:
        return str(body[_JOIN_KEY])
    return None
