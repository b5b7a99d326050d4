"""Fault-plan grammar: declarative, seeded descriptions of network misbehavior.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule`\\ s plus a set
of partitioned hosts.  Each rule pairs a match predicate (frame kind,
source host, destination host, nth matching occurrence, firing budget,
probability) with an action:

``drop``
    swallow the frame (one-way sends vanish; requests fail).
``delay``
    hold the frame for N seconds before delivery.
``duplicate``
    deliver the frame twice.
``corrupt``
    flip the leading payload bytes so deserialization fails downstream.
``refuse_dial``
    fail before any bytes move — a connection refused.
``crash``
    deliver-then-fail (``when="after"``, the classic lost-ack) or
    fail-before-delivery (``when="before"``); used for one-shot
    "crash during NAPLET_TRANSFER" scenarios.

A transport whose ``fault_plan`` is set hands every frame to
:meth:`FaultPlan.carry`, on the sending thread; DESIGN.md §6.3 tabulates
what each action does to a ``send`` and to a ``request``.  Rules are
evaluated in declaration order; probability draws come from a single
seeded :class:`random.Random` owned by the plan, so a seeded plan
replayed against the same traffic makes identical decisions.  Partitions
are checked before any rule and drop traffic in both directions.

Every fired fault adds one to ``fault_injected_total{fault=<label>}`` on
the carrying transport's registry and is journaled as one
``fault-injected`` record in the journal bound to the frame's *source*
endpoint: the counter answers *how many*, the record *when and to whom*.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.errors import NapletCommunicationError
from repro.transport.base import Frame, FrameKind, host_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import Transport

__all__ = ["FaultAction", "FaultRule", "FaultDecision", "FaultPlan", "InjectedFault"]

_CORRUPT_MARK = b"\xde\xad"


class InjectedFault(NapletCommunicationError):
    """A fault-plan rule refused, dropped, or crashed this exchange."""


class FaultAction:
    """Action vocabulary for fault rules."""

    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"
    CORRUPT = "corrupt"
    REFUSE_DIAL = "refuse_dial"
    CRASH = "crash"


@dataclass
class FaultRule:
    """One match-predicate/action pair inside a plan.

    Matching fields left ``None`` match anything.  ``src``/``dst`` match
    the *host* portion of frame endpoints, so a rule written against
    hostnames applies to every component URN on that host.  ``nth`` fires
    the rule only on the nth matching frame (1-based); ``times`` caps how
    often the rule may fire (``None`` = unlimited); ``probability`` gates
    each firing on a seeded coin flip.
    """

    action: str
    kind: str | None = None
    src: str | None = None
    dst: str | None = None
    nth: int | None = None
    times: int | None = None
    probability: float = 1.0
    delay: float = 0.0
    when: str = "after"  # for CRASH: "before" or "after" delivery
    label: str = ""
    matched: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.when not in ("before", "after"):
            raise ValueError("when must be 'before' or 'after'")
        if not self.label:
            self.label = self.action

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times

    def matches(self, frame: Frame) -> bool:
        if self.kind is not None and frame.kind != self.kind:
            return False
        if self.src is not None and host_of(frame.source) != self.src:
            return False
        if self.dst is not None and host_of(frame.dest) != self.dst:
            return False
        return True


@dataclass
class FaultDecision:
    """What the transport should do to one frame, composed across rules."""

    drop: bool = False
    refuse_dial: bool = False
    crash_before: bool = False
    crash_after: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay: float = 0.0
    labels: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        """True when the frame never reaches (or never cleanly leaves) the peer."""
        return self.drop or self.refuse_dial or self.crash_before


class FaultPlan:
    """Ordered, seeded rule set consulted for every frame on the wire."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: list[FaultRule] = []
        self._partitioned: set[str] = set()
        self._lock = threading.Lock()
        self._heal_listeners: list = []

    # -- builder vocabulary ------------------------------------------------- #

    def rule(self, rule: FaultRule) -> "FaultPlan":
        with self._lock:
            self._rules.append(rule)
        return self

    def drop(self, **match) -> "FaultPlan":
        return self.rule(FaultRule(FaultAction.DROP, **match))

    def delay(self, seconds: float, **match) -> "FaultPlan":
        return self.rule(FaultRule(FaultAction.DELAY, delay=seconds, **match))

    def duplicate(self, **match) -> "FaultPlan":
        return self.rule(FaultRule(FaultAction.DUPLICATE, **match))

    def corrupt(self, **match) -> "FaultPlan":
        return self.rule(FaultRule(FaultAction.CORRUPT, **match))

    def refuse_dial(self, **match) -> "FaultPlan":
        return self.rule(FaultRule(FaultAction.REFUSE_DIAL, **match))

    def kill_link(self, src: str, dst: str, sends: int | None = None) -> "FaultPlan":
        """Drop everything from *src* to *dst*, optionally only for N sends."""
        return self.rule(FaultRule(FaultAction.DROP, src=src, dst=dst, times=sends,
                                   label=f"kill_link:{src}->{dst}"))

    def partition(self, *hosts: str) -> "FaultPlan":
        """Isolate *hosts*: all traffic to or from them is dropped."""
        with self._lock:
            self._partitioned.update(hosts)
        return self

    def crash_during_transfer(self, dst: str | None = None, when: str = "after",
                              nth: int = 1) -> "FaultPlan":
        """One-shot crash around the nth NAPLET_TRANSFER (lost-ack by default)."""
        return self.rule(FaultRule(
            FaultAction.CRASH, kind=FrameKind.NAPLET_TRANSFER, dst=dst,
            nth=nth, times=1, when=when, label="crash_during_transfer",
        ))

    # -- healing ------------------------------------------------------------ #

    def heal(self) -> None:
        """Clear partitions and exhaust every rule: the network is whole again."""
        with self._lock:
            self._partitioned.clear()
            for rule in self._rules:
                rule.times = rule.fired
        self._notify_heal()

    def heal_host(self, host: str) -> None:
        """Lift one partition.  Unlike :meth:`heal`, a partial heal does
        NOT fire the heal listeners — other faults may still be active, so
        automatic dead-letter requeue stays an operator decision (via
        ``SpaceAdmin.requeue_dead_letters``) until the full heal."""
        with self._lock:
            self._partitioned.discard(host)

    def is_partitioned(self, host: str) -> bool:
        with self._lock:
            return host in self._partitioned

    def on_heal(self, callback) -> None:
        """Register *callback* to run after any heal (dead-letter requeue hook)."""
        self._heal_listeners.append(callback)

    def _notify_heal(self) -> None:
        for callback in list(self._heal_listeners):
            callback()

    # -- evaluation --------------------------------------------------------- #

    def decide(self, frame: Frame) -> FaultDecision:
        """Fold every applicable rule into one decision for *frame*.

        Terminal actions (drop / refuse-dial / crash-before) stop rule
        evaluation; delay, duplicate, corrupt, and crash-after compose.
        """
        decision = FaultDecision()
        with self._lock:
            src_host, dst_host = host_of(frame.source), host_of(frame.dest)
            if src_host in self._partitioned or dst_host in self._partitioned:
                decision.drop = True
                decision.labels.append("partition")
                return decision
            for rule in self._rules:
                if not rule.matches(frame):
                    continue
                rule.matched += 1
                if rule.exhausted:
                    continue
                if rule.nth is not None and rule.matched != rule.nth:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                decision.labels.append(rule.label)
                if rule.action == FaultAction.DROP:
                    decision.drop = True
                elif rule.action == FaultAction.REFUSE_DIAL:
                    decision.refuse_dial = True
                elif rule.action == FaultAction.CRASH:
                    if rule.when == "before":
                        decision.crash_before = True
                    else:
                        decision.crash_after = True
                elif rule.action == FaultAction.DELAY:
                    decision.delay += rule.delay
                elif rule.action == FaultAction.DUPLICATE:
                    decision.duplicate = True
                elif rule.action == FaultAction.CORRUPT:
                    decision.corrupt = True
                if decision.terminal:
                    break
        return decision

    # -- execution ---------------------------------------------------------- #

    def carry(
        self,
        transport: "Transport",
        frame: Frame,
        deliver: Callable[[Frame], bytes | None],
        one_way: bool,
    ) -> bytes | None:
        """Move *frame* through *deliver* (the transport's own delivery) as
        this plan decides, and return what *deliver* returned.

        A refused dial raises, as a real one does; a drop, a partition or a
        crash before delivery raises from a request and loses a one-way
        frame silently.  Otherwise the frame is delayed (on the transport's
        :meth:`~repro.transport.base.Transport.pause`), corrupted, and
        delivered once more ahead of the real delivery as the decision
        says; a crash after delivery raises once it went through.
        """
        decision = self.decide(frame)
        if not decision.labels:
            return deliver(frame)
        counter = transport.metrics.counter(
            "fault_injected_total", "Faults injected into the wire, by fault label."
        )
        for label in decision.labels:
            counter.inc(fault=label)
        journal = transport.journal_of(frame.source)
        _journal(journal, "fault-injected", decision, frame)
        if decision.terminal:
            if one_way and not decision.refuse_dial:
                return None  # one-way loss is silent, like the real network
            raise _failure(decision, frame)
        if decision.delay > 0:
            transport.pause(decision.delay)
        if decision.corrupt:
            frame = _corrupted(frame)
        if decision.duplicate:
            # Best-effort extra delivery ahead of the real one; the
            # receiver's dedup machinery must make it invisible.
            try:
                deliver(frame)
            except Exception as exc:
                _journal(journal, "fault-duplicate-error", decision, frame, error=repr(exc))
        result = deliver(frame)
        if decision.crash_after:
            raise _failure(decision, frame)
        return result

    # -- introspection ------------------------------------------------------ #

    def summary(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "label": rule.label,
                    "action": rule.action,
                    "matched": rule.matched,
                    "fired": rule.fired,
                    "exhausted": rule.exhausted,
                }
                for rule in self._rules
            ]


def _journal(journal, kind: str, decision: FaultDecision, frame: Frame, **detail) -> None:
    if journal is not None:
        journal.append(
            kind,
            category="fault",
            detail={
                "labels": list(decision.labels),
                "kind": str(frame.kind),
                "source": frame.source,
                "dest": frame.dest,
                **detail,
            },
        )


def _corrupted(frame: Frame) -> Frame:
    """*frame* with its leading payload bytes overwritten and its
    out-of-band buffers gone, so its reader fails."""
    payload = frame.payload
    if len(payload) >= len(_CORRUPT_MARK):
        payload = _CORRUPT_MARK + bytes(payload[len(_CORRUPT_MARK):])
    else:
        payload = _CORRUPT_MARK
    return Frame(frame.kind, frame.source, frame.dest, payload, dict(frame.headers))


def _failure(decision: FaultDecision, frame: Frame) -> InjectedFault:
    reason = "refused dial" if decision.refuse_dial else (
        "crashed" if decision.crash_before or decision.crash_after else "dropped"
    )
    return InjectedFault(
        f"injected fault ({'+'.join(decision.labels) or reason}): "
        f"{frame.kind} {frame.source} -> {frame.dest} {reason}"
    )
