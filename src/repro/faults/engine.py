"""Fault injector: a transparent transport wrapper that executes a FaultPlan.

The :class:`FaultInjector` duck-types the :class:`~repro.transport.base.
Transport` surface the rest of the framework uses — ``send``, ``request``,
and attribute fall-through to the wrapped transport for everything else
(``register``, ``unregister``, ``metrics``, ``clock``, ``close`` …).  It is
deliberately *not* a ``Transport`` subclass: subclassing would mint a second
metrics registry and journal plumbing, whereas the whole point is that
servers bound to the injector are indistinguishable from servers bound to
the raw transport.

Per-frame behavior, applied in order:

1. partitions and rules are consulted via ``plan.decide(frame)``;
2. refuse-dial / crash-before / drop stop the frame: ``request`` raises
   :class:`NapletCommunicationError`, one-way ``send`` loses the frame
   silently (real packet loss is silent);
3. delay pauses — virtually, through the inner transport's ``SimClock``
   when it has one, so simulated chaos costs no wall-clock time;
4. corrupt mangles the leading payload bytes so downstream
   deserialization deterministically fails;
5. duplicate delivers a best-effort extra copy *before* the real exchange,
   exercising the receiver's idempotence;
6. crash-after lets the exchange complete, then raises anyway — the
   lost-ack half of the two-generals problem.

Every fired fault increments ``fault_injected_total{fault=...}`` on the
*inner* transport's registry, so :meth:`SpaceAdmin.space_metrics` and the
exposition endpoint pick the counters up with no extra wiring, and is
journaled as a ``fault-injected`` record at the frame's source server —
the counter answers *how many*, the record *when and to whom*.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.errors import NapletCommunicationError
from repro.faults.plan import FaultDecision, FaultPlan
from repro.transport.base import Frame

__all__ = ["FaultInjector", "InjectedFault"]

_CORRUPT_MARK = b"\xde\xad"


class InjectedFault(NapletCommunicationError):
    """A fault-plan rule refused, dropped, or crashed this exchange."""


class FaultInjector:
    """Wrap any transport and misbehave according to a :class:`FaultPlan`."""

    def __init__(
        self,
        inner,
        plan: FaultPlan | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        self._sleep = sleep
        self._fault_counter = inner.metrics.counter(
            "fault_injected_total", "Faults injected into the wire, by fault label."
        )
        # Journals by endpoint URN; each fired fault is journaled at the
        # *source* endpoint only, so a space-wide causal merge sees it
        # exactly once.
        self._journals: dict[str, Any] = {}

    # Everything the framework asks of a transport that we do not
    # intercept — register, unregister, metrics, clock, fail_link,
    # close, … — falls through to the wrapped instance.
    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    # -- fault mechanics ----------------------------------------------------- #

    def _pause(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if self._sleep is not None:
            self._sleep(seconds)
            return
        clock = getattr(self.inner, "clock", None)
        if clock is not None and hasattr(clock, "advance"):
            clock.advance(seconds)
        else:
            time.sleep(seconds)

    def bind_event_log(self, urn: str, journal: Any) -> None:
        """Journal faults fired on frames *from* this endpoint into
        *journal*, and bind it on the wrapped transport too."""
        self._journals[urn] = journal
        self.inner.bind_event_log(urn, journal)

    def _journal(
        self, kind: str, decision: FaultDecision, frame: Frame, **detail: Any
    ) -> None:
        journal = self._journals.get(frame.source)
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

    def _count(self, decision: FaultDecision, frame: Frame) -> None:
        for label in decision.labels:
            self._fault_counter.inc(fault=label)
        self._journal("fault-injected", decision, frame)

    @staticmethod
    def _corrupted(frame: Frame) -> Frame:
        payload = frame.payload
        if isinstance(payload, (bytes, bytearray)) and len(payload) >= len(_CORRUPT_MARK):
            payload = _CORRUPT_MARK + bytes(payload[len(_CORRUPT_MARK):])
        else:
            payload = _CORRUPT_MARK
        return Frame(
            kind=frame.kind,
            source=frame.source,
            dest=frame.dest,
            payload=payload,
            headers=dict(frame.headers),
        )

    def _fail(self, decision: FaultDecision, frame: Frame) -> InjectedFault:
        reason = "refused dial" if decision.refuse_dial else (
            "crashed" if decision.crash_before or decision.crash_after else "dropped"
        )
        return InjectedFault(
            f"injected fault ({'+'.join(decision.labels) or reason}): "
            f"{frame.kind} {frame.source} -> {frame.dest} {reason}"
        )

    # -- transport surface --------------------------------------------------- #

    def send(self, frame: Frame) -> None:
        decision = self.plan.decide(frame)
        if not decision.labels:
            self.inner.send(frame)
            return
        self._count(decision, frame)
        if decision.terminal:
            return  # one-way loss is silent, like the real network
        self._pause(decision.delay)
        wire = self._corrupted(frame) if decision.corrupt else frame
        if decision.duplicate:
            try:
                self.inner.send(wire)
            except Exception as exc:
                self._journal("fault-duplicate-error", decision, frame, error=repr(exc))
        try:
            self.inner.send(wire)
        except NapletCommunicationError:
            raise
        except Exception as exc:
            # A corrupted one-way frame may blow up inside a synchronous
            # in-memory handler; normalize to the wire-error contract.
            raise InjectedFault(f"injected corruption broke delivery: {exc}") from exc
        if decision.crash_after:
            raise self._fail(decision, frame)

    def request(self, frame: Frame, timeout: float | None = None) -> bytes:
        decision = self.plan.decide(frame)
        if not decision.labels:
            return self.inner.request(frame, timeout)
        self._count(decision, frame)
        if decision.terminal:
            raise self._fail(decision, frame)
        self._pause(decision.delay)
        wire = self._corrupted(frame) if decision.corrupt else frame
        if decision.duplicate:
            # Best-effort extra delivery ahead of the real exchange; the
            # receiver's dedup machinery must make this invisible.
            try:
                self.inner.request(wire, timeout)
            except Exception as exc:
                self._journal("fault-duplicate-error", decision, frame, error=repr(exc))
        reply = self.inner.request(wire, timeout)  # a failed handler raises as a wire error
        if decision.crash_after:
            raise self._fail(decision, frame)
        return reply

    # -- convenience --------------------------------------------------------- #

    def heal(self) -> None:
        self.plan.heal()

    def close(self) -> None:
        self.inner.close()
