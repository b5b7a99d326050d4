"""Deterministic fault injection and resilience policies.

This package supplies both halves of the reliability story promised by the
Naplet paper's "reliable location-independent communication":

- the *attack* side — :class:`FaultPlan`, a seeded, declarative way to
  drop, delay, duplicate, and corrupt frames, refuse dials, partition
  hosts, and crash mid-transfer, which any transport carries out once it
  is set as that transport's ``fault_plan``;
- the *defense* side — :class:`RetryPolicy` (bounded exponential backoff
  with seeded jitter, applied to migrations and messenger sends) and the
  :class:`DeadLetterQueue` that catches messages the retries could not
  save, for requeue once the network heals.

See DESIGN.md section 6.3 for the full fault model and semantics.
"""

from repro.faults.deadletter import DeadLetter, DeadLetterQueue
from repro.faults.plan import FaultAction, FaultDecision, FaultPlan, FaultRule, InjectedFault
from repro.faults.retry import RetryPolicy, no_retry

__all__ = [
    "FaultAction",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "RetryPolicy",
    "no_retry",
    "DeadLetter",
    "DeadLetterQueue",
]
