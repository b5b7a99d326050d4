"""NapletMonitor: confined execution and resource control (paper §5.2).

On receiving a naplet the monitor creates a *NapletThread* for it, assigns
the runtime context, and sets traps for execution exceptions.  Python has no
thread groups or priorities, so confinement is cooperative — exactly the
mechanism/policy split the paper prescribes:

- the **mechanism** is the per-naplet control block: CPU time sampled with
  ``time.thread_time`` at checkpoints, wall-clock age, message/byte counts
  reported by the messenger, pending interrupts, and a suspend gate;
- **policies** are :class:`ResourceQuota` values and the server's security
  rules; exceeding a quota raises
  :class:`~repro.core.errors.ResourceLimitExceeded` at the next checkpoint.

System messages (terminate/suspend/resume/callback) are posted to the
control block as interrupts by the naplet table (manager.py), which holds
those that come before admission: the naplet's ``on_interrupt`` hook runs
first (the paper leaves the reaction to the naplet creator), then the block
enforces the control's built-in meaning.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import (
    NapletCompleted,
    NapletDeparted,
    NapletFrozen,
    NapletInterrupted,
    NapletTerminated,
    ResourceLimitExceeded,
)
from repro.server.messages import SystemControl
from repro.telemetry.journal import SpaceJournal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.telemetry.exposition import ServerTelemetry

__all__ = ["ResourceQuota", "ResourceUsage", "NapletOutcome", "NapletMonitor"]


@dataclass(frozen=True)
class ResourceQuota:
    """Per-naplet consumption limits (None = unlimited); message bytes are
    counted as sent: body, addressing and trace fields together."""

    cpu_seconds: float | None = None
    wall_seconds: float | None = None
    max_messages: int | None = None
    max_message_bytes: int | None = None


@dataclass
class ResourceUsage:
    """What one naplet has consumed at this server."""

    cpu_seconds: float = 0.0
    started_at: float = field(default_factory=time.monotonic)
    messages_sent: int = 0
    message_bytes: int = 0

    @property
    def wall_seconds(self) -> float:
        return time.monotonic() - self.started_at


class NapletOutcome:
    """Terminal states of one visit."""

    DEPARTED = "departed"
    COMPLETED = "completed"
    TERMINATED = "terminated"
    FAILED = "failed"
    QUOTA = "quota-exceeded"
    FROZEN = "frozen"


class _ControlBlock:
    """Per-naplet monitor state; its checkpoint() is the context hook."""

    def __init__(self, naplet: "Naplet", quota: ResourceQuota) -> None:
        self.naplet = naplet
        self.quota = quota
        self.usage = ResourceUsage()
        self._pending: list[tuple[str, Any]] = []
        self._lock = threading.Lock()
        self._resume = threading.Event()
        self._resume.set()  # not suspended
        self._last_thread_time: float | None = None
        self.thread: threading.Thread | None = None

    # -- called from foreign threads ------------------------------------- #

    def post_interrupt(self, control: str, payload: Any) -> None:
        with self._lock:
            self._pending.append((control, payload))
        if control == SystemControl.RESUME:
            self._resume.set()

    def account_message(self, nbytes: int) -> None:
        with self._lock:
            self.usage.messages_sent += 1
            self.usage.message_bytes += nbytes

    def usage_copy(self) -> ResourceUsage:
        """The usage so far, copied under the block's lock so a naplet
        checkpointing concurrently cannot tear the reading."""
        with self._lock:
            return replace(self.usage)

    # -- called from the naplet thread -------------------------------------- #

    def _sample_cpu(self) -> None:
        now = time.thread_time()
        if self._last_thread_time is None:
            self._last_thread_time = now
            return
        self.usage.cpu_seconds += now - self._last_thread_time
        self._last_thread_time = now

    def _check_quotas(self) -> None:
        quota = self.quota
        usage = self.usage
        if quota.cpu_seconds is not None and usage.cpu_seconds > quota.cpu_seconds:
            raise ResourceLimitExceeded("cpu", usage.cpu_seconds, quota.cpu_seconds)
        if quota.wall_seconds is not None and usage.wall_seconds > quota.wall_seconds:
            raise ResourceLimitExceeded("wall", usage.wall_seconds, quota.wall_seconds)
        if quota.max_messages is not None and usage.messages_sent > quota.max_messages:
            raise ResourceLimitExceeded("messages", usage.messages_sent, quota.max_messages)
        if (
            quota.max_message_bytes is not None
            and usage.message_bytes > quota.max_message_bytes
        ):
            raise ResourceLimitExceeded(
                "message-bytes", usage.message_bytes, quota.max_message_bytes
            )

    def checkpoint(self) -> None:
        """Cooperative trap: accounting, interrupts, suspension, quotas.

        Suspension is a polling wait so that controls arriving *while*
        suspended (terminate, further callbacks) are still honoured.
        """
        self._sample_cpu()
        while True:
            with self._lock:
                pending = self._pending.pop(0) if self._pending else None
            if pending is not None:
                control, payload = pending
                self.naplet.on_interrupt(control, payload)
                if control == SystemControl.TERMINATE:
                    raise NapletTerminated(payload)
                if control == SystemControl.FREEZE:
                    self.naplet.on_stop()
                    raise NapletFrozen(payload)
                if control == SystemControl.SUSPEND:
                    self._resume.clear()
                    self.naplet.on_stop()
                elif control == SystemControl.RESUME:
                    self._resume.set()
                continue
            if not self._resume.is_set():
                self._resume.wait(0.05)
                continue
            break
        self._check_quotas()


class NapletMonitor:
    """Creates naplet threads and counts what they come to."""

    def __init__(
        self,
        hostname: str,
        default_quota: ResourceQuota | None = None,
        journal: SpaceJournal | None = None,
        telemetry: "ServerTelemetry | None" = None,
    ) -> None:
        self.hostname = hostname
        self.default_quota = default_quota if default_quota is not None else ResourceQuota()
        # Explicit None-check: an empty journal is falsy (it has __len__),
        # so `or` would silently drop the server's own.
        self.journal = journal if journal is not None else SpaceJournal(hostname)
        self.telemetry = telemetry
        # Blocks whose thread has not finished.  A naplet that lands back
        # here while the thread of its previous visit is still unwinding the
        # departure has two: active_count and wait_idle see both.
        self._live: set[_ControlBlock] = set()
        self._lock = threading.Lock()
        # The one count of admissions and outcomes (the journal keeps no
        # record of either): the space summary reports them with telemetry
        # off, when the journal is dark.
        self.admitted = 0
        self.outcomes: dict[str, int] = {}
        if telemetry is not None:  # the metrics page's view of that count
            telemetry.registry.counter_fn(
                "naplet_outcomes_total", "Visit outcomes, by terminal state", "outcome",
                lambda: dict(self.outcomes),
            )

    # -- admission ----------------------------------------------------------- #

    def admit(
        self,
        naplet: "Naplet",
        run_body: Callable[[], None],
        on_retire: Callable[["Naplet", str, BaseException | None], None],
        quota: ResourceQuota | None = None,
        prepare: Callable[[_ControlBlock], None] | None = None,
    ) -> _ControlBlock:
        """Start *naplet* on its own thread.

        ``prepare`` runs synchronously before the thread starts (the
        Navigator binds the context there, wiring the control block's
        checkpoint in); ``run_body`` is the thread's entry; ``on_retire`` is
        invoked on the naplet thread after every outcome (including
        DEPARTED after a migration).
        """
        block = _ControlBlock(naplet, quota or self.default_quota)
        nid = naplet.naplet_id
        with self._lock:
            self._live.add(block)
            self.admitted += 1
        if prepare is not None:
            prepare(block)

        def _thread_main() -> None:
            outcome = NapletOutcome.COMPLETED
            error: BaseException | None = None
            try:
                block._sample_cpu()
                run_body()
            except NapletDeparted:
                outcome = NapletOutcome.DEPARTED
            except NapletCompleted:
                outcome = NapletOutcome.COMPLETED
            except NapletFrozen as exc:
                outcome, error = NapletOutcome.FROZEN, exc
            except NapletTerminated as exc:
                outcome, error = NapletOutcome.TERMINATED, exc
            except ResourceLimitExceeded as exc:
                outcome, error = NapletOutcome.QUOTA, exc
            except NapletInterrupted as exc:
                outcome, error = NapletOutcome.TERMINATED, exc
            except Exception as exc:  # the paper's "traps for execution exceptions"
                outcome, error = NapletOutcome.FAILED, exc
                self.journal.record(
                    "naplet-exception",
                    naplet=str(nid),
                    error=repr(exc),
                    trace=traceback.format_exc(limit=8),
                )
            finally:
                self._finish(block, naplet, outcome, error, on_retire)

        thread = threading.Thread(
            target=_thread_main, name=f"naplet-{nid}@{self.hostname}", daemon=True
        )
        block.thread = thread
        thread.start()
        return block

    def _finish(
        self,
        block: _ControlBlock,
        naplet: "Naplet",
        outcome: str,
        error: BaseException | None,
        on_retire: Callable[["Naplet", str, BaseException | None], None],
    ) -> None:
        nid = naplet.naplet_id
        with self._lock:
            self._live.discard(block)
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if self.telemetry is not None:
            self.telemetry.cpu_seconds.inc(block.usage.cpu_seconds)
            if outcome == NapletOutcome.QUOTA:
                resource = getattr(error, "resource", "unknown")
                self.telemetry.quota_trips.inc(resource=resource)
                self.journal.record(
                    "quota-trip", naplet=str(nid), resource=resource
                )
        try:
            if outcome in (
                NapletOutcome.COMPLETED,
                NapletOutcome.TERMINATED,
                NapletOutcome.FAILED,
                NapletOutcome.QUOTA,
            ):
                naplet.on_destroy()
        finally:
            on_retire(naplet, outcome, error)

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._live)

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until no naplet threads remain (tests/benchmarks helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                threads = [b.thread for b in self._live if b.thread is not None]
            if not threads:
                return True
            try:
                threads[0].join(0.01)
            except RuntimeError:
                # Registered but not yet started (admission in progress).
                time.sleep(0.01)
        return self.active_count == 0
