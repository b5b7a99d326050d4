"""NapletMonitor: threads, outcomes, quotas, interrupts (paper §5.2)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import NapletDeparted
from repro.server.messages import SystemControl
from repro.server.monitor import NapletMonitor, NapletOutcome, ResourceQuota
from repro.util.concurrency import wait_until
from tests.core.test_naplet import _identified


class Retirements:
    def __init__(self):
        self.records = []
        self.event = threading.Event()

    def __call__(self, naplet, outcome, error):
        self.records.append((outcome, error))
        self.event.set()

    def wait(self, timeout=5.0):
        assert self.event.wait(timeout), "naplet never retired"
        return self.records[-1]


@pytest.fixture
def monitor():
    return NapletMonitor("testhost")


class TestOutcomes:
    def test_normal_return_is_completed(self, monitor):
        agent = _identified()
        retire = Retirements()
        monitor.admit(agent, lambda: None, retire)
        outcome, error = retire.wait()
        assert outcome == NapletOutcome.COMPLETED
        assert error is None
        assert monitor.outcomes[NapletOutcome.COMPLETED] == 1

    def test_departed_signal(self, monitor):
        agent = _identified()
        retire = Retirements()

        def body():
            raise NapletDeparted("naplet://elsewhere")

        monitor.admit(agent, body, retire)
        outcome, _ = retire.wait()
        assert outcome == NapletOutcome.DEPARTED

    def test_exception_trapped_as_failed(self, monitor):
        agent = _identified()
        retire = Retirements()

        def body():
            raise RuntimeError("agent bug")

        monitor.admit(agent, body, retire)
        outcome, error = retire.wait()
        assert outcome == NapletOutcome.FAILED
        assert isinstance(error, RuntimeError)
        assert monitor.journal.count("naplet-exception") == 1

    def test_on_destroy_called_for_terminal_outcomes(self, monitor):
        agent = _identified()
        destroyed = []
        agent.on_destroy = lambda: destroyed.append(True)  # type: ignore[method-assign]
        retire = Retirements()
        monitor.admit(agent, lambda: None, retire)
        retire.wait()
        assert destroyed == [True]

    def test_admitted_counter_and_active(self, monitor):
        agent = _identified()
        retire = Retirements()
        release = threading.Event()
        block = monitor.admit(agent, lambda: release.wait(5), retire)
        assert monitor.admitted == 1
        assert monitor.active_count == 1
        assert block.naplet is agent and block.thread.is_alive()
        release.set()
        retire.wait()
        assert wait_until(lambda: monitor.active_count == 0)

    def test_wait_idle(self, monitor):
        agent = _identified()
        retire = Retirements()
        monitor.admit(agent, lambda: time.sleep(0.05), retire)
        assert monitor.wait_idle(timeout=5)


class TestQuotas:
    def _spin(self, agent, block, seconds=10.0):
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            block.checkpoint()

    def test_cpu_quota_trips(self, monitor):
        agent = _identified()
        retire = Retirements()
        quota = ResourceQuota(cpu_seconds=0.05)
        holder = {}

        def body():
            self._spin(agent, holder["block"])

        monitor.admit(agent, body, retire, quota=quota,
                      prepare=lambda b: holder.__setitem__("block", b))
        outcome, error = retire.wait(timeout=15)
        assert outcome == NapletOutcome.QUOTA
        assert error.resource == "cpu"

    def test_wall_quota_trips(self, monitor):
        agent = _identified()
        retire = Retirements()
        quota = ResourceQuota(wall_seconds=0.05)
        holder = {}

        def body():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                holder["block"].checkpoint()
                time.sleep(0.01)

        monitor.admit(agent, body, retire, quota=quota,
                      prepare=lambda b: holder.__setitem__("block", b))
        outcome, error = retire.wait(timeout=15)
        assert outcome == NapletOutcome.QUOTA
        assert error.resource == "wall"

    def test_message_quota_trips(self, monitor):
        agent = _identified()
        retire = Retirements()
        quota = ResourceQuota(max_messages=3)
        holder = {}

        def body():
            block = holder["block"]
            for _ in range(5):
                block.account_message(10)
            block.checkpoint()

        monitor.admit(agent, body, retire, quota=quota,
                      prepare=lambda b: holder.__setitem__("block", b))
        outcome, error = retire.wait()
        assert outcome == NapletOutcome.QUOTA
        assert error.resource == "messages"

    def test_message_bytes_quota(self, monitor):
        agent = _identified()
        retire = Retirements()
        quota = ResourceQuota(max_message_bytes=100)
        holder = {}

        def body():
            holder["block"].account_message(1000)
            holder["block"].checkpoint()

        monitor.admit(agent, body, retire, quota=quota,
                      prepare=lambda b: holder.__setitem__("block", b))
        outcome, error = retire.wait()
        assert error.resource == "message-bytes"

    def test_usage_visible_while_running(self, monitor):
        agent = _identified()
        retire = Retirements()
        release = threading.Event()
        holder = {}

        def body():
            holder["block"].account_message(50)
            release.wait(5)

        block = monitor.admit(agent, body, retire,
                              prepare=lambda b: holder.__setitem__("block", b))
        assert wait_until(lambda: block.usage_copy().messages_sent == 1)
        assert monitor.active_count == 1
        release.set()
        retire.wait()
        assert wait_until(lambda: monitor.active_count == 0)  # gone after retire


class TestInterrupts:
    def test_terminate_interrupt(self, monitor):
        agent = _identified()
        seen = []
        agent.on_interrupt = lambda c, p=None: seen.append((c, p))  # type: ignore[method-assign]
        retire = Retirements()
        holder = {}

        def body():
            while True:
                holder["block"].checkpoint()
                time.sleep(0.005)

        monitor.admit(agent, body, retire,
                      prepare=lambda b: holder.__setitem__("block", b))
        holder["block"].post_interrupt(SystemControl.TERMINATE, "why")
        outcome, _ = retire.wait()
        assert outcome == NapletOutcome.TERMINATED
        assert (SystemControl.TERMINATE, "why") in seen

    @pytest.mark.slow  # the 0.08s park window is a timing-bound negative check
    def test_suspend_resume(self, monitor):
        agent = _identified()
        stopped = []
        agent.on_stop = lambda: stopped.append(True)  # type: ignore[method-assign]
        retire = Retirements()
        progress = []
        holder = {}

        def body():
            for i in range(200):
                holder["block"].checkpoint()
                progress.append(i)
                time.sleep(0.002)

        monitor.admit(agent, body, retire,
                      prepare=lambda b: holder.__setitem__("block", b))
        assert wait_until(lambda: len(progress) > 3)
        holder["block"].post_interrupt(SystemControl.SUSPEND, None)
        assert wait_until(lambda: bool(stopped)), "on_stop never called"
        frozen_at = len(progress)
        time.sleep(0.08)
        assert len(progress) <= frozen_at + 1  # parked
        holder["block"].post_interrupt(SystemControl.RESUME, None)
        assert wait_until(lambda: len(progress) > frozen_at + 3)
        holder["block"].post_interrupt(SystemControl.TERMINATE, None)
        retire.wait()

    def test_callback_is_application_defined(self, monitor):
        agent = _identified()
        seen = []
        agent.on_interrupt = lambda c, p=None: seen.append(c)  # type: ignore[method-assign]
        retire = Retirements()
        done = threading.Event()
        holder = {}

        def body():
            while not done.is_set():
                holder["block"].checkpoint()
                time.sleep(0.005)

        monitor.admit(agent, body, retire,
                      prepare=lambda b: holder.__setitem__("block", b))
        holder["block"].post_interrupt(SystemControl.CALLBACK, {"ask": "status"})
        assert wait_until(lambda: SystemControl.CALLBACK in seen)
        done.set()
        retire.wait()

    def test_interrupt_unknown_naplet_returns_false(self, small_line):
        from repro.core.naplet_id import NapletID

        _network, servers = small_line
        # Interrupts are addressed by id through the server's naplet table.
        assert not servers["s01"].manager.interrupt(
            NapletID.parse("x@y:240101120000:0"), SystemControl.TERMINATE
        )

    def test_prepare_hook_runs_before_thread(self, monitor):
        agent = _identified()
        order = []
        retire = Retirements()

        def prepare(block):
            order.append("prepare")

        def body():
            order.append("body")

        monitor.admit(agent, body, retire, prepare=prepare)
        retire.wait()
        assert order == ["prepare", "body"]
