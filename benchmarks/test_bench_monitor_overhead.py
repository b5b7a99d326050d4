"""E10 (ablation): NapletMonitor accounting overhead and quota-trip latency.

The monitor's checkpoint is the confinement mechanism (§5.2); this measures
what it costs per call (with and without quotas configured) and how quickly
a terminate/quota takes effect on a cooperative agent.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.server.messages import SystemControl
from repro.server.monitor import NapletMonitor, NapletOutcome, ResourceQuota
from tests.core.test_naplet import _identified


def _admit_spinner(monitor, quota=None):
    """Start an agent spinning on checkpoints; returns (block, done_event)."""
    agent = _identified()
    done = threading.Event()
    holder = {}

    def body():
        block = holder["block"]
        while True:
            block.checkpoint()

    def on_retire(naplet, outcome, error):
        holder["outcome"] = outcome
        done.set()

    monitor.admit(
        agent,
        body,
        on_retire,
        quota=quota,
        prepare=lambda b: holder.__setitem__("block", b),
    )
    return agent, holder, done


class TestMonitorOverhead:
    def test_bench_checkpoint_cost(self, benchmark, table):
        monitor = NapletMonitor("bench")
        agent = _identified()
        from repro.server.monitor import _ControlBlock

        bare = _ControlBlock(agent, ResourceQuota())
        quota_block = _ControlBlock(
            agent,
            ResourceQuota(cpu_seconds=3600, wall_seconds=3600, max_messages=10**9),
        )
        # time both variants manually for the table, benchmark the full one
        def time_block(block, n=20_000):
            start = time.perf_counter()
            for _ in range(n):
                block.checkpoint()
            return (time.perf_counter() - start) / n * 1e6

        no_quota_us = time_block(bare)
        with_quota_us = time_block(quota_block)
        table(
            "E10a — checkpoint cost per call",
            ["configuration", "µs/checkpoint"],
            [
                ["no quotas", f"{no_quota_us:.2f}"],
                ["cpu+wall+msg quotas", f"{with_quota_us:.2f}"],
            ],
        )
        # overhead stays in the microsecond regime either way
        assert with_quota_us < 100
        benchmark(quota_block.checkpoint)

    def test_bench_terminate_latency(self, benchmark, table):
        monitor = NapletMonitor("bench")
        samples = []
        for _ in range(5):
            agent, holder, done = _admit_spinner(monitor)
            start = time.perf_counter()
            holder["block"].post_interrupt(SystemControl.TERMINATE, None)
            assert done.wait(5)
            samples.append((time.perf_counter() - start) * 1000)
            assert holder["outcome"] == NapletOutcome.TERMINATED
        table(
            "E10b — terminate-to-retired latency",
            ["sample", "latency (ms)"],
            [[i, f"{v:.2f}"] for i, v in enumerate(samples)],
        )
        assert max(samples) < 1000  # cooperative checkpoints react promptly

        def kill_one():
            _agent, holder, done = _admit_spinner(monitor)
            holder["block"].post_interrupt(SystemControl.TERMINATE, None)
            assert done.wait(5)

        benchmark.pedantic(kill_one, rounds=10, iterations=1)

    def test_bench_quota_trip_latency(self, benchmark, table):
        monitor = NapletMonitor("bench")
        quota = ResourceQuota(cpu_seconds=0.02)
        agent, holder, done = _admit_spinner(monitor, quota=quota)
        start = time.perf_counter()
        assert done.wait(15)
        elapsed = time.perf_counter() - start
        assert holder["outcome"] == NapletOutcome.QUOTA
        table(
            "E10c — cpu-quota trip",
            ["metric", "value"],
            [["quota (cpu s)", quota.cpu_seconds], ["tripped after (s)", f"{elapsed:.3f}"]],
        )

        def trip_once():
            _agent, holder2, done2 = _admit_spinner(
                monitor, quota=ResourceQuota(cpu_seconds=0.005)
            )
            assert done2.wait(15)
            assert holder2["outcome"] == NapletOutcome.QUOTA

        benchmark.pedantic(trip_once, rounds=5, iterations=1)
