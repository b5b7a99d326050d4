"""Utilities: timestamps, concurrency primitives."""

from __future__ import annotations

import datetime as dt
import threading
import time

import pytest

from repro.util.concurrency import AtomicCounter, CountDownLatch, wait_until
from repro.util.timeutil import (
    compact_timestamp,
    parse_compact_timestamp,
    unique_compact_timestamp,
)


class TestTimeutil:
    def test_compact_roundtrip(self):
        when = dt.datetime(2001, 5, 12, 17, 27, 20)
        stamp = compact_timestamp(when)
        assert stamp == "010512172720"  # the paper's example moment
        assert parse_compact_timestamp(stamp) == when

    def test_now_has_12_digits(self):
        stamp = compact_timestamp()
        assert len(stamp) == 12 and stamp.isdigit()

    @pytest.mark.parametrize("bad", ["", "abc", "12345678901", "1234567890123"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_compact_timestamp(bad)

    def test_unique_stamps_never_collide(self):
        stamps = [unique_compact_timestamp() for _ in range(20)]
        assert len(set(stamps)) == 20
        assert stamps == sorted(stamps)  # logical clock is monotone

    def test_unique_stamps_thread_safe(self):
        out: list[str] = []
        lock = threading.Lock()

        def mint():
            for _ in range(20):
                stamp = unique_compact_timestamp()
                with lock:
                    out.append(stamp)

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == len(out)


class TestAtomicCounter:
    def test_sequential(self):
        counter = AtomicCounter()
        assert [counter.next() for _ in range(3)] == [1, 2, 3]
        assert counter.value == 3

    def test_initial_value(self):
        assert AtomicCounter(10).next() == 11

    def test_concurrent_uniqueness(self):
        counter = AtomicCounter()
        seen: list[int] = []
        lock = threading.Lock()

        def bump():
            for _ in range(200):
                value = counter.next()
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800


class TestCountDownLatch:
    def test_opens_at_zero(self):
        latch = CountDownLatch(2)
        latch.count_down()
        assert latch.count == 1
        latch.count_down()
        assert latch.wait(timeout=0.1)

    def test_extra_countdowns_harmless(self):
        latch = CountDownLatch(1)
        latch.count_down()
        latch.count_down()
        assert latch.count == 0

    def test_timeout(self):
        assert not CountDownLatch(1).wait(timeout=0.05)

    def test_zero_latch_already_open(self):
        assert CountDownLatch(0).wait(timeout=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountDownLatch(-1)

    def test_cross_thread(self):
        latch = CountDownLatch(3)

        def worker():
            time.sleep(0.01)
            latch.count_down()

        for _ in range(3):
            threading.Thread(target=worker).start()
        assert latch.wait(timeout=2)


class TestWaitUntil:
    def test_true_immediately(self):
        assert wait_until(lambda: True, timeout=0.01)

    def test_becomes_true(self):
        flag = {"v": False}
        threading.Timer(0.03, lambda: flag.update(v=True)).start()
        assert wait_until(lambda: flag["v"], timeout=2)

    def test_times_out(self):
        assert not wait_until(lambda: False, timeout=0.05)

