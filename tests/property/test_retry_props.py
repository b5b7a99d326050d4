"""Property tests: retry backoff schedules and Alt failover ordering.

The backoff half pins the :class:`~repro.faults.retry.RetryPolicy`
algebra — monotone growth, the ``max_delay`` cap, the jitter envelope,
and seed determinism — plus the attempt-count contract of ``run()``.
The failover half drives random Alt patterns through the launch-time
travel loop and checks candidates are burned strictly in declaration
order, with one ``alt_failovers`` tick per abandoned branch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NapletMigrationError
from repro.faults import RetryPolicy, no_retry
from repro.itinerary.pattern import alt, seq
from tests.itinerary.test_itinerary_unit import FakeOps, make_agent
from tests.itinerary.test_launch_with import RecordingTransfer


def policies(max_jitter: float = 0.9):
    """RetryPolicy instances with a fixed seed and a no-op sleep."""
    return st.builds(
        lambda attempts, base, mult, headroom, jitter, seed: RetryPolicy(
            max_attempts=attempts,
            base_delay=base,
            multiplier=mult,
            max_delay=base + headroom,
            jitter=jitter,
            seed=seed,
            sleep=lambda _wait: None,
        ),
        attempts=st.integers(min_value=1, max_value=6),
        base=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        mult=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
        headroom=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=max_jitter, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )


class Retryable(Exception):
    pass


class GiveUp(Retryable):
    """Subclasses the retryable type — give_up_on must still win."""


class TestBackoffSchedule:
    @given(policies())
    @settings(max_examples=100)
    def test_backoff_is_monotone_and_capped(self, policy):
        waits = [policy.backoff(i) for i in range(8)]
        assert all(a <= b for a, b in zip(waits, waits[1:]))
        assert all(0.0 <= w <= policy.max_delay for w in waits)

    @given(policies())
    @settings(max_examples=100)
    def test_schedule_length_and_jitter_envelope(self, policy):
        schedule = policy.schedule()
        assert len(schedule) == policy.retries == policy.max_attempts - 1
        for index, wait in enumerate(schedule):
            base = policy.backoff(index)
            low = base * (1.0 - policy.jitter)
            high = base * (1.0 + policy.jitter)
            assert low - 1e-12 <= wait <= high + 1e-12

    @given(policies())
    @settings(max_examples=60)
    def test_schedule_is_deterministic_under_a_fixed_seed(self, policy):
        twin = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay=policy.base_delay,
            multiplier=policy.multiplier,
            max_delay=policy.max_delay,
            jitter=policy.jitter,
            seed=policy.seed,
        )
        assert policy.schedule() == twin.schedule()

    @given(policies(max_jitter=0.0))
    @settings(max_examples=60)
    def test_zero_jitter_schedule_equals_raw_backoff(self, policy):
        assert policy.schedule() == tuple(
            policy.backoff(i) for i in range(policy.retries)
        )


class TestRunContract:
    @given(policies(), st.data())
    @settings(max_examples=80)
    def test_eventual_success_uses_exactly_failures_plus_one_attempts(
        self, policy, data
    ):
        failures = data.draw(
            st.integers(min_value=0, max_value=policy.max_attempts - 1)
        )
        calls = []

        def flaky():
            calls.append(True)
            if len(calls) <= failures:
                raise Retryable("transient")
            return "ok"

        assert policy.run(flaky, retry_on=(Retryable,)) == "ok"
        assert len(calls) == failures + 1

    @given(policies())
    @settings(max_examples=80)
    def test_exhaustion_raises_after_max_attempts(self, policy):
        calls = []
        retries = []

        def doomed():
            calls.append(True)
            raise Retryable("always down")

        with pytest.raises(Retryable):
            policy.run(
                doomed,
                retry_on=(Retryable,),
                on_retry=lambda attempt, wait, exc: retries.append((attempt, wait)),
            )
        assert len(calls) == policy.max_attempts
        assert [attempt for attempt, _ in retries] == list(
            range(1, policy.max_attempts)
        )

    @given(policies())
    @settings(max_examples=60)
    def test_sleeps_follow_the_positive_schedule_entries(self, policy):
        slept = []
        timed = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay=policy.base_delay,
            multiplier=policy.multiplier,
            max_delay=policy.max_delay,
            jitter=policy.jitter,
            seed=policy.seed,
            sleep=slept.append,
        )

        def doomed():
            raise Retryable("always down")

        with pytest.raises(Retryable):
            timed.run(doomed, retry_on=(Retryable,))
        expected = [wait for wait in timed.schedule() if wait > 0]
        assert slept == expected

    @given(policies())
    @settings(max_examples=60)
    def test_give_up_on_beats_retry_on_even_for_subclasses(self, policy):
        calls = []

        def denied():
            calls.append(True)
            raise GiveUp("deterministic rejection")

        with pytest.raises(GiveUp):
            policy.run(denied, retry_on=(Retryable,), give_up_on=(GiveUp,))
        assert len(calls) == 1

    def test_first_try_success_draws_no_jitter_schedule(self, monkeypatch):
        from repro.faults import retry as retrymod

        def no_rng(*_args):
            raise AssertionError("a first-try success must not build a Random")

        monkeypatch.setattr(retrymod.random, "Random", no_rng)
        assert RetryPolicy(max_attempts=4).run(lambda: "ok", retry_on=(Retryable,)) == "ok"

    def test_seeded_retry_waits_equal_the_schedule(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.5, seed=1234, sleep=lambda _w: None)
        waits = []

        def doomed():
            raise Retryable("always down")

        with pytest.raises(Retryable):
            policy.run(
                doomed,
                retry_on=(Retryable,),
                on_retry=lambda _attempt, wait, _exc: waits.append(wait),
            )
        assert tuple(waits) == policy.schedule()

    def test_no_retry_is_the_single_attempt_policy(self):
        assert no_retry().max_attempts == 1
        assert no_retry().schedule() == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"base_delay": 0.2, "max_delay": 0.1},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


_mirrors = st.lists(
    st.sampled_from([f"m{i}" for i in range(8)]),
    min_size=1,
    max_size=6,
    unique=True,
)


class TestAltFailoverOrdering:
    @given(_mirrors, st.data())
    @settings(max_examples=80, deadline=None)
    def test_candidates_burn_in_declaration_order(self, mirrors, data):
        unreachable = set(
            data.draw(st.lists(st.sampled_from(mirrors), unique=True))
        )
        agent = make_agent(alt(*mirrors))
        transfer = RecordingTransfer(unreachable=unreachable)
        launched = agent.itinerary.launch_with(agent, FakeOps(), transfer)

        reachable = [m for m in mirrors if m not in unreachable]
        failed = [f.server for f in agent.itinerary.failures]
        if reachable:
            first = reachable[0]
            assert launched is True
            assert transfer.sent == [first]
            # Every candidate declared before the winner was tried, in order.
            assert failed == mirrors[: mirrors.index(first)]
            assert agent.itinerary.alt_failovers == len(failed)
        else:
            # Exhausted Alt degrades to skip: no transfer, journey complete.
            assert launched is False
            assert transfer.sent == []
            assert failed == mirrors
            assert agent.itinerary.completed

    @given(_mirrors)
    @settings(max_examples=40, deadline=None)
    def test_no_failures_means_no_failovers(self, mirrors):
        agent = make_agent(alt(*mirrors))
        transfer = RecordingTransfer()
        assert agent.itinerary.launch_with(agent, FakeOps(), transfer) is True
        assert transfer.sent == [mirrors[0]]
        assert agent.itinerary.alt_failovers == 0
        assert agent.itinerary.failures == []

    @given(_mirrors, st.sampled_from([f"m{i}" for i in range(8)]))
    @settings(max_examples=40, deadline=None)
    def test_failover_inside_seq_still_reaches_the_next_leg(self, mirrors, tail):
        """seq(alt(...), tail): whichever mirror wins, the journey goes on."""
        unreachable = set(mirrors[:-1])  # only the last mirror answers
        agent = make_agent(seq(alt(*mirrors), tail))
        transfer = RecordingTransfer(unreachable=unreachable)
        assert agent.itinerary.launch_with(agent, FakeOps(), transfer) is True
        assert transfer.sent == [mirrors[-1]]
        assert agent.itinerary.alt_failovers == len(mirrors) - 1
