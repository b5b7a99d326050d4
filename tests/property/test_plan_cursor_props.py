"""Property test: a naplet's plan and cursor travel apart and come back whole.

A naplet ships its itinerary as two fields, the plan (the pattern tree) and
the cursor (frames naming their patterns by child-index path).  For any
nested Seq/Alt/Par/Repeat plan, under every join policy, advanced by any
number of steps, a per-field dump/load, a ``deepcopy``, a ``clone()`` and a
freeze/thaw (single-pickle) copy step through exactly the future the
original does — the dispatches of the naplet and of every clone it forks
from then on.  Equal plans pickle to equal bytes, before and after a hop,
so one content hash names a plan in every naplet that carries it.
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itinerary.itinerary import Itinerary
from repro.itinerary.pattern import (
    AltPattern,
    JoinPolicy,
    ParPattern,
    RepeatPattern,
    SeqPattern,
    SingletonPattern,
)
from repro.transport.serializer import NapletSerializer
from tests.itinerary.test_itinerary_unit import FakeOps, make_agent, run_journey

_servers = st.sampled_from([f"h{i}" for i in range(6)])


def _specs(depth: int = 3):
    """A plan as nested tuples, so equal plans can be built twice."""
    if depth == 0:
        return _servers
    kids = st.lists(_specs(depth - 1), min_size=1, max_size=3)
    return st.one_of(
        _servers,
        st.tuples(st.just("seq"), kids),
        st.tuples(st.just("alt"), kids),
        st.tuples(st.just("par"), kids, st.sampled_from(list(JoinPolicy))),
        st.tuples(st.just("repeat"), _specs(depth - 1), st.integers(1, 2)),
    )


def _build(spec):
    if isinstance(spec, str):
        return SingletonPattern.to(spec)
    kind, body, *rest = spec
    if kind == "repeat":
        return RepeatPattern(_build(body), rest[0])
    children = [_build(child) for child in body]
    if kind == "par":
        return ParPattern(children, join=rest[0])
    return SeqPattern(children) if kind == "seq" else AltPattern(children)


class _Ops(FakeOps):
    """FakeOps whose JOIN waits pass: a copy's clones forked before the copy
    was taken notified another ops instance."""

    def await_join(self, naplet, tokens, timeout):
        pass


def _advance(agent, steps: int) -> None:
    ops = _Ops()
    for _ in range(steps):
        if agent.itinerary.step(agent, ops) is None:
            return


def _future(agent) -> tuple[str | None, list[str], bool]:
    """The visit it is at, then every dispatch from here on — the naplet's
    and its clones' — in order."""
    visit = agent.itinerary.current_visit
    ops = _Ops()
    run_journey(agent, ops)
    servers = [server for _nid, server in ops.dispatches]
    return visit and visit.server, servers, agent.itinerary.completed


def _per_field(agent):
    data, buffers, _cost, _image = NapletSerializer().dumps_with_cost(agent)
    return NapletSerializer().loads(data, buffers=buffers or None)


def _frozen(agent):
    serializer = NapletSerializer()
    return serializer.loads(serializer.dumps(agent))


def _plan_hash(serializer: NapletSerializer, agent) -> str:
    *_, image = serializer.dumps_with_cost(agent)
    return image.entries["_plan"].hash


class TestPlanAndCursorRoundTrip:
    @given(_specs(), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_every_copy_steps_through_the_originals_future(self, spec, steps):
        agent = make_agent(_build(spec))
        _advance(agent, steps)
        copies = [_per_field(agent), copy.deepcopy(agent), agent.clone(), _frozen(agent)]
        expected = _future(agent)
        for duplicate in copies:
            assert _future(duplicate) == expected

    @given(_specs(), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_equal_plans_share_one_hash_across_naplets_and_hops(self, spec, steps):
        first, second = make_agent(_build(spec)), make_agent(_build(spec))
        _advance(first, steps)
        digest = _plan_hash(NapletSerializer(), first)
        assert _plan_hash(NapletSerializer(), second) == digest
        # Re-pickled where it landed, the plan still hashes the same.
        sender, receiver = NapletSerializer(), NapletSerializer()
        data, buffers, _cost, _image = sender.dumps_with_cost(first)
        landed = receiver.loads(data, buffers=buffers or None)
        assert _plan_hash(receiver, landed) == digest

    @given(_specs(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_an_itinerary_pickled_alone_is_self_contained(self, spec, steps):
        agent = make_agent(_build(spec))
        _advance(agent, steps)
        alone = pickle.loads(pickle.dumps(agent.itinerary))
        assert isinstance(alone, Itinerary) and alone.pattern is not agent.itinerary.pattern
        duplicate = copy.deepcopy(agent)
        duplicate.set_itinerary(alone)
        assert _future(duplicate) == _future(agent)
