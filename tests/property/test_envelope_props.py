"""Property tests: the compact per-field envelope.

Random field maps — scalars, bytes, lists, tuples, enum members, frozen
dataclasses — on a naplet with a navigation log of any length, dumped
toward a receiver that may or may not hold the previous image, under any
belief about what it holds: ``loads_with_info`` lands exactly the sender's
fields and log, and reports the image the sender recorded, or raises
:class:`DeltaBaseMissingError` for one full re-ship.  Any truncated or
bit-flipped envelope or field segment raises a
:class:`SerializationError` (of which that is one), or lands intact.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DeltaBaseMissingError, SerializationError
from tests.core.test_naplet import _identified
from tests.transport.images import ImageKeeper


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: int
    tags: tuple


_values = st.one_of(
    st.none(),
    st.integers(-3, 300),
    st.text(max_size=12),
    st.binary(min_size=0, max_size=60),
    st.lists(st.integers(0, 3), max_size=3),
    st.tuples(st.integers(0, 3), st.text(max_size=3)),
    st.sampled_from(Colour),
    st.builds(Point, st.integers(0, 3), st.tuples(st.text(max_size=3))),
)
_field_maps = st.dictionaries(st.sampled_from(["f0", "f1", "f2", "f3"]), _values, max_size=4)


def _travelled(agent, visits: int) -> None:
    log = agent.navigation_log
    for i in range(visits):
        log.record_arrival(f"naplet://s{i % 3}", when=float(i))
        log.record_departure(f"naplet://s{i % 3}", when=i + 0.5)


def _prepared(first: dict, visits: int, receiver_has: bool):
    sender, receiver = ImageKeeper(), ImageKeeper()
    agent = _identified("envelope")
    for name, value in first.items():
        setattr(agent, name, value)
    _travelled(agent, visits)
    payload, buffers, _ = sender.dump(agent)
    if receiver_has:
        receiver.land(payload, buffers=buffers or None)
    return sender, receiver, agent


def _log(agent) -> list[tuple]:
    return [visit.args for visit in agent.navigation_log.visits()]


class TestEnvelopeRoundTrip:
    @given(_field_maps, _field_maps, st.integers(0, 11), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_image_lands_as_sent_or_asks_for_the_full_one(
        self, first, second, visits, receiver_has, data
    ):
        sender, receiver, agent = _prepared(first, visits, receiver_has)
        nid = str(agent.naplet_id)
        prev = sender.image(nid)
        for name in set(first) - set(second):
            delattr(agent, name)
        for name, value in second.items():
            setattr(agent, name, value)
        _travelled(agent, data.draw(st.integers(0, 5), label="more visits"))
        candidates = sorted({nid, "someone-else", *prev.field_hashes().values()})
        held = data.draw(st.sets(st.sampled_from(candidates)), label="held")
        payload, buffers, cost = sender.dump(agent, held=held)
        try:
            copy, info = receiver.land(payload, buffers=buffers or None)
        except DeltaBaseMissingError:
            assert cost.delta  # only a delta may ask for the full image
            payload, buffers, cost = sender.dump(agent)
            copy, info = receiver.land(payload, buffers=buffers or None)
        assert info.pop("image").hash == info["hash"]
        assert info == {
            "v": 2,
            "mode": "delta" if cost.delta else "full",
            "nid": nid,
            "hash": sender.image(nid).hash,
        }
        assert {name: getattr(copy, name) for name in second} == second
        assert not any(hasattr(copy, name) for name in set(first) - set(second))
        assert _log(copy) == _log(agent)


class TestDamagedEnvelope:
    @given(_field_maps, st.integers(0, 9), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_or_flipped_raises_only_serialization_errors(
        self, fields, visits, delta, data
    ):
        sender, receiver, agent = _prepared(fields, visits, receiver_has=True)
        nid = str(agent.naplet_id)
        agent.count = data.draw(st.integers(0, 3), label="count")
        held = {nid, *sender.image(nid).field_hashes().values()} if delta else ()
        payload, buffers, _ = sender.dump(agent, held=held)
        segments = [bytearray(payload), *(bytearray(b) for b in buffers)]
        segment = segments[data.draw(st.integers(0, len(segments) - 1), label="segment")]
        at = data.draw(st.integers(0, max(0, len(segment) - 1)), label="at")
        if data.draw(st.booleans(), label="truncate"):
            del segment[at:]
        elif segment:
            segment[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        try:
            copy, _ = receiver.land(
                bytes(segments[0]), buffers=[bytes(s) for s in segments[1:]] or None
            )
        except SerializationError:  # DeltaBaseMissingError included
            return
        # Damage the image hash does not cover (the envelope's framing)
        # may still land: then it lands the sender's naplet, intact.
        state = {name: pickle.dumps(value) for name, value in agent.image_state().items()}
        assert {name: pickle.dumps(value) for name, value in copy.image_state().items()} == state
