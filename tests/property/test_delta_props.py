"""Property test: a delta lands as the sender's state, or not at all.

Whatever the naplet did to its fields between dumps, whatever the receiver
still holds and whatever the sender *believes* it holds — right, stale or
plain wrong — ``loads(dumps(...))`` reproduces ``image_state()`` (the
naplet's state less the credential, which travels as the transfer frame's
payload) exactly or raises :class:`DeltaBaseMissingError` (one full
re-ship).  Never a different state.
"""

from __future__ import annotations

import pickle

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.errors import DeltaBaseMissingError
from tests.core.test_naplet import _identified
from tests.transport.images import ImageKeeper

_NAMES = ["f0", "f1", "f2", "f3"]
_values = st.one_of(
    st.integers(0, 3),  # few values: hashes recur, as they do across naplets
    st.binary(min_size=40, max_size=60),  # longer than a hash: referable
    st.lists(st.integers(0, 3), max_size=3),  # mutable in place
)
_ops = st.one_of(
    st.tuples(st.just("rebind"), st.sampled_from(_NAMES), _values),
    st.tuples(st.just("mutate"), st.sampled_from(_NAMES), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.sampled_from(_NAMES), st.none()),
)
_rounds = st.lists(
    st.tuples(
        st.lists(_ops, max_size=5),
        st.sampled_from(["deliver", "elsewhere", "receiver-forgets"]),
    ),
    min_size=1,
    max_size=6,
)


def _apply(agent, op: str, name: str, value) -> None:
    if op == "rebind":
        setattr(agent, name, value)  # also how a deleted field comes back
    elif op == "delete":
        if hasattr(agent, name):
            delattr(agent, name)
    elif isinstance(getattr(agent, name, None), list):
        getattr(agent, name).append(value)  # in place: no dirty mark


def _state_bytes(naplet) -> dict[str, bytes]:
    """``image_state()`` field by field, as bytes two equal states share.

    Core fields have no ``__eq__``; their pickles compare instead, taken
    after one round trip because unpickling interns attribute names, which
    moves the memo references of the next pickle.
    """
    return {
        name: pickle.dumps(pickle.loads(pickle.dumps(value)))
        for name, value in naplet.image_state().items()
    }


class TestDeltaNeverLandsADifferentState:
    @given(_rounds, st.data())
    @settings(max_examples=120, deadline=None)
    def test_loads_of_dumps_is_the_state_or_delta_base_missing(self, rounds, data):
        sender, receiver = ImageKeeper(), ImageKeeper()
        agent = _identified("prop")
        nid = str(agent.naplet_id)
        seen: set[str] = {nid, "someone-else", "0" * 32}
        for ops, fate in rounds:
            for op in ops:
                _apply(agent, *op)
            if fate == "receiver-forgets":
                receiver.images.clear()
                receiver.blobs.clear()
            held = data.draw(st.sets(st.sampled_from(sorted(seen))), label="held")
            payload, buffers, cost = sender.dump(agent, held=held)
            seen.update(sender.image(nid).field_hashes().values())
            if fate == "elsewhere":
                continue  # shipped to some other peer: the receiver's record goes stale
            try:
                copy, _ = receiver.land(payload, buffers=buffers or None)
            except DeltaBaseMissingError:
                event("asked for the full image")
                assert cost.delta  # only a delta may ask for the full image
                payload, buffers, cost = sender.dump(agent)
                assert not cost.delta
                copy, _ = receiver.land(payload, buffers=buffers or None)
            event("landed a delta" if cost.delta else "landed a full image")
            assert _state_bytes(copy) == _state_bytes(agent)
