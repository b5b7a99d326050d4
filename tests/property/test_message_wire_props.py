"""Property: a message frame reads back as the message that was sent.

The envelope rides as text headers that are left out where the receiver's
default holds (origin: the frame's source; sender: the origin; hops: 0;
no trace), and the body, or a system message's payload, is the payload.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naplet_id import NapletID
from repro.server import deploy
from repro.server.messages import SystemControl, SystemMessage, UserMessage
from repro.simnet import VirtualNetwork, line
from tests.property.test_naplet_id_props import naplet_ids

SOURCE, DEST = "naplet://s00", "naplet://s01"


def _reads_as_id(text: str) -> bool:
    try:
        NapletID.parse(text)
    except ValueError:
        return False
    return True


_urns = st.sampled_from([SOURCE, DEST, "naplet://elsewhere"])
# A text sender that reads as a naplet id arrives as one; any other text,
# a server's urn and "system" arrive as the same text.
_texts = st.text(max_size=20).filter(lambda text: not _reads_as_id(text))
_senders = st.one_of(naplet_ids(), _urns, st.just("system"), _texts)
_hex = st.text(alphabet="0123456789abcdef", min_size=1, max_size=32)
_traces = st.one_of(st.just((None, None)), st.tuples(_hex, st.one_of(st.none(), _hex)))
_contents = st.one_of(
    st.none(), st.integers(), st.text(), st.binary(max_size=64),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=4),
)
_envelopes = st.fixed_dictionaries(
    {
        "sender": _senders,
        "target": naplet_ids(),
        "message_id": st.integers(1, 2**40),
        "origin": _urns,
        "hops": st.integers(0, 16),
    }
)


@st.composite
def messages(draw):
    envelope = draw(_envelopes)
    if draw(st.booleans()):
        control = draw(st.sampled_from(SystemControl.ALL))
        return SystemMessage(control=control, payload=draw(_contents), **envelope)
    trace_id, parent = draw(_traces)
    return UserMessage(body=draw(_contents), trace_id=trace_id, trace_parent=parent, **envelope)


@pytest.fixture(scope="module")
def pair():
    network = VirtualNetwork(line(2, prefix="s"))
    servers = deploy(network)
    yield servers["s00"].messenger, servers["s01"].messenger
    network.shutdown()


@settings(max_examples=200, deadline=None)
@given(message=messages())
def test_a_frame_reads_back_as_its_message(pair, message):
    sender, receiver = pair
    frame = sender._frame(message, DEST)
    assert frame.source == SOURCE
    received = receiver._open(receiver._read(frame), frame.payload)
    assert received == message
    headers = frame.headers
    assert ("origin" in headers) == (message.origin != SOURCE)
    assert ("from" in headers) == (message.sender != message.origin)
    assert ("hops" in headers) == (message.hops > 0)
    assert ("control" in headers) == isinstance(message, SystemMessage)
