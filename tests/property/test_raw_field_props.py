"""Property tests: a field whose value is exactly ``bytes`` is its own image.

Exact-``bytes`` fields of any length (empty included), a ``bytes`` subclass
(which stays pickled), ``str`` fields, and one field switching between
``bytes`` and ``str`` from hop to hop — some of whose ``bytes`` are exactly
the previous ``str``'s pickle — are dumped with ``dumps_with_cost`` and
landed with ``loads_with_info`` under every fate (ships, omitted,
referenced).  Each lands equal to what was sent and of the same type; an
exact-``bytes`` value lands as the receiver's one cached object.  An
envelope with one raw-kind marker flipped, or one byte flipped inside a raw
segment, never lands: it raises :class:`SerializationError`
(:class:`DeltaBaseMissingError` is one).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SerializationError
from tests.core.test_naplet import _identified
from tests.transport.envelopes import read_envelope, write_envelope
from tests.transport.images import ImageKeeper


class Blob(bytes):
    """A ``bytes`` subclass: pickled, so its type survives the hop."""


FATES = ("ships", "omitted", "referenced")
# Names a pickled field must escape to stay apart from the raw spelling.
_NAMES = ("cargo", "=odd", "-odd")
_bytes = st.binary(max_size=300)
_values = st.one_of(_bytes, _bytes.map(Blob), st.text(max_size=40))
_MIMIC = object()  # the previous value's pickled image, as exact bytes


class _Space:
    """A naplet at a sender, and a mirror that landed every image it dumped."""

    def __init__(self, fields: dict) -> None:
        self.sender, self.mirror = ImageKeeper(), ImageKeeper()
        self.agent = _identified("raw")
        self.nid = str(self.agent.naplet_id)
        self.hop(fields, "ships")

    def entry(self, name: str):
        return self.sender.image(self.nid).entries[name]

    def dump(self, fields: dict, fate: str):
        """Set *fields* and dump toward a mirror told it holds what *fate* needs."""
        for name, value in fields.items():
            setattr(self.agent, name, value)
        record = self.sender.image(self.nid)
        hashes = set(record.field_hashes().values()) if record is not None else set()
        held = {"ships": set(), "omitted": {self.nid, *hashes}, "referenced": hashes}[fate]
        data, buffers, _ = self.sender.dump(self.agent, held=held)
        return data, buffers

    def hop(self, fields: dict, fate: str):
        data, buffers = self.dump(fields, fate)
        envelope = read_envelope(data, buffers)
        copy, _ = self.mirror.land(data, buffers=buffers or None)
        for name, value in fields.items():
            landed = getattr(copy, name)
            assert landed == value and type(landed) is type(value)
            if type(value) is bytes:
                mirror = self.mirror
                assert landed is mirror.blobs.get(mirror.image(self.nid).entries[name].hash)
            marked = name in envelope["fields"] or name in envelope["refs"]
            assert (name in envelope["raw"]) == (marked and type(value) is bytes)
        return envelope


def _fate(envelope: dict, name: str) -> str:
    if name in envelope["fields"]:
        return "ships"
    return "referenced" if name in envelope["refs"] else "omitted"


class TestRawFieldRoundTrip:
    @given(st.dictionaries(st.sampled_from(_NAMES), _values, min_size=1), st.sampled_from(FATES))
    @settings(max_examples=150, deadline=None)
    def test_an_unchanged_field_lands_as_sent_under_every_fate(self, fields, fate):
        space = _Space(fields)
        envelope = space.hop(fields, fate)
        for name in fields:
            # A hash reference is sent only when shorter than the bytes.
            short = fate == "referenced" and len(space.entry(name).blob.data) <= 32
            assert _fate(envelope, name) == ("ships" if short else fate)

    @given(
        st.lists(st.one_of(_bytes, st.text(max_size=40), st.just(_MIMIC)), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_field_switching_between_bytes_and_str_lands_as_sent(self, values, data):
        space = _Space({"cargo": b"launch"})
        for value in values:
            if value is _MIMIC:  # the same content hash under the other kind
                before = space.entry("cargo")
                value = before.blob.data if not before.raw else "launch"
            fate = data.draw(st.sampled_from(FATES), label="fate")
            space.hop({"cargo": value}, fate)


class TestTamperedKind:
    @given(
        st.binary(min_size=1, max_size=300), st.sampled_from(("ships", "referenced")),
        st.text(max_size=20), st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_flipped_marker_or_raw_byte_never_lands(self, cargo, fate, note, data):
        space = _Space({"cargo": cargo, "note": note})
        payload, buffers = space.dump({"cargo": cargo, "note": note, "count": 1}, fate)
        view = read_envelope(payload, buffers)
        view["fields"] = {name: bytes(blob) for name, blob in view["fields"].items()}
        named = sorted({*view["fields"], *view["refs"]})
        if data.draw(st.booleans(), label="flip a marker") or "cargo" not in view["fields"]:
            view["raw"] ^= {data.draw(st.sampled_from(named), label="flipped")}
        else:
            segment = bytearray(view["fields"]["cargo"])
            segment[data.draw(st.integers(0, len(segment) - 1), label="at")] ^= 1 << data.draw(
                st.integers(0, 7), label="bit"
            )
            view["fields"]["cargo"] = bytes(segment)
        with pytest.raises(SerializationError):
            space.mirror.land(write_envelope(view))
