"""Property tests: the wire grammar's decoders.

Whatever bytes a peer sends — arbitrary, or a valid reply, credential or
envelope with bytes flipped, cut or appended — the reply reader, the
credential decoder and the envelope decoders either read them or raise
:class:`NapletCommunicationError`, never anything else.  What the encoders
write reads back exactly: a credential to a byte-identical signed payload
and signature, an envelope to the same kind, source, dest, headers,
correlation id, flags and segment sizes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credential import Credential, SigningAuthority
from repro.core.errors import NapletCommunicationError
from repro.core.naplet_id import NapletID
from repro.transport.base import (
    Frame,
    decode_credential,
    encode_credential,
    read_reply,
    refusal,
    reply,
)
from repro.transport.pool import decode_reply, decode_request, encode_reply, encode_request

_STATUSES = ("ok", "denied", "need_full", "delivered")

# Text a field may hold: the separators of the signed payload, spaces,
# newlines and non-ASCII among anything else.
_text = st.text(
    alphabet=st.one_of(st.sampled_from("|;= \n\t:@é✓"), st.characters(codec="utf-8")),
    max_size=12,
)
_names = st.text(alphabet="abcdefxyz019._-", min_size=1, max_size=10)

_authority = SigningAuthority()
for _owner in ("alice", "bob"):
    _authority.register_owner(_owner)


@st.composite
def _credentials(draw) -> Credential:
    nid = NapletID(
        owner=draw(st.sampled_from(["alice", "bob"])),
        home=draw(_names),
        stamp="240101120000",
        heritage=tuple(draw(st.lists(st.integers(0, 999), min_size=1, max_size=4))),
    )
    return _authority.issue(nid, draw(_text), draw(st.dictionaries(_text, _text, max_size=4)))


@st.composite
def _frames(draw) -> tuple[Frame, int, bool]:
    sizes = draw(st.lists(st.integers(0, 5_000), max_size=5))
    frame = Frame(
        kind=draw(_text),
        source=draw(_text),
        dest=draw(_text),
        payload=draw(st.binary(max_size=64)),
        headers=draw(st.dictionaries(_text, _text, max_size=5)),
        buffers=tuple(bytes(size) for size in sizes),
    )
    return frame, draw(st.integers(0, 2**64 - 1)), draw(st.booleans())


@st.composite
def _mutated(draw, valid: st.SearchStrategy[bytes]) -> bytes:
    """A valid encoding with bytes overwritten, cut off or appended."""
    data = bytearray(draw(valid))
    for _ in range(draw(st.integers(1, 4))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data) + draw(st.binary(max_size=4))


_replies = st.one_of(
    st.builds(reply, st.sampled_from(_STATUSES), _text, _text),
    st.builds(refusal, _text),
)
_credential_bytes = _credentials().map(encode_credential)
_request_bytes = _frames().map(lambda drawn: encode_request(*drawn))
_reply_envelopes = st.builds(encode_reply, st.integers(0, 2**64 - 1), st.booleans(), st.binary())


def _reads_or_refuses(decode, data: bytes) -> None:
    try:
        decode(data)
    except NapletCommunicationError:
        pass


class TestEveryDecoderRaisesOnlyCommunicationErrors:
    @given(st.one_of(st.binary(max_size=200), _mutated(_replies)))
    @settings(max_examples=200, deadline=None)
    def test_reply_reader(self, data):
        try:
            status, _fields = read_reply(data, "probe", *_STATUSES)
        except NapletCommunicationError:
            return
        assert status in _STATUSES

    @given(st.one_of(st.binary(max_size=200), _mutated(_credential_bytes)))
    @settings(max_examples=200, deadline=None)
    def test_credential_decoder(self, data):
        _reads_or_refuses(decode_credential, data)

    @given(st.one_of(st.binary(max_size=200), _mutated(_request_bytes)))
    @settings(max_examples=200, deadline=None)
    def test_request_envelope_decoder(self, data):
        _reads_or_refuses(decode_request, data)

    @given(st.one_of(st.binary(max_size=60), _mutated(_reply_envelopes)))
    @settings(max_examples=200, deadline=None)
    def test_reply_envelope_decoder(self, data):
        _reads_or_refuses(decode_reply, data)

    @given(_text)
    @settings(deadline=None)
    def test_a_refusal_is_never_read_as_a_status(self, reason):
        try:
            read_reply(refusal(reason), "probe", "refused", *_STATUSES)
        except NapletCommunicationError as exc:
            assert "refused" in str(exc)
        else:
            raise AssertionError("a refusal was read")


class TestRoundTrips:
    @given(_credentials())
    @settings(max_examples=100, deadline=None)
    def test_credential_keeps_its_signed_payload_and_signature(self, credential):
        decoded = decode_credential(encode_credential(credential))
        assert decoded.payload() == credential.payload()
        assert decoded.signature == credential.signature
        assert decoded == credential and _authority.verify(decoded)

    @given(_frames())
    @settings(max_examples=100, deadline=None)
    def test_request_envelope_keeps_the_frame(self, drawn):
        frame, cid, expects_reply = drawn
        got_cid, got_expects, got, sizes = decode_request(encode_request(frame, cid, expects_reply))
        assert (got_cid, got_expects) == (cid, expects_reply)
        assert (got.kind, got.source, got.dest) == (frame.kind, frame.source, frame.dest)
        assert got.headers == frame.headers and got.payload == frame.payload
        assert got.correlation_id == cid
        assert list(sizes) == [len(buffer) for buffer in frame.buffers]

    @given(st.integers(0, 2**64 - 1), st.booleans(), st.binary(max_size=64))
    @settings(deadline=None)
    def test_reply_envelope_keeps_the_reply(self, cid, ok, body):
        assert decode_reply(encode_reply(cid, ok, body)) == (cid, ok, body)

    @given(st.sampled_from(_STATUSES), st.lists(_text.filter(lambda t: " " not in t), max_size=4))
    @settings(deadline=None)
    def test_reply_keeps_status_and_fields(self, status, fields):
        assert read_reply(reply(status, *fields), "probe", status) == (status, fields)
