"""Property tests: a journal record is the value it was built from.

A record stores its HLC stamp inline and its ``detail`` as a key tuple
beside a value tuple; over arbitrary JSON-able details these laws pin that
the stored form reads back as what was given:

- **round trip** — ``from_dict(describe(r)) == r``, also through JSON text;
- **detail** — ``r.detail`` is the dict given, in its insertion order;
- **value equality** — records whose details differ only in key order are
  equal, as dicts are;
- **causal order** — ``causal_key`` orders any two records exactly as
  ``(HLCStamp, seq)`` does.
"""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.journal import JournalRecord, causal_key
from repro.util.hlc import HLCStamp

SERVERS = ["s00", "s01", "s02"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
details = st.dictionaries(st.text(max_size=6), json_values, max_size=6)
stamps = st.builds(
    HLCStamp,
    wall=st.floats(min_value=0.0, max_value=2e9, allow_nan=False),
    logical=st.integers(min_value=0, max_value=5),
    node=st.sampled_from(SERVERS),
)


@st.composite
def built(draw, detail=details):
    """(record, the stamp and detail it was given)."""
    stamp, given_detail = draw(stamps), draw(detail)
    record = JournalRecord(
        seq=draw(st.integers(min_value=1, max_value=10_000)),
        hlc=stamp,
        kind=draw(st.sampled_from(["hop", "hop-cost", "naplet-arrive", "load"])),
        category=draw(st.sampled_from(["event", "span", "perf", "load"])),
        server=draw(st.sampled_from(SERVERS)),
        wall=draw(st.floats(min_value=0.0, max_value=2e9, allow_nan=False)),
        mono=draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        naplet=draw(st.none() | st.sampled_from(["alice@s00:261018051206:0"])),
        trace_id=draw(st.none() | st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)),
        detail=given_detail,
    )
    return record, stamp, given_detail


class TestRecordValue:
    @given(built())
    def test_describe_then_from_dict_is_the_record(self, case):
        record, _stamp, _detail = case
        assert JournalRecord.from_dict(record.describe()) == record
        assert JournalRecord.from_dict(json.loads(json.dumps(record.describe()))) == record

    @given(built())
    def test_detail_and_hlc_read_back_as_given(self, case):
        record, stamp, detail = case
        assert list(record.detail.items()) == list(detail.items())
        assert record.hlc == stamp

    @given(built(), st.randoms(use_true_random=False))
    def test_key_order_does_not_change_equality(self, case, rng):
        record, stamp, detail = case
        items = list(detail.items())
        rng.shuffle(items)
        shuffled = JournalRecord(
            record.seq, stamp, record.kind, record.category, record.server,
            record.wall, record.mono, record.naplet, record.trace_id, dict(items),
        )
        assert shuffled == record
        assert list(shuffled.detail) == [key for key, _ in items]


class TestCausalKey:
    @given(built(detail=st.just({})), built(detail=st.just({})))
    def test_causal_key_orders_as_stamp_then_seq(self, a, b):
        (ra, stamp_a, _), (rb, stamp_b, _) = a, b
        old_a, old_b = (stamp_a, ra.seq), (stamp_b, rb.seq)
        assert (causal_key(ra) < causal_key(rb)) == (old_a < old_b)
        assert (causal_key(ra) == causal_key(rb)) == (old_a == old_b)

    @given(st.lists(built(detail=st.just({})), max_size=12))
    def test_sorting_by_causal_key_is_sorting_by_stamp_then_seq(self, cases):
        by_key = sorted(cases, key=lambda case: causal_key(case[0]))
        by_stamp = sorted(cases, key=lambda case: (case[1], case[0].seq))
        assert [case[0] for case in by_key] == [case[0] for case in by_stamp]
