"""TrackedState dirty-field ledger and the delta-stability predicates."""

from __future__ import annotations

import pickle

from repro.core.state import NapletState
from repro.core.tracking import (
    TrackedState,
    delta_fingerprint,
    is_delta_stable,
)
from tests.core.test_naplet import ProbeNaplet, _identified


class Widget(TrackedState):
    def __init__(self):
        self.a = 1
        self.b = [1, 2]


class TestDirtyLedger:
    def test_init_writes_are_dirty(self):
        # __init__ rebinding counts: the first dump must ship everything.
        assert Widget().dirty_fields() == {"a", "b"}

    def test_clear_then_rebind_marks_only_rebound(self):
        w = Widget()
        w.clear_dirty()
        assert w.dirty_fields() == frozenset()
        w.a = 2
        assert w.dirty_fields() == {"a"}

    def test_in_place_mutation_is_invisible(self):
        w = Widget()
        w.clear_dirty()
        w.b.append(3)  # the conservative contract: no rebind, no mark
        assert w.dirty_fields() == frozenset()

    def test_mark_dirty_volunteers_fields(self):
        w = Widget()
        w.clear_dirty()
        w.mark_dirty("b", "phantom")
        assert w.dirty_fields() == {"b", "phantom"}

    def test_delattr_marks_dirty(self):
        w = Widget()
        w.clear_dirty()
        del w.b
        assert "b" in w.dirty_fields()

    def test_rebind_to_same_value_still_marks(self):
        # Dirtiness is about rebinds, not equality — the serializer's
        # hash compare is what collapses equal re-pickles.
        w = Widget()
        w.clear_dirty()
        w.a = 1
        assert w.dirty_fields() == {"a"}

    def test_ledger_never_serializes(self):
        w = Widget()
        w.mark_dirty("a")
        state = TrackedState.strip_tracking(dict(w.__dict__))
        assert set(state) == {"a", "b"}

    def test_naplet_pickle_drops_ledger_and_lands_clean(self):
        agent = _identified("ledger")
        agent.state.set("k", 1)
        copy = pickle.loads(pickle.dumps(agent))
        assert isinstance(copy, ProbeNaplet)
        # The new incarnation starts with only the rebinds __setstate__
        # itself performed — the travel ledger did not ride along.
        assert copy.dirty_fields() <= {"_context"}


class TestStability:
    def test_scalars_are_stable(self):
        for value in (None, True, 3, 2.5, 1j, "s", b"b"):
            assert is_delta_stable(value)

    def test_tuple_of_scalars_is_stable(self):
        assert is_delta_stable((1, "two", (3.0, None)))

    def test_tuple_holding_a_list_is_unstable(self):
        assert not is_delta_stable((1, [2]))

    def test_mutables_are_unstable(self):
        for value in ([1], {"k": 1}, {1, 2}, bytearray(b"x")):
            assert not is_delta_stable(value)

    def test_oversized_tuple_gives_up(self):
        assert not is_delta_stable(tuple(range(1000)))

    def test_depth_limit_gives_up(self):
        nested = ((((1,),),),)
        assert not is_delta_stable(nested, _depth=2)

    def test_frozen_dataclasses_of_stable_members_are_stable(self):
        from repro.core.listener import ListenerRef
        from repro.itinerary import JoinPolicy, ResultReport, SeqPattern, par
        from repro.telemetry.trace import TraceContext

        assert is_delta_stable(ListenerRef("naplet://home", "key"))
        assert is_delta_stable(TraceContext.mint())
        assert is_delta_stable(JoinPolicy.JOIN)
        plan = SeqPattern.of_servers(["a", "b"], post_action=ResultReport("r"))
        assert is_delta_stable(plan) and is_delta_stable(par("a", "b", join=JoinPolicy.JOIN))

    def test_a_mutable_member_or_custom_pickling_is_not_proof(self):
        from dataclasses import dataclass

        from repro.core.naplet_id import NapletID
        from repro.itinerary import SetStateFlag, singleton

        @dataclass(frozen=True)
        class Reduced:
            value: int

            def __reduce__(self):
                return (Reduced, (self.value,))

        assert not is_delta_stable(singleton("a", post_action=SetStateFlag("k", [1])))
        assert not is_delta_stable(Reduced(1))
        # The id pickles its clone counter, which moves: a fingerprint, not stability.
        nid = NapletID.create("alice", "home", stamp="240101120000")
        assert not is_delta_stable(nid)
        before = delta_fingerprint(nid)
        nid.next_clone()
        assert delta_fingerprint(nid) != before


class TestFingerprint:
    def test_absent_protocol_is_none(self):
        assert delta_fingerprint([1, 2]) is None
        assert delta_fingerprint(object()) is None

    def test_naplet_state_fingerprint_moves_on_mutation(self):
        state = NapletState()
        state.set("k", 1)
        before = delta_fingerprint(state)
        assert before is not None
        state.set("k", 2)
        assert delta_fingerprint(state) != before

    def test_address_book_fingerprint_moves_on_every_change(self):
        from repro.core.address_book import AddressBook
        from repro.core.naplet_id import NapletID

        book, friend = AddressBook(), NapletID.create("bob", "home", stamp="240101120000")
        seen = [delta_fingerprint(book)]
        book.add_contact(friend, "naplet://a")
        seen.append(delta_fingerprint(book))
        book.update_location(friend, "naplet://b")
        seen.append(delta_fingerprint(book))
        book.lookup(friend).naplet_id.next_clone()  # the id in the book pickles its counter
        seen.append(delta_fingerprint(book))
        book.remove(friend)
        seen.append(delta_fingerprint(book))
        assert len(set(seen)) == len(seen)

    def test_raising_probe_degrades_to_none(self):
        class Hostile:
            def __delta_fingerprint__(self):
                raise RuntimeError("no")

        assert delta_fingerprint(Hostile()) is None
