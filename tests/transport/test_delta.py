"""Delta shipping: images, the blob store, v2 envelopes, the fallback contract."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.codeshipping.shipping import shipping_stamp_of
from repro.core.errors import (
    DeltaBaseMissingError,
    SerializationError,
    ShippedCodeMissingError,
)
from repro.core.credential import SigningAuthority
from repro.core.naplet_id import NapletID
from repro.transport import delta
from repro.transport.delta import (
    Blob,
    BlobStore,
    FieldEntry,
    Image,
    content_hash,
    field_fate,
    image_hash,
)
from repro.transport.serializer import NapletSerializer
from tests.core.test_naplet import ProbeNaplet, _identified
from tests.transport.envelopes import read_envelope, write_envelope
from tests.transport.images import ImageKeeper
from tests.transport.shipped_fixture import StampedPayload


def _image(store: BlobStore, img: str = "H", **fields: bytes) -> Image:
    """An image of *fields*, named in *store* as the serializer names one."""
    blobs = store.name(Blob(content_hash(data), data) for data in fields.values())
    entries = {name: FieldEntry(blob, blob.data) for name, blob in zip(fields, blobs)}
    return Image.of(("pickle", b""), entries, img)


class TestHashes:
    def test_content_hash_is_stable_across_buffer_types(self):
        data = b"payload-bytes"
        assert content_hash(data) == content_hash(memoryview(data))

    def test_content_hash_reads_a_buffer_in_place(self):
        import tracemalloc

        payload = bytes(range(256)) * 4096  # 1 MiB
        view = memoryview(payload)
        expected = content_hash(payload)
        tracemalloc.start()
        try:
            assert content_hash(view) == expected
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(payload) / 10
        assert len(expected) == 32 and int(expected, 16) >= 0

    def test_image_hash_is_order_independent(self):
        hashes = {"a": "1" * 32, "b": "2" * 32}
        assert image_hash(hashes) == image_hash(dict(reversed(hashes.items())))

    def test_image_hash_sensitive_to_name_and_value(self):
        base = image_hash({"a": "1" * 32})
        assert image_hash({"b": "1" * 32}) != base
        assert image_hash({"a": "2" * 32}) != base


class TestBlobStore:
    def test_lru_eviction_at_the_byte_budget(self, monkeypatch):
        monkeypatch.setattr(delta, "BLOB_BUDGET", 10)
        store = BlobStore()
        one, two = _image(store, a=b"1111"), _image(store, b=b"2222")
        assert store.get(content_hash(b"1111")) == b"1111"  # promote; 2222 is the eldest
        three = _image(store, c=b"3333")
        assert store.nbytes == 8 <= delta.BLOB_BUDGET
        assert content_hash(b"2222") not in store and content_hash(b"1111") in store
        # The image naming it keeps the blob object, not the bytes.
        assert two.blobs[0].data is None and store.get(two.blobs[0].hash) is None
        assert one.blobs[0].data == b"1111" and three.blobs[0].data == b"3333"

    def test_contains_is_a_pure_probe(self, monkeypatch):
        monkeypatch.setattr(delta, "BLOB_BUDGET", 8)
        store = BlobStore()
        _image(store, a=b"1111")
        _image(store, b=b"2222")
        assert content_hash(b"1111") in store and "0" * 32 not in store
        _image(store, c=b"3333")
        assert content_hash(b"1111") not in store  # `in` did not promote it over 2222

    def test_a_manifest_lets_values_go_and_keeps_the_blobs(self):
        store = BlobStore()
        image = _image(store, "H2", f=b"x", g=b"y")
        manifest = image.manifest()
        assert image.entries is not None and manifest.entries is None
        # Hashes and blobs stay: the manifest still backs omitted fields.
        assert manifest.blobs == image.blobs and manifest.field_hashes() == image.field_hashes()
        assert image_hash(manifest.field_hashes()) == image_hash({"f": content_hash(b"x"), "g": content_hash(b"y")})
        assert store.get(content_hash(b"x")) == b"x"
        store.let_go(manifest)
        assert store.nbytes == 0 and content_hash(b"x") not in store

    def test_let_go_and_clear(self):
        store = BlobStore()
        store.let_go(_image(store, "H1", f=b"x"))
        assert store.nbytes == 0 and store.get(content_hash(b"x")) is None
        _image(store, "H2", f=b"x")
        store.clear()
        assert store.get(content_hash(b"x")) is None and store.nbytes == 0


class TestFieldIndex:
    """One ``bytes`` per content, present exactly while an image names it."""

    def test_equal_fields_of_two_records_share_one_bytes_object(self):
        store = BlobStore()
        first, second = bytes(b"cargo" * 100), bytes(bytearray(b"cargo" * 100))
        assert first is not second
        one = _image(store, "H1", cargo=first, own=b"1")
        two = _image(store, "H2", cargo=second, other=b"2")
        held = store.get(content_hash(first))
        assert held is first
        assert one.entries["cargo"].blob.data is held
        assert two.entries["cargo"].blob.data is held

    def test_a_blob_lives_exactly_as_long_as_some_record_names_it(self):
        store = BlobStore()
        shared, own1, own2 = (content_hash(b) for b in (b"shared", b"one", b"two"))
        n1 = _image(store, "H1", s=b"shared", f=b"one")
        n2 = _image(store, "H2", s=b"shared", f=b"two")
        assert store.get(shared) == b"shared" and store.get(own1) == b"one"
        # A manifest lets values go, never bytes.
        n1 = n1.manifest()
        assert store.get(own1) == b"one"
        # A new image in place of the old: what only the old one named goes.
        n1b = _image(store, "H1b", s=b"shared", f=b"one-b")
        store.let_go(n1)
        assert store.get(own1) is None and store.get(shared) == b"shared"
        store.let_go(n2)
        assert store.get(own2) is None and store.get(shared) == b"shared"
        store.let_go(n1b)
        assert store.get(shared) is None and store.get(content_hash(b"one-b")) is None
        assert store.nbytes == 0

    def test_one_record_naming_a_blob_twice_counts_twice(self):
        store = BlobStore()
        n1 = _image(store, "H1", a=b"same", b=b"same")
        n2 = _image(store, "H2", a=b"same")
        store.let_go(n1)
        assert store.get(content_hash(b"same")) == b"same"
        store.let_go(n2)
        assert store.get(content_hash(b"same")) is None

    def test_entries_carried_over_from_the_previous_image_keep_their_blob(self):
        sender = ImageKeeper()
        agent = _identified("carried")
        agent.keep, agent.go = b"kept" * 10, b"gone" * 10
        sender.dump(agent)
        old = sender.image(agent.naplet_id)
        del agent.go
        sender.dump(agent)  # the next dump reuses the unchanged field's entry
        assert sender.image(agent.naplet_id).entries["keep"] is old.entries["keep"]
        assert sender.blobs.get(content_hash(b"kept" * 10)) == b"kept" * 10
        assert sender.blobs.get(content_hash(b"gone" * 10)) is None


class TestFieldFate:
    CARGO, TINY = content_hash(b"c" * 100), content_hash(b"t")

    def fate(self, digest, nbytes, held, before=None):
        return field_fate(digest if before is None else before, digest, nbytes, "n1", held)

    def test_ships_without_a_previous_image_whatever_the_peer_holds(self):
        held = {"n1", self.CARGO}
        assert field_fate(None, self.CARGO, 100, "n1", held) == "ships"

    def test_ships_when_changed_here_even_if_the_peer_once_held_the_new_hash(self):
        other = content_hash(b"recurring value")
        assert self.fate(other, 100, {"n1", other}, before=self.CARGO) == "ships"
        assert field_fate(None, other, 100, "n1", {"n1", other}) == "ships"

    def test_ships_when_the_peer_is_not_known_to_hold_it(self):
        assert self.fate(self.CARGO, 100, {"n1"}) == "ships"
        assert self.fate(self.CARGO, 100, ()) == "ships"

    def test_omitted_when_the_peer_has_a_record_of_this_naplet(self):
        held = {"n1", self.CARGO, self.TINY}
        assert self.fate(self.CARGO, 100, held) == "omitted"
        assert self.fate(self.TINY, 1, held) == "omitted"

    def test_referenced_otherwise_and_only_when_the_hash_is_the_shorter(self):
        held = {self.CARGO, self.TINY}
        assert self.fate(self.CARGO, 100, held) == "referenced"
        assert self.fate(self.TINY, 1, held) == "ships"
        assert self.fate(self.CARGO, len(self.CARGO), held) == "ships"


class TestV2Envelope:
    def _pair(self):
        return ImageKeeper(), ImageKeeper()

    def test_first_dump_is_full_v2(self):
        sender, receiver = self._pair()
        agent = _identified("full")
        agent.state.set("k", 1)
        # No previous image here: full, even toward a peer holding it all.
        data, buffers, cost = sender.dump(agent, held=_AnyKey())
        assert not cost.delta and cost.saved_bytes == 0
        copy, info = receiver.land(data, buffers=buffers or None)
        assert info["v"] == 2 and info["mode"] == "full"
        assert isinstance(info["hash"], str)
        assert copy.state.get("k") == 1

    def test_acked_base_turns_repeat_hop_into_delta(self):
        """What the peer acked holding is omitted: it has it, under this
        naplet's own record."""
        sender, receiver = self._pair()
        agent = _identified("delta")
        agent.state.set("k", 1)
        agent.cargo = b"\xee" * 50_000
        data, buffers, full_cost = sender.dump(agent)
        receiver.land(data, buffers=buffers or None)

        agent.state.set("k", 2)  # tiny mutation; cargo untouched
        data2, buffers2, cost = sender.dump(agent, held=sender.held(agent))
        assert cost.delta
        assert cost.saved_bytes > 50_000
        assert cost.payload_bytes < full_cost.payload_bytes / 10
        envelope = read_envelope(data2, buffers2)
        assert envelope["omitted"] is True and envelope["refs"] == {}
        assert "cargo" not in envelope["fields"] and "_state" in envelope["fields"]
        assert not {"base"} & set(envelope)
        copy, info2 = receiver.land(data2, buffers=buffers2 or None)
        assert info2["mode"] == "delta"
        assert copy.state.get("k") == 2
        assert copy.cargo == b"\xee" * 50_000

    def test_unacked_base_ships_full(self):
        sender, receiver = self._pair()
        agent = _identified("no-ack")
        sender.dump(agent)
        data, buffers, cost = sender.dump(agent)
        assert not cost.delta
        copy, info = receiver.land(data, buffers=buffers or None)
        assert info["mode"] == "full"

    def test_blob_held_under_another_naplets_record_travels_as_a_reference(self):
        sender, receiver = self._pair()
        first, second = _identified("first"), _identified("second")
        second._nid = NapletID.create("alice", "home", stamp="240101120009")
        first.cargo = second.cargo = b"\xab" * 50_000
        data, buffers, _ = sender.dump(first)
        receiver.land(data, buffers=buffers or None)
        held = sender.held(first)  # hashes and the *first* naplet's id

        sender.dump(second)  # its previous image here
        data2, buffers2, cost = sender.dump(second, held=held)
        envelope = read_envelope(data2, buffers2)
        cargo_hash = sender.image(str(second.naplet_id)).entries["cargo"].hash
        assert cost.delta and cost.saved_bytes >= 50_000
        assert envelope["refs"]["cargo"] == cargo_hash
        assert "omitted" not in envelope and "cargo" not in envelope["fields"]
        # Small fields both naplets share go inline: a hash would be longer.
        assert all(
            len(sender.blobs.get(h)) > len(h) for h in envelope["refs"].values()
        )
        assert receiver.image(second.naplet_id) is None
        copy, info = receiver.land(data2, buffers=buffers2 or None)
        assert info["mode"] == "delta" and copy.cargo == second.cargo
        # Resolved, not copied: both images lean on one bytes object.
        assert (
            receiver.image(str(second.naplet_id)).entries["cargo"].blob.data
            is receiver.image(str(first.naplet_id)).entries["cargo"].blob.data
        )

    def test_deleted_field_travels_in_removed_list(self):
        sender, receiver = self._pair()
        agent = _identified("shrink")
        agent.extra = "short-lived"
        data, buffers, _ = sender.dump(agent)
        receiver.land(data, buffers=buffers or None)

        del agent.extra
        data2, buffers2, cost = sender.dump(agent, held=sender.held(agent))
        assert cost.delta and read_envelope(data2, buffers2)["removed"] == ["extra"]
        copy, _ = receiver.land(data2, buffers=buffers2 or None)
        assert not hasattr(copy, "extra")

    def _evicted(self, held_nid: bool):
        """A delta dumped toward a receiver that has since lost its images and blobs."""
        sender, receiver = self._pair()
        agent = _identified("evicted")
        agent.cargo = b"\xcd" * 1000
        data, buffers, _ = sender.dump(agent)
        receiver.land(data, buffers=buffers or None)
        held = sender.held(agent)
        if not held_nid:
            held.discard(str(agent.naplet_id))  # references, not omissions
        receiver.images.clear()
        receiver.blobs.clear()
        agent.state.set("k", 9)
        data2, buffers2, cost = sender.dump(agent, held=held)
        assert cost.delta
        return sender, receiver, agent, data2, buffers2

    def test_evicted_base_raises_delta_base_missing(self):
        sender, receiver, agent, data2, buffers2 = self._evicted(held_nid=True)
        with pytest.raises(DeltaBaseMissingError, match="no image"):
            receiver.land(data2, buffers=buffers2 or None)
        # The sender's escalation re-ships full; the receiver recovers.
        data3, buffers3, cost3 = sender.dump(agent)
        assert not cost3.delta
        copy, info3 = receiver.land(data3, buffers=buffers3 or None)
        assert info3["mode"] == "full"
        assert copy.state.get("k") == 9

    def test_evicted_blob_raises_delta_base_missing(self):
        _, receiver, _, data2, buffers2 = self._evicted(held_nid=False)
        assert read_envelope(data2, buffers2)["refs"]
        with pytest.raises(DeltaBaseMissingError, match="leans on .* which is not held here"):
            receiver.land(data2, buffers=buffers2 or None)

    def test_corrupt_delta_fails_the_image_hash_check(self):
        """A delta that does not compose is a recoverable miss (the bytes
        held here are not what the sender believed), never a landing."""
        sender, receiver = self._pair()
        agent = _identified("drift")
        agent.cargo = b"\x01" * 1000
        data, buffers, _ = sender.dump(agent)
        receiver.land(data, buffers=buffers or None)
        nid = str(agent.naplet_id)
        # The image kept here names other bytes for the cargo than it did.
        kept, cargo = receiver.image(nid), content_hash(b"\x01" * 1000)
        (other,) = receiver.blobs.name([Blob(content_hash(b"\x02" * 1000), b"\x02" * 1000)])
        blobs = tuple(other if blob.hash == cargo else blob for blob in kept.blobs)
        receiver.images[nid] = Image(kept.hash, kept.cls_ref, kept.keys, blobs)
        agent.state.set("k", 1)
        data2, buffers2, cost = sender.dump(agent, held=sender.held(agent))
        assert cost.delta
        with pytest.raises(DeltaBaseMissingError, match="content hash"):
            receiver.land(data2, buffers=buffers2 or None)

    def test_tampered_full_image_fails_the_image_hash_check(self):
        import pickle as _pickle

        sender, receiver = self._pair()
        agent = _identified("tamper")
        data, buffers, _ = sender.dump(agent)
        envelope = read_envelope(data, buffers)
        envelope["fields"] = {n: bytes(b) for n, b in envelope["fields"].items()}
        envelope["fields"]["_state"] = _pickle.dumps("tampered")
        with pytest.raises(SerializationError, match="content hash") as caught:
            receiver.loads(write_envelope(envelope))
        assert not isinstance(caught.value, DeltaBaseMissingError)

    @pytest.mark.parametrize("mode", ["full", "delta"])
    def test_one_flipped_byte_in_a_shipped_field_is_rejected(self, mode):
        sender, receiver = self._pair()
        agent = _identified("bitflip")
        agent.cargo = b"\xc4" * 4096
        data, buffers, cost = sender.dump(agent)
        if mode == "delta":
            receiver.land(data, buffers=buffers or None)
            held = sender.held(agent)
            agent.cargo = b"\xc5" * 4096
            data, buffers, cost = sender.dump(agent, held=held)
        assert cost.delta == (mode == "delta")
        segments = [bytearray(b) for b in buffers]
        cargo = max(segments, key=len)
        cargo[len(cargo) // 2] ^= 0x01
        # Never landed; a delta may be asked for again in full, a full
        # image is simply corrupt.
        with pytest.raises(SerializationError, match="the announced content hash") as caught:
            receiver.land(data, buffers=[bytes(b) for b in segments])
        assert isinstance(caught.value, DeltaBaseMissingError) == (mode == "delta")

    def test_self_referential_naplet_leaves_no_record_behind(self):
        sender = ImageKeeper()
        agent = _identified("ouroboros")
        sender.dump(agent)
        assert sender.image(agent.naplet_id) is not None
        agent.ring = {"me": agent}
        data, buffers, cost = sender.dump(agent, held=sender.held(agent))
        assert buffers == [] and not cost.delta
        assert sender.image(agent.naplet_id) is None


class _AnyKey:
    """A peer believed to hold every hash and every naplet's record."""

    def __contains__(self, key: str) -> bool:
        return True


class _OddMeta(type(ProbeNaplet)):
    """A metaclass pickle can be told to reduce through ``copyreg``."""


class _OddNaplet(ProbeNaplet, metaclass=_OddMeta):
    pass


class _Exploding:
    def __reduce__(self):
        raise RuntimeError("not a pickling error")


class TestOnlyPicklingErrorsAreSerializationErrors:
    def test_unrelated_error_from_a_fields_reduce_propagates(self):
        agent = _identified("exploding")
        agent.bomb = _Exploding()
        with pytest.raises(RuntimeError, match="not a pickling error"):
            NapletSerializer().dumps_with_cost(agent)

    def test_unrelated_error_from_the_class_reference_pickle_propagates(self, monkeypatch):
        import copyreg

        def reducer(error):
            def reduce_class(cls):
                raise error

            return reduce_class

        agent, source = _OddNaplet("odd"), _identified()
        agent._assign_identity(source.naplet_id, source.credential)
        monkeypatch.setitem(
            copyreg.dispatch_table, _OddMeta, reducer(RuntimeError("class reducer broke"))
        )
        with pytest.raises(RuntimeError, match="class reducer broke"):
            NapletSerializer().dumps_with_cost(agent)
        # The three pickling errors still read as "cannot serialize".
        monkeypatch.setitem(copyreg.dispatch_table, _OddMeta, reducer(TypeError("no")))
        with pytest.raises(SerializationError, match="cannot serialize _OddNaplet"):
            NapletSerializer().dumps_with_cost(agent)


@dataclass(frozen=True)
class _Frozen:
    value: int


class _Impostor:
    """Mutable, yet pickles to exactly the bytes of a :class:`_Frozen`."""

    def __init__(self, value: int) -> None:
        self.value = value

    @property
    def __class__(self):  # what pickle's NEWOBJ check reads
        return _Frozen

    def __reduce_ex__(self, protocol):
        return _Frozen(self.value).__reduce_ex__(protocol)


class TestStableFields:
    """A hop re-pickles a field exactly when it may have changed."""

    @staticmethod
    def _hop(sender, receiver, agent):
        """Dump *agent* toward *receiver* (which acked the last image) and
        land it: ``(names pickled, names shipped, the landed copy)``."""
        names: list[str] = []
        real = sender._pickle_field
        sender._pickle_field = lambda root, name, value: names.append(name) or real(root, name, value)
        held = sender.held(agent) if sender.image(str(agent.naplet_id)) else set()
        data, buffers, _ = sender.dump(agent, held=held)
        del sender._pickle_field
        copy, _ = receiver.land(data, buffers=buffers or None)
        return set(names), set(read_envelope(data, buffers)["fields"]), copy

    def _landed(self):
        """A naplet with a plan, listener and trace, landed at B from A."""
        from repro.core.listener import ListenerRef
        from repro.itinerary import Itinerary, ResultReport, SeqPattern

        a, b = ImageKeeper(), ImageKeeper()
        agent = _identified("stable")
        agent.set_itinerary(Itinerary(SeqPattern.of_servers(["s1", "s2"], post_action=ResultReport())))
        agent.set_listener(ListenerRef("naplet://home", "key"))
        agent._ensure_trace()
        _, _, copy = self._hop(a, b, agent)
        return b, a, copy

    def test_fields_that_cannot_change_are_not_repickled(self):
        here, there, agent = self._landed()
        pickled, _, copy = self._hop(here, there, agent)
        assert not pickled & {"_plan", "_listener", "_trace_ctx", "_nid", "_address_book"}
        assert copy.itinerary.pattern == agent.itinerary.pattern

    def test_add_contact_between_hops_reships_the_book(self):
        here, there, agent = self._landed()
        friend = NapletID.create("bob", "home", stamp="240101120001")
        agent.address_book.add_contact(friend, "naplet://s2")
        pickled, shipped, copy = self._hop(here, there, agent)
        assert "_address_book" in pickled and "_address_book" in shipped
        assert copy.address_book.lookup(friend).server_urn == "naplet://s2"

    def test_only_a_landed_value_proves_its_bytes_stable(self):
        here, there = ImageKeeper(), ImageKeeper()
        first = _identified("first")
        first.payload = _Frozen(1)
        _, _, landed = self._hop(there, here, first)
        self._hop(here, there, landed)  # its bytes proved stable here
        assert here.image(str(first.naplet_id)).entries["payload"].stable
        second = ProbeNaplet("second")
        nid = NapletID.create("alice", "home", stamp="240101120001")
        authority = SigningAuthority()
        authority.register_owner("alice")
        second._assign_identity(nid, authority.issue(nid, second.codebase, {}))
        second.payload = impostor = _Impostor(1)
        elsewhere = ImageKeeper()
        self._hop(here, elsewhere, second)
        sent = here.image(str(nid)).entries["payload"]
        assert sent.hash == here.image(str(first.naplet_id)).entries["payload"].hash
        impostor.value = 2  # in place: only a re-pickle can see it
        pickled, _, copy = self._hop(here, elsewhere, second)
        assert "payload" in pickled and copy.payload == _Frozen(2)

    def test_a_landed_value_inherits_the_proof_of_its_bytes(self):
        here, there, agent = self._landed()
        nid = str(agent.naplet_id)
        assert here.image(nid).entries["_plan"].stable is None  # not walked on landing
        _, _, back = self._hop(here, there, agent)
        assert here.image(nid).entries["_plan"].stable  # walked once, when asked
        self._hop(there, here, back)
        assert here.image(nid).entries["_plan"].stable  # landed proved: no walk

    def test_clone_spawn_between_hops_reships_the_id(self):
        here, there, agent = self._landed()
        child = agent.clone()
        pickled, shipped, copy = self._hop(here, there, agent)
        assert {"_nid"} <= pickled & shipped
        # The clone counter travelled: the next clone gets a fresh id.
        assert copy.clone().naplet_id != child.naplet_id


class TestRelease:
    """Values released when the naplet leaves (its image cut to the
    manifest): every later dump and landing stays right."""

    @staticmethod
    def _pickled_names(serializer, monkeypatch) -> list[str]:
        names: list[str] = []
        real = serializer._pickle_field

        def spy(root, name, value):
            names.append(name)
            return real(root, name, value)

        monkeypatch.setattr(serializer, "_pickle_field", spy)
        return names

    def test_none_valued_field_is_repickled_after_release(self, monkeypatch):
        sender, receiver = ImageKeeper(), ImageKeeper()
        agent = _identified("released")
        agent.note = None
        nid = str(agent.naplet_id)
        sender.dump(agent)
        names = self._pickled_names(sender, monkeypatch)
        sender.dump(agent)
        assert "note" not in names  # live base: skipped by identity
        sender.bury(nid)
        del names[:]
        data, buffers, _ = sender.dump(agent)
        assert "note" in names and "_state" in names
        copy, _ = receiver.land(data, buffers=buffers or None)
        assert copy.note is None
        assert sender.image(nid).entries is not None  # the new image is live

    def test_delta_lands_onto_a_released_base(self):
        here, there = ImageKeeper(), ImageKeeper()
        agent = _identified("round-trip")
        agent.cargo = b"\xd1" * 20_000
        nid = str(agent.naplet_id)
        data, buffers, _ = here.dump(agent)
        away, info = there.land(data, buffers=buffers or None)
        here.bury(nid)  # the departure was acked

        away.state.set("k", 5)
        # The sender of a landed image holds all of it, by the landing itself.
        data2, buffers2, cost = there.dump(away, held=there.held(away))
        assert cost.delta and cost.saved_bytes >= 20_000
        back, info2 = here.land(data2, buffers=buffers2 or None)
        assert info2["mode"] == "delta"
        assert back.state.get("k") == 5 and back.cargo == b"\xd1" * 20_000
        assert here.image(nid).entries is not None

    def test_redump_after_a_rolled_back_transfer_ships_the_right_bytes(self):
        sender, receiver = ImageKeeper(), ImageKeeper()
        agent = _identified("retry")
        agent.cargo = b"\xd2" * 20_000
        nid = str(agent.naplet_id)
        sender.dump(agent)  # attempt 1: never acked, rolled back
        first = sender.image(nid).hash
        agent.cargo = b"\xd3" * 20_000
        data, buffers, cost = sender.dump(agent)  # attempt 2
        assert not cost.delta
        copy, info = receiver.land(data, buffers=buffers or None)
        assert copy.cargo == b"\xd3" * 20_000 and info["hash"] != first
        # The image kept is attempt 2's, and attempt 1's own cargo is gone.
        assert sender.image(nid).hash == info["hash"]
        assert sender.blobs.get(content_hash(b"\xd2" * 20_000)) is None


class TestCodeNegotiation:
    @pytest.fixture
    def registry(self):
        reg = CodeBaseRegistry()
        reg.create("codebase://test/payload").add_class(StampedPayload)
        return reg

    def _module_hash(self, registry) -> str:
        codebase_name, module_key, _ = shipping_stamp_of(StampedPayload(0))
        return registry.get(codebase_name).hash_of(module_key)

    def test_known_code_replaces_bundle_with_hash_ref(self, registry):
        sender = ImageKeeper(registry, eager_code=True)
        agent = _identified("codeful")
        agent.payload = StampedPayload(11)

        data, buffers, cost = sender.dump(agent)
        envelope = read_envelope(data, buffers)
        assert envelope["bundles"] and not envelope["code_refs"]
        assert cost.code_bytes > 0

        known = {self._module_hash(registry)}
        sender2 = ImageKeeper(registry, eager_code=True)
        data2, buffers2, cost2 = sender2.dump(agent, known_code=known)
        envelope2 = read_envelope(data2, buffers2)
        assert envelope2["code_refs"] and not envelope2["bundles"]
        assert cost2.code_bytes == 0

    def test_code_ref_resolves_when_cache_holds_the_module(self, registry):
        sender = ImageKeeper(registry, eager_code=True)
        receiver = ImageKeeper()
        cache = CodeCache(CodeBaseRegistry())  # fetchless: bundles only
        agent = _identified("code-hop")
        agent.payload = StampedPayload(21)

        # Hop 1 ships the bundle; the landing installs it in the cache.
        data, buffers, _ = sender.dump(agent)
        copy, _ = receiver.land(data, cache, buffers=buffers or None)
        assert copy.payload.value == 21
        known = set(cache.known_hashes())
        assert self._module_hash(registry) in known

        # Hop 2 ships only the hash reference — and it resolves.
        sender2 = ImageKeeper(registry, eager_code=True)
        data2, buffers2, _ = sender2.dump(agent, known_code=known)
        receiver2 = ImageKeeper()
        copy2, _ = receiver2.land(data2, cache, buffers=buffers2 or None)
        assert copy2.payload.value == 21

    def test_missing_code_ref_raises_shipped_code_missing(self, registry):
        sender = ImageKeeper(registry, eager_code=True)
        agent = _identified("code-miss")
        agent.payload = StampedPayload(31)
        known = {self._module_hash(registry)}
        data, buffers, _ = sender.dump(agent, known_code=known)
        bare_cache = CodeCache(CodeBaseRegistry())  # never saw the bundle
        with pytest.raises(ShippedCodeMissingError):
            NapletSerializer().loads_with_info(data, bare_cache, buffers=buffers or None)
