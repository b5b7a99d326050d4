"""Delta shipping: base caches, v2 envelopes, and the fallback contract."""

from __future__ import annotations

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.codeshipping.shipping import shipping_stamp_of
from repro.core.errors import (
    DeltaBaseMissingError,
    SerializationError,
    ShippedCodeMissingError,
)
from repro.transport.delta import (
    DeltaCache,
    FieldEntry,
    ImageRecord,
    content_hash,
    image_hash,
)
from repro.transport.serializer import NapletSerializer
from tests.core.test_naplet import _identified
from tests.transport.shipped_fixture import StampedPayload


def _record(img: str, **fields: bytes) -> ImageRecord:
    entries = {
        name: FieldEntry(data=data, hash=content_hash(data), value=data)
        for name, data in fields.items()
    }
    return ImageRecord(hash=img, cls_ref=("pickle", b""), fields=entries)


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


class TestDeltaCache:
    def test_get_requires_matching_hash(self):
        cache = DeltaCache()
        cache.put("n1", _record("H1", f=b"x"))
        assert cache.get("n1", "H1") is not None
        assert cache.get("n1", "H2") is None
        assert cache.get("n1") is not None  # hash optional

    def test_lru_eviction_at_capacity(self):
        cache = DeltaCache(capacity=2)
        cache.put("n1", _record("H1"))
        cache.put("n2", _record("H2"))
        cache.get("n1")  # promote n1; n2 becomes LRU
        cache.put("n3", _record("H3"))
        assert "n1" in cache and "n3" in cache and "n2" not in cache
        assert cache.stats()["evictions"] == 1

    def test_peek_is_a_pure_probe(self):
        cache = DeltaCache(capacity=2)
        cache.put("n1", _record("H1"))
        cache.put("n2", _record("H2"))
        before = cache.stats()
        assert cache.peek("n1").hash == "H1"
        assert cache.peek("missing") is None
        assert cache.stats() == before  # no hit/miss movement
        cache.put("n3", _record("H3"))
        assert "n1" not in cache  # peek did not promote n1 over n2

    def test_release_lets_values_go_only_for_the_acked_image(self):
        cache = DeltaCache()
        cache.put("n1", _record("H2", f=b"x", g=b"y"))
        before = cache.stats()
        cache.release("n1", "H1")  # stale ack: the naplet landed back since
        cache.release("missing", "H2")
        assert all(e.live for e in cache.peek("n1").fields.values())
        cache.release("n1", "H2")
        record = cache.peek("n1")
        assert not any(e.live for e in record.fields.values())
        # Bytes and hashes stay: the record is still a delta base.
        assert record.fields["f"].data == b"x"
        assert record.field_hashes() == _record("H2", f=b"x", g=b"y").field_hashes()
        assert cache.stats() == before  # no hit/miss/LRU movement

    def test_drop_and_clear(self):
        cache = DeltaCache()
        cache.put("n1", _record("H1"))
        cache.drop("n1")
        assert len(cache) == 0
        cache.put("n2", _record("H2"))
        cache.clear()
        assert "n2" not in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeltaCache(capacity=0)


class TestV2Envelope:
    def _pair(self):
        return NapletSerializer(), NapletSerializer()

    def test_first_dump_is_full_v2(self):
        sender, receiver = self._pair()
        agent = _identified("full")
        agent.state.set("k", 1)
        data, buffers, cost = sender.dumps_with_cost(agent)
        assert not cost.delta and cost.saved_bytes == 0
        copy, info = receiver.loads_with_info(data, buffers=buffers or None)
        assert info["v"] == 2 and info["mode"] == "full"
        assert isinstance(info["hash"], str)
        assert copy.state.get("k") == 1

    def test_acked_base_turns_repeat_hop_into_delta(self):
        sender, receiver = self._pair()
        agent = _identified("delta")
        agent.state.set("k", 1)
        agent.cargo = b"\xee" * 50_000
        data, buffers, full_cost = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        agent.state.set("k", 2)  # tiny mutation; cargo untouched
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        assert cost.saved_bytes > 0
        assert cost.payload_bytes < full_cost.payload_bytes / 10
        copy, info2 = receiver.loads_with_info(data2, buffers=buffers2 or None)
        assert info2["mode"] == "delta"
        assert copy.state.get("k") == 2
        assert copy.cargo == b"\xee" * 50_000

    def test_unacked_base_ships_full(self):
        sender, receiver = self._pair()
        agent = _identified("no-ack")
        sender.dumps_with_cost(agent)
        # base_hint None (destination never acked): full image again.
        data, buffers, cost = sender.dumps_with_cost(agent)
        assert not cost.delta
        copy, info = receiver.loads_with_info(data, buffers=buffers or None)
        assert info["mode"] == "full"

    def test_deleted_field_travels_in_removed_list(self):
        sender, receiver = self._pair()
        agent = _identified("shrink")
        agent.extra = "short-lived"
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        del agent.extra
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        copy, _ = receiver.loads_with_info(data2, buffers=buffers2 or None)
        assert not hasattr(copy, "extra")

    def test_evicted_base_raises_delta_base_missing(self):
        sender, receiver = self._pair()
        agent = _identified("evicted")
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        receiver.delta_cache.clear()  # the receiver lost the base image
        agent.state.set("k", 9)
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        with pytest.raises(DeltaBaseMissingError):
            receiver.loads_with_info(data2, buffers=buffers2 or None)
        # The sender's escalation re-ships full; the receiver recovers.
        data3, buffers3, cost3 = sender.dumps_with_cost(agent)
        assert not cost3.delta
        copy, info3 = receiver.loads_with_info(data3, buffers=buffers3 or None)
        assert info3["mode"] == "full"
        assert copy.state.get("k") == 9

    def test_corrupt_delta_fails_the_image_hash_check(self):
        import pickle as _pickle

        sender, receiver = self._pair()
        agent = _identified("tamper")
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)
        agent.state.set("k", 1)
        data2, buffers2, _ = sender.dumps_with_cost(agent, base_hint=info["hash"])
        envelope = _pickle.loads(data2, buffers=buffers2 or None)
        envelope["fields"] = {
            n: bytes(b) for n, b in envelope["fields"].items()
        }
        envelope["fields"]["_state"] = _pickle.dumps("tampered")
        with pytest.raises(SerializationError, match="content hash"):
            receiver.loads(_pickle.dumps(envelope))


    @pytest.mark.parametrize("mode", ["full", "delta"])
    def test_one_flipped_byte_in_a_shipped_field_is_rejected(self, mode):
        sender, receiver = self._pair()
        agent = _identified("bitflip")
        agent.cargo = b"\xc4" * 4096
        data, buffers, cost = sender.dumps_with_cost(agent)
        if mode == "delta":
            _, info = receiver.loads_with_info(data, buffers=buffers or None)
            agent.cargo = b"\xc5" * 4096
            data, buffers, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta == (mode == "delta")
        segments = [bytearray(b) for b in buffers]
        cargo = max(segments, key=len)
        cargo[len(cargo) // 2] ^= 0x01
        with pytest.raises(
            SerializationError, match="does not match the announced content hash"
        ):
            receiver.loads_with_info(data, buffers=[bytes(b) for b in segments])


class TestRelease:
    """Values released on ack: every later dump and landing stays right."""

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
        sender, receiver = NapletSerializer(), NapletSerializer()
        agent = _identified("released")
        agent.note = None
        nid = str(agent.naplet_id)
        sender.dumps_with_cost(agent)
        names = self._pickled_names(sender, monkeypatch)
        sender.dumps_with_cost(agent)
        assert "note" not in names  # live base: skipped by identity
        sender.delta_cache.release(nid, sender.delta_cache.peek(nid).hash)
        del names[:]
        data, buffers, _ = sender.dumps_with_cost(agent)
        assert "note" in names and "_state" in names
        copy, _ = receiver.loads_with_info(data, buffers=buffers or None)
        assert copy.note is None
        assert all(e.live for e in sender.delta_cache.peek(nid).fields.values())

    def test_delta_lands_onto_a_released_base(self):
        here, there = NapletSerializer(), NapletSerializer()
        agent = _identified("round-trip")
        agent.cargo = b"\xd1" * 20_000
        nid = str(agent.naplet_id)
        data, buffers, _ = here.dumps_with_cost(agent)
        away, info = there.loads_with_info(data, buffers=buffers or None)
        here.delta_cache.release(nid, info["hash"])  # the departure was acked

        away.state.set("k", 5)
        data2, buffers2, cost = there.dumps_with_cost(away, base_hint=info["hash"])
        assert cost.delta and cost.saved_bytes >= 20_000
        back, info2 = here.loads_with_info(data2, buffers=buffers2 or None)
        assert info2["mode"] == "delta"
        assert back.state.get("k") == 5 and back.cargo == b"\xd1" * 20_000
        assert all(e.live for e in here.delta_cache.peek(nid).fields.values())

    def test_redump_after_a_rolled_back_transfer_ships_the_right_bytes(self):
        sender, receiver = NapletSerializer(), NapletSerializer()
        agent = _identified("retry")
        agent.cargo = b"\xd2" * 20_000
        nid = str(agent.naplet_id)
        sender.dumps_with_cost(agent)  # attempt 1: never acked, rolled back
        first = sender.delta_cache.peek(nid).hash
        # An ack for some other image of this naplet must not touch it.
        sender.delta_cache.release(nid, "0" * 32)
        agent.cargo = b"\xd3" * 20_000
        data, buffers, cost = sender.dumps_with_cost(agent)  # attempt 2
        assert not cost.delta
        copy, info = receiver.loads_with_info(data, buffers=buffers or None)
        assert copy.cargo == b"\xd3" * 20_000 and info["hash"] != first
        # Attempt 1 *had* landed (its ack was lost) and is acked late: the
        # record is attempt 2's by now, so nothing is released.
        sender.delta_cache.release(nid, first)
        assert all(e.live for e in sender.delta_cache.peek(nid).fields.values())


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
        sender = NapletSerializer(registry, eager_code=True)
        agent = _identified("codeful")
        agent.payload = StampedPayload(11)

        import pickle as _pickle

        data, buffers, cost = sender.dumps_with_cost(agent)
        envelope = _pickle.loads(data, buffers=buffers or None)
        assert envelope["bundles"] and not envelope["code_refs"]
        assert cost.code_bytes > 0

        known = {self._module_hash(registry)}
        sender2 = NapletSerializer(registry, eager_code=True)
        data2, buffers2, cost2 = sender2.dumps_with_cost(agent, known_code=known)
        envelope2 = _pickle.loads(data2, buffers=buffers2 or None)
        assert envelope2["code_refs"] and not envelope2["bundles"]
        assert cost2.code_bytes == 0

    def test_code_ref_resolves_when_cache_holds_the_module(self, registry):
        sender = NapletSerializer(registry, eager_code=True)
        receiver = NapletSerializer()
        cache = CodeCache(CodeBaseRegistry())  # fetchless: bundles only
        agent = _identified("code-hop")
        agent.payload = StampedPayload(21)

        # Hop 1 ships the bundle; the landing installs it in the cache.
        data, buffers, _ = sender.dumps_with_cost(agent)
        copy, _ = receiver.loads_with_info(data, cache, buffers=buffers or None)
        assert copy.payload.value == 21
        known = set(cache.known_hashes())
        assert self._module_hash(registry) in known

        # Hop 2 ships only the hash reference — and it resolves.
        sender2 = NapletSerializer(registry, eager_code=True)
        data2, buffers2, _ = sender2.dumps_with_cost(agent, known_code=known)
        receiver2 = NapletSerializer()
        copy2, _ = receiver2.loads_with_info(data2, cache, buffers=buffers2 or None)
        assert copy2.payload.value == 21

    def test_missing_code_ref_raises_shipped_code_missing(self, registry):
        sender = NapletSerializer(registry, eager_code=True)
        agent = _identified("code-miss")
        agent.payload = StampedPayload(31)
        known = {self._module_hash(registry)}
        data, buffers, _ = sender.dumps_with_cost(agent, known_code=known)
        bare_cache = CodeCache(CodeBaseRegistry())  # never saw the bundle
        with pytest.raises(ShippedCodeMissingError):
            NapletSerializer().loads_with_info(data, bare_cache, buffers=buffers or None)
