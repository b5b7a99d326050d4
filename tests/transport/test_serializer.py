"""NapletSerializer: envelopes, transients, and shipped-class integration."""

from __future__ import annotations

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.core.errors import SerializationError
from repro.transport.serializer import NapletSerializer
from tests.core.test_naplet import ProbeNaplet


from tests.transport.shipped_fixture import StampedPayload


class PlainPayload:
    def __init__(self, value):
        self.value = value


@pytest.fixture
def registry():
    reg = CodeBaseRegistry()
    codebase = reg.create("codebase://test/payload")
    codebase.add_class(StampedPayload)
    return reg


@pytest.fixture
def cache(registry):
    return CodeCache(registry)


class TestPlainRoundtrip:
    def test_roundtrip_without_cache(self):
        serializer = NapletSerializer()
        data = serializer.dumps({"a": [1, 2, 3]})
        assert serializer.loads(data) == {"a": [1, 2, 3]}

    def test_naplet_roundtrip_drops_context(self):
        serializer = NapletSerializer()
        agent = ProbeNaplet("traveller")
        agent._context = "fake-context"  # type: ignore[assignment]
        agent.state.set("k", 1)
        copy = serializer.loads(serializer.dumps(agent))
        assert copy.context is None
        assert copy.state.get("k") == 1

    def test_corrupt_envelope_raises(self):
        with pytest.raises(SerializationError):
            NapletSerializer().loads(b"not-an-envelope")

    def test_wrong_version_raises(self):
        import pickle

        data = pickle.dumps({"v": 99, "payload": b"", "bundles": {}})
        with pytest.raises(SerializationError):
            NapletSerializer().loads(data)

    def test_unpicklable_object_raises(self):
        serializer = NapletSerializer()
        with pytest.raises(SerializationError):
            serializer.dumps(lambda x: x)  # lambdas don't pickle

    def test_payload_size_positive_and_monotone(self):
        serializer = NapletSerializer()
        small = serializer.payload_size("x")
        big = serializer.payload_size("x" * 10_000)
        assert 0 < small < big

    def test_payload_size_bypasses_perf_observer(self):
        # Regression: sizing probes used to flow through the observer and
        # pollute naplet_serialize_seconds / hop-byte telemetry with
        # phantom "hops".  payload_size must stay invisible.
        class RecordingObserver:
            def __init__(self):
                self.serialized_calls = []
                self.deserialized_calls = []

            def serialized(self, cost):
                self.serialized_calls.append(cost)

            def deserialized(self, seconds, nbytes):
                self.deserialized_calls.append(nbytes)

        observer = RecordingObserver()
        serializer = NapletSerializer(observer=observer)
        serializer.payload_size({"k": "v" * 1000})
        assert observer.serialized_calls == []
        # ... while a real dumps is still observed exactly once.
        serializer.dumps({"k": 1})
        assert len(observer.serialized_calls) == 1

    def test_payload_size_never_touches_the_delta_cache(self):
        from tests.core.test_naplet import _identified

        serializer = NapletSerializer()
        serializer.payload_size(_identified("probe-sized"))
        assert serializer.blobs.nbytes == 0


class TestShippedClasses:
    def test_lazy_roundtrip_through_cache(self, registry, cache):
        serializer = NapletSerializer(registry)
        data = serializer.dumps(StampedPayload(41))
        restored = serializer.loads(data, cache)
        assert restored.value == 41
        # Reconstructed through the codebase, not the local class object.
        assert type(restored) is not StampedPayload
        assert type(restored).__name__ == "StampedPayload"
        assert cache.journal.count("codeshipping-cache-miss") == 1

    def test_second_load_hits_cache(self, registry, cache):
        serializer = NapletSerializer(registry)
        serializer.loads(serializer.dumps(StampedPayload(1)), cache)
        serializer.loads(serializer.dumps(StampedPayload(2)), cache)
        assert cache.journal.count("codeshipping-cache-miss") == 1
        assert cache.journal.count("codeshipping-cache-hit") == 1

    def test_lazy_without_cache_raises(self, registry):
        serializer = NapletSerializer(registry)
        data = serializer.dumps(StampedPayload(1))
        with pytest.raises(SerializationError):
            serializer.loads(data)

    def test_eager_mode_embeds_bundles(self, registry):
        lazy = NapletSerializer(registry, eager_code=False)
        eager = NapletSerializer(registry, eager_code=True)
        obj = StampedPayload(7)
        assert len(eager.dumps(obj)) > len(lazy.dumps(obj))

    def test_eager_load_needs_no_registry_fetch(self, registry):
        eager = NapletSerializer(registry, eager_code=True)
        data = eager.dumps(StampedPayload(9))
        # A cache whose registry is EMPTY: only the embedded bundle can help.
        fetchless_cache = CodeCache(CodeBaseRegistry())
        restored = eager.loads(data, fetchless_cache)
        assert restored.value == 9
        # install_source pre-seeded it
        assert fetchless_cache.journal.count("codeshipping-cache-miss") == 0

    def test_eager_requires_registry(self):
        with pytest.raises(SerializationError):
            NapletSerializer(None, eager_code=True)

    def test_plain_classes_not_affected_by_cache(self, cache):
        serializer = NapletSerializer()
        restored = serializer.loads(serializer.dumps(PlainPayload(3)), cache)
        assert type(restored) is PlainPayload
        assert restored.value == 3

    def test_nested_shipped_instances(self, registry, cache):
        serializer = NapletSerializer(registry)
        data = serializer.dumps({"inner": [StampedPayload(1), StampedPayload(2)]})
        restored = serializer.loads(data, cache)
        assert [p.value for p in restored["inner"]] == [1, 2]
