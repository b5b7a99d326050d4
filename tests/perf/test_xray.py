"""explain_pickle: per-attribute byte attribution of a serialized naplet."""

from __future__ import annotations

import json

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry
from repro.perf import explain_delta, explain_pickle
from repro.transport.serializer import NapletSerializer
from tests.conftest import CollectorNaplet
from tests.core.test_naplet import _identified
from tests.transport.envelopes import read_envelope
from tests.transport.images import ImageKeeper
from tests.transport.shipped_fixture import StampedPayload

pytestmark = pytest.mark.perf


class Bag:
    """Plain object (no custom __getstate__) for the generic-object path."""

    def __init__(self):
        self.small = 1
        self.big = b"y" * 2048


def _heavy_naplet() -> CollectorNaplet:
    """A naplet whose state carries a few KB — the X-ray's usual patient."""
    agent = CollectorNaplet("xray-patient")
    agent.state.set("blob", "x" * 4096)
    agent.state.set("table", {f"key-{i}": i for i in range(200)})
    return agent


class TestAttribution:
    def test_attribute_sizes_sum_within_5pct_of_payload(self):
        """ISSUE acceptance: the shared-memo trick keeps the decomposition
        honest — attributed bytes land within 5% of the true pickle size."""
        xray = explain_pickle(_heavy_naplet())
        assert xray.payload > 4096  # the state really is in there
        assert 0.95 <= xray.accounted_fraction <= 1.05
        # What the X-ray cannot pin on an attribute it reports as
        # structure, so the full decomposition covers the payload.
        assert xray.accounted + xray.structure >= xray.payload

    def test_heaviest_attribute_is_the_heavy_state(self):
        xray = explain_pickle(_heavy_naplet())
        name, nbytes = xray.top(1)[0]
        assert name == "state"
        assert nbytes > 4096
        # top() ranks strictly by size
        sizes = [n for _name, n in xray.top(len(xray.attributes))]
        assert sizes == sorted(sizes, reverse=True)

    def test_envelope_decomposition_adds_up(self):
        xray = explain_pickle(_heavy_naplet())
        assert xray.total == xray.payload + xray.code + xray.envelope
        assert xray.code == 0  # lazy default: no bundles in the envelope

    def test_friendly_names_replace_private_slots(self):
        xray = explain_pickle(CollectorNaplet("plain"))
        assert "itinerary" in xray.attributes
        assert "trace_context" in xray.attributes
        assert "_itinerary" not in xray.attributes

    def test_eager_serializer_accounts_code_bundles(self):
        registry = CodeBaseRegistry()
        codebase = registry.create("codebase://test/payload")
        codebase.add_class(StampedPayload)
        eager = NapletSerializer(registry, eager_code=True)
        xray = explain_pickle(StampedPayload(7), serializer=eager)
        assert xray.code > 0
        assert xray.total == xray.payload + xray.code + xray.envelope

    def test_unpicklable_naplet_fails_like_the_real_transfer(self):
        from repro.core.errors import SerializationError

        agent = CollectorNaplet("broken")
        agent.state.set("socket", lambda: None)  # lambdas don't pickle
        with pytest.raises(SerializationError):
            explain_pickle(agent)

    def test_object_without_getstate_uses_its_dict(self):
        xray = explain_pickle(Bag())
        assert xray.attributes["big"] > xray.attributes["small"]
        assert 0.95 <= xray.accounted_fraction <= 1.05

    def test_describe_is_json_and_render_lists_rows(self):
        xray = explain_pickle(_heavy_naplet())
        described = json.loads(json.dumps(xray.describe()))
        assert described["payload_bytes"] == xray.payload
        assert described["attributes"]["state"] == xray.attributes["state"]
        text = xray.render()
        assert "state" in text
        assert "(structure)" in text
        assert "(total)" in text


class TestDeltaView:
    def test_released_base_reads_as_no_live_value(self):
        serializer = ImageKeeper()
        agent = _identified("xray-released")
        agent.cargo = b"\xab" * 10_000
        nid = str(agent.naplet_id)
        serializer.dump(agent)
        agent.state.set("k", 1)
        live = explain_delta(agent, serializer, prev=serializer.image(nid))
        assert live.base_live and "manifest" not in live.render()
        assert "state" in live.shipped and "cargo" in live.skipped

        serializer.bury(nid)  # the departure was acked
        manifest = serializer.image(nid)
        held = serializer.blobs.nbytes
        released = explain_delta(agent, serializer, prev=manifest)
        # What ships is decided by the bytes' hashes, which a manifest keeps.
        assert not released.base_live and "(a manifest: no live values)" in released.render()
        assert released.describe()["base_live"] is False
        assert (released.base_hash, released.shipped, released.skipped) == (
            live.base_hash, live.shipped, live.skipped,
        )
        # Still a pure probe.
        assert serializer.image(nid) is manifest and manifest.entries is None
        assert serializer.blobs.nbytes == held
        assert not explain_delta(_identified("never-dumped"), serializer).base_live

    def test_preview_is_the_envelope_the_serializer_then_builds(self):
        """Shipped / omitted / referenced per field, for any peer table."""
        from repro.perf.xray import _friendly

        serializer = ImageKeeper()
        agent = _identified("xray-fates")
        agent.cargo = b"\xcd" * 10_000
        nid = str(agent.naplet_id)
        assert not explain_delta(agent, serializer, held={nid}).skipped  # a launch
        serializer.dump(agent)
        hashes = set(serializer.image(nid).field_hashes().values())
        agent.state.set("k", 1)
        for held in (set(), hashes, hashes | {nid}, {nid}):
            view = explain_delta(agent, serializer, held=held, prev=serializer.image(nid))
            data, buffers, cost = serializer.dump(agent, held=held)
            envelope = read_envelope(data, buffers)
            refs = envelope.get("refs", {})
            assert set(view.shipped) == {_friendly(n) for n in envelope["fields"]}
            assert view.referenced == {_friendly(n) for n in refs}
            assert bool(set(view.skipped) - view.referenced) == bool(envelope.get("omitted"))
            assert (view.shipped_bytes, view.saved_bytes) == (
                cost.payload_bytes, cost.saved_bytes,
            )
            assert view.image_hash == envelope["hash"]
        # With a record at the peer the cargo is omitted; without, referenced.
        prev = serializer.image(nid)
        assert "cargo" in explain_delta(agent, serializer, held=hashes, prev=prev).referenced
        text = explain_delta(agent, serializer, held=hashes, prev=prev).render()
        assert "referenced (saved)" in text and "omitted" not in text
        default = explain_delta(agent, serializer, prev=prev)  # a hop back where it came from
        assert "cargo" in default.skipped and not default.referenced
        assert "omitted (saved)" in default.render()
        assert json.loads(json.dumps(default.describe()))["referenced"] == []

    def test_a_bytes_cargo_previews_as_its_own_image(self):
        """The preview images fields with the serializer's own rule: an
        exact ``bytes`` cargo is its raw bytes, and the kind it travels as
        is part of the image hash both compute."""
        serializer = NapletSerializer()
        agent = _identified("xray-raw")
        agent.cargo = b"\xef" * 10_000
        view = explain_delta(agent, serializer)
        data, buffers, _, _ = serializer.dumps_with_cost(agent)
        envelope = read_envelope(data, buffers)
        assert view.shipped["cargo"] == len(agent.cargo) and "cargo" in envelope["raw"]
        assert view.image_hash == envelope["hash"]

    def test_only_what_the_real_dump_tolerates_reads_as_zero_bytes(self):
        class Exploding:
            def __reduce__(self):
                raise RuntimeError("not a pickling error")

        serializer = NapletSerializer()
        agent = _identified("xray-errors")
        agent.handle = lambda: None  # the real dump: "cannot serialize field"
        agent.ring = {"me": agent}  # the real dump: one pickle instead
        view = explain_delta(agent, serializer)
        assert view.shipped["handle"] == 0 and view.shipped["ring"] == 0
        agent.bomb = Exploding()
        with pytest.raises(RuntimeError, match="not a pickling error"):
            explain_delta(agent, serializer)
