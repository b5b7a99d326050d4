"""Pickle X-ray: per-attribute byte attribution for a serialized naplet.

``explain_pickle(naplet)`` answers "which attribute makes this naplet
heavy on the wire" — state vs. itinerary vs. trace context vs. shipped
code — without changing how the naplet actually serializes.  ROADMAP
item 2 (delta state shipping) needs exactly this decomposition to prove
its target before it is written.

Technique: the naplet's ``__getstate__()`` values are pickled one by one
through a single :class:`~repro.transport.serializer._ShippingPickler`
over one shared buffer, so the pickle memo is shared across attributes
exactly as it is in the real single-shot pickle.  The ``buf.tell()``
delta around each ``dump()`` is that attribute's byte cost.  Per-dump
framing overhead roughly cancels against the dict-key bytes the real
pickle spends, so the attributed sizes sum to within a few percent of
the true payload (the acceptance test holds this at 5%).
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Any, Container

from repro.core.errors import SerializationError
from repro.transport.delta import Image, content_hash, field_fate, field_key, image_hash
from repro.transport.serializer import (
    NapletSerializer,
    _SelfReferential,
    _ShippingPickler,
)

__all__ = ["DeltaXray", "PickleXray", "explain_delta", "explain_pickle"]

# Private attribute slots mapped to the names operators know them by.
_FRIENDLY = {
    "_name": "name",
    "_nid": "naplet_id",
    "_codebase": "codebase_ref",
    "_cred": "credential",
    "_state": "state",
    "_plan": "itinerary_plan",
    "_itinerary": "itinerary",
    "_address_book": "address_book",
    "_nav_log": "navigation_log",
    "_listener": "listener",
    "_trace_ctx": "trace_context",
    "_hlc": "hlc",
    "_inherit_attributes": "inherited_attributes",
}


def _friendly(attr: str) -> str:
    return _FRIENDLY.get(attr, attr.lstrip("_") or attr)


@dataclass(frozen=True)
class PickleXray:
    """Byte-level decomposition of one naplet's serialized form.

    ``total`` is the on-wire envelope size; ``payload`` the inner pickled
    object; ``code`` the eager code bundles riding in the envelope (zero
    under lazy shipping); ``envelope`` the wrapper overhead
    (``total - payload - code``).  ``attributes`` maps friendly attribute
    names to the bytes each contributes *within* the payload, and
    ``structure`` is the payload remainder (class reference, dict keys,
    framing) not attributable to any single attribute.
    """

    total: int
    payload: int
    code: int
    envelope: int
    attributes: dict[str, int]
    structure: int

    @property
    def accounted(self) -> int:
        """Bytes attributed to named attributes (excludes structure)."""
        return sum(self.attributes.values())

    @property
    def accounted_fraction(self) -> float:
        """Attributed bytes over true payload size — the 5% honesty check."""
        return self.accounted / self.payload if self.payload else 1.0

    def top(self, count: int = 5) -> list[tuple[str, int]]:
        """The *count* heaviest attributes, largest first."""
        ranked = sorted(self.attributes.items(), key=lambda kv: -kv[1])
        return ranked[:count]

    def describe(self) -> dict[str, Any]:
        """JSON-shaped view (for harvests and the napletperf CLI)."""
        return {
            "total_bytes": self.total,
            "payload_bytes": self.payload,
            "code_bytes": self.code,
            "envelope_bytes": self.envelope,
            "structure_bytes": self.structure,
            "attributes": dict(self.attributes),
        }

    def render(self) -> str:
        """Aligned text table, heaviest attribute first."""
        width = max(
            [len("(envelope overhead)")]
            + [len(name) for name in self.attributes]
        )
        lines = [f"  {'attribute':<{width}} {'bytes':>10} {'% of total':>10}"]

        def row(name: str, nbytes: int) -> str:
            share = 100.0 * nbytes / self.total if self.total else 0.0
            return f"  {name:<{width}} {nbytes:>10} {share:>9.1f}%"

        for name, nbytes in sorted(self.attributes.items(), key=lambda kv: -kv[1]):
            lines.append(row(name, nbytes))
        lines.append(row("(structure)", self.structure))
        if self.code:
            lines.append(row("(shipped code)", self.code))
        lines.append(row("(envelope overhead)", self.envelope))
        lines.append(row("(total)", self.total))
        return "\n".join(lines)


def explain_pickle(
    naplet: Any, serializer: NapletSerializer | None = None
) -> PickleXray:
    """Decompose *naplet*'s serialized form into per-attribute byte sizes.

    *serializer* defaults to a fresh lazy-mode :class:`NapletSerializer`;
    pass the server's own serializer to see eager code bundles accounted
    under ``code``.  Works on anything with ``__getstate__``/``__dict__``,
    but the friendly names target naplets.
    """
    serializer = serializer or NapletSerializer()
    data = serializer.dumps(naplet)
    payload, *bundles = pickle.loads(data)  # (payload,) or (payload, bundles)
    code = sum(len(source.encode("utf-8")) for b in bundles for source in b.values())
    envelope_overhead = max(0, len(data) - len(payload) - code)

    getstate = getattr(naplet, "__getstate__", None)
    state = getstate() if callable(getstate) else dict(naplet.__dict__)
    if not isinstance(state, dict):
        state = {"(state)": state}

    buf = io.BytesIO()
    pickler = _ShippingPickler(buf, serializer._protocol)
    attributes: dict[str, int] = {}
    for attr, value in state.items():
        before = buf.tell()
        try:
            pickler.dump(value)
        except Exception:
            # Unpicklable attribute (would also break the real transfer);
            # attribute zero bytes rather than fail the X-ray.
            attributes[_friendly(attr)] = 0
            continue
        attributes[_friendly(attr)] = buf.tell() - before

    structure = max(0, len(payload) - sum(attributes.values()))
    return PickleXray(
        total=len(data),
        payload=len(payload),
        code=code,
        envelope=envelope_overhead,
        attributes=attributes,
        structure=structure,
    )


@dataclass(frozen=True)
class DeltaXray:
    """What the delta fast path would ship on this naplet's next hop.

    Decided field by field with the serializer's own rule
    (:func:`~repro.transport.delta.field_fate`) from the naplet's
    *current* per-field pickle, its previous image at a server (the last
    one dumped or landed there, kept on its naplet-table record) and what
    the peer is known to hold.  ``shipped`` maps the fields whose bytes
    would go on the wire to their sizes; ``skipped`` maps the fields kept
    off it — omitted, or sent as a hash if named in ``referenced``.
    Without a previous image every field ships (``base_hash`` is None — a
    launch is always a full image).  ``base_live`` is False when that
    image is a manifest — the naplet left or retired there, taking its
    live values along — so a dump there would re-pickle every field; what
    ships is decided by the bytes' hashes either way.
    """

    base_hash: str | None
    image_hash: str
    shipped: dict[str, int]
    skipped: dict[str, int]
    base_live: bool = False
    referenced: frozenset[str] = frozenset()

    @property
    def shipped_bytes(self) -> int:
        return sum(self.shipped.values())

    @property
    def saved_bytes(self) -> int:
        return sum(self.skipped.values())

    @property
    def saved_fraction(self) -> float:
        total = self.shipped_bytes + self.saved_bytes
        return self.saved_bytes / total if total else 0.0

    def describe(self) -> dict[str, Any]:
        return {
            "base_hash": self.base_hash,
            "base_live": self.base_live,
            "image_hash": self.image_hash,
            "shipped_bytes": self.shipped_bytes,
            "saved_bytes": self.saved_bytes,
            "shipped": dict(self.shipped),
            "skipped": dict(self.skipped),
            "referenced": sorted(self.referenced),
        }

    def render(self) -> str:
        """Aligned text table: what ships, what the peer already holds saves."""
        names = list(self.shipped) + list(self.skipped) + ["(total)"]
        width = max(len(name) for name in names)
        if not self.base_hash:
            what = "full image (no previous image here)"
        else:
            what = "delta against image " + self.base_hash[:12]
            if not self.base_live:
                what += " (a manifest: no live values)"
        lines = [
            "  next hop ships a " + what,
            f"  {'attribute':<{width}} {'bytes':>10}  {'fate'}",
        ]
        for name, nbytes in sorted(self.shipped.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<{width}} {nbytes:>10}  ships")
        for name, nbytes in sorted(self.skipped.items(), key=lambda kv: -kv[1]):
            fate = "referenced" if name in self.referenced else "omitted"
            lines.append(f"  {name:<{width}} {nbytes:>10}  {fate} (saved)")
        lines.append(
            f"  {'(total)':<{width}} {self.shipped_bytes:>10}  "
            f"on the wire, {self.saved_bytes} saved "
            f"({100.0 * self.saved_fraction:.1f}%)"
        )
        return "\n".join(lines)


def explain_delta(
    naplet: Any, serializer: NapletSerializer, held: Container[str] | None = None,
    prev: Image | None = None,
) -> DeltaXray:
    """Preview *naplet*'s next hop under delta shipping — a pure probe.

    Images each ``image_state()`` field (the itinerary's plan and cursor
    apart, no credential) as the serializer does, raw ``bytes`` or pickle,
    and asks the serializer's own rule what the hop would do with it, so
    the view cannot drift from the envelope.  *prev* is the naplet's
    previous image at the sending server (``server.manager.footprint(nid).image``;
    None: a launch).  *held* is what the destination is known to hold
    (``server.navigator.held_by(peer)``); by default it is *prev* — the
    view of a hop back to the peer that image came from or went to.
    Nothing is mutated: no blob is touched, and dirty flags stay as they are.
    """
    getstate = getattr(naplet, "image_state", None) or getattr(naplet, "__getstate__", None)
    state = getstate() if callable(getstate) else dict(naplet.__dict__)
    if not isinstance(state, dict):
        state = {"(state)": state}
    nid = str(naplet.naplet_id) if getattr(naplet, "has_id", False) else ""
    before = prev.field_hashes() if prev is not None else {}
    if held is None:  # a hop back to the peer the previous image came from or went to
        held = {nid, *before.values()} if prev is not None else ()

    shipped: dict[str, int] = {}
    skipped: dict[str, int] = {}
    referenced: set[str] = set()
    field_hashes: dict[str, str] = {}
    for attr, value in state.items():
        try:
            data, raw, _stamps = serializer._field_image(naplet, attr, value)
        except (SerializationError, _SelfReferential):
            # Unpicklable (the three pickling errors, wrapped) or reaching
            # back to the naplet: the real dump fails or goes as one pickle.
            shipped[_friendly(attr)] = 0
            continue
        key = field_key(attr, raw)
        digest = field_hashes[key] = content_hash(data)
        fate = field_fate(before.get(key), digest, len(data), nid, held)
        (shipped if fate == "ships" else skipped)[_friendly(attr)] = len(data)
        if fate == "referenced":
            referenced.add(_friendly(attr))
    return DeltaXray(
        base_hash=prev.hash if prev is not None else None,
        image_hash=image_hash(field_hashes),
        shipped=shipped,
        skipped=skipped,
        base_live=prev is not None and prev.entries is not None,
        referenced=frozenset(referenced),
    )
