"""Naplet serialization (the Java-serialization analogue).

``NapletSerializer.dumps`` turns a naplet (or message body) into
transport-ready bytes; ``loads`` restores it on the destination.  Transient
fields are dropped by the objects' own ``__getstate__`` (the
``NapletContext`` refuses pickling outright, catching protocol bugs).

Code shipping integrates here: instances of *stamped* classes (bundled into
a :class:`~repro.codeshipping.codebase.CodeBase`) are reduced to
``(codebase, module, qualname, state)`` tuples.  In **lazy** mode (default,
the paper's model) only the tuple travels and the destination's
:class:`~repro.codeshipping.codebase.CodeCache` fetches code on a miss; in
**eager** mode the referenced module sources are attached to the envelope so
no fetch is ever needed — the E8 benchmark compares the two.

Two envelopes exist, and the *input* selects between them — there is no
option and no negotiation; every reader reads both (DESIGN.md §6.7):

- **single-pickle** (``v: 1``) — one opaque pickle plus eager code
  bundles.  Always self-contained; produced by
  :meth:`NapletSerializer.dumps` for messages and freeze/thaw images, and
  by :meth:`dumps_with_cost` for anything that is not a tracked naplet
  with an id, or whose field graph reaches back to the naplet itself (one
  shared memo keeps that cycle intact).
- **per-field** (``v: 2``) — the image of a tracked naplet: each
  ``image_state()`` entry pickled separately and content-hashed.  Per field
  (:func:`~repro.transport.delta.field_fate`) the bytes **ship**
  (``fields``), or are **referenced** by hash (``refs``) and resolved from
  whichever record at the destination holds them, or are **omitted** and
  taken by name from the destination's own record of this naplet
  (``omitted``, plus the names ``removed`` since); ``mode`` reads ``delta``
  when any field stayed off the wire.  Field bytes are wrapped in
  :class:`pickle.PickleBuffer` so protocol-5 transports move them as
  out-of-band frame segments.  A bulk field is copied once per side — the
  sender joins the pickler's writes, the receiver unpickles the segment it
  read off the wire, which itself becomes the cached field — and hashed
  once per side (:func:`~repro.transport.delta.content_hash`).  Eager code
  bundles are replaced by ``code_refs`` content hashes when the destination
  already holds the module.  Produced only by :meth:`dumps_with_cost`, the
  migration path.

The per-field machinery is conservative by construction: a field is
re-used from the cache (no re-pickle) only when it provably cannot have
changed; it stays off the wire only when unchanged since this naplet's
previous image here *and* the destination is known to hold its hash; the
receiver re-hashes every blob that arrives, resolves the rest only from
bytes it hashed itself, and verifies the composed image hash on every
landing — a delta that does not compose raises
:class:`~repro.core.errors.DeltaBaseMissingError` (one full re-ship).
"""

from __future__ import annotations

import io
import pickle
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Container, Iterable, Protocol

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.codeshipping.shipping import (
    _reconstruct_shipped,
    resolver_installed,
    shipping_stamp_of,
)
from repro.core.errors import (
    DeltaBaseMissingError,
    SerializationError,
    ShippedCodeMissingError,
)
from repro.core.tracking import TrackedState, delta_fingerprint, is_delta_stable
from repro.transport.delta import (
    DeltaCache,
    FieldEntry,
    ImageRecord,
    content_hash,
    field_fate,
    image_hash,
)

__all__ = ["NapletSerializer", "SerializeCost", "SerializerObserver"]

_V1 = 1
_V2 = 2


@dataclass(frozen=True)
class SerializeCost:
    """What one ``dumps`` cost: time and the byte split of the envelope.

    ``total_bytes`` is the full wire size including out-of-band buffers;
    ``payload_bytes`` the pickled object bytes actually shipped (for a
    delta, only the changed fields); ``code_bytes`` counts eager code
    bundles riding in the envelope (zero in lazy mode, where code travels
    on a later fetch instead).  ``delta``/``saved_bytes`` report the delta
    fast path: bytes of the fields omitted or referenced, which the
    destination's own cache made unnecessary to ship.
    """

    seconds: float
    total_bytes: int
    payload_bytes: int
    code_bytes: int
    delta: bool = False
    saved_bytes: int = 0


class SerializerObserver(Protocol):
    """Sink for per-call serialize/deserialize costs (the perf plane)."""

    def serialized(self, cost: SerializeCost) -> None: ...

    def deserialized(self, seconds: float, nbytes: int) -> None: ...


class _SelfReferential(Exception):
    """Internal: a field's object graph reaches back to the naplet itself."""


class _ShippingPickler(pickle.Pickler):
    """Pickler that reduces stamped instances by codebase reference.

    ``root`` guards per-field pickling: a field whose object graph reaches
    back to the naplet being decomposed would unpickle as a detached copy,
    so such naplets travel as one single pickle instead (one shared memo
    keeps the cycle intact).
    """

    def __init__(self, file: Any, protocol: int, root: Any = None) -> None:
        super().__init__(file, protocol)
        self.stamps_seen: set[tuple[str, str, str]] = set()
        self._root = root

    def reducer_override(self, obj: Any) -> Any:
        if self._root is not None and obj is self._root:
            raise _SelfReferential
        if isinstance(obj, type):
            return NotImplemented
        stamp = shipping_stamp_of(obj)
        if stamp is None:
            return NotImplemented
        self.stamps_seen.add(stamp)
        getstate = getattr(obj, "__getstate__", None)
        state = getstate() if callable(getstate) else dict(obj.__dict__)
        return (_reconstruct_shipped, stamp, state)


def _miss(nid: str, what: str) -> DeltaBaseMissingError:
    """A delta that cannot be composed here: recoverable, by one re-ship."""
    return DeltaBaseMissingError(f"delta for naplet {nid} {what} — sender must re-ship the full image")


def _buf_bytes(buffers: Iterable[Any]) -> int:
    return sum(b.nbytes if isinstance(b, memoryview) else len(b) for b in buffers)


class NapletSerializer:
    """Envelope-based serializer with optional eager code bundling.

    Migrating naplets go out as per-field images, less the unchanged
    fields the destination is known to hold.
    """

    def __init__(
        self,
        registry: CodeBaseRegistry | None = None,
        eager_code: bool = False,
        protocol: int = pickle.HIGHEST_PROTOCOL,
        observer: SerializerObserver | None = None,
        delta_cache_capacity: int = 64,
    ) -> None:
        if eager_code and registry is None:
            raise SerializationError("eager code shipping needs a codebase registry")
        self._registry = registry
        self._eager = eager_code
        self._protocol = protocol
        self._observer = observer
        self._delta_cache = DeltaCache(delta_cache_capacity)
        self._cls_refs: dict[type, tuple[str, bytes]] = {}  # pickled once per class

    @property
    def eager_code(self) -> bool:
        return self._eager

    @property
    def delta_cache(self) -> DeltaCache:
        """Image records and their field index (sender and receiver share it)."""
        return self._delta_cache

    # -- encode --------------------------------------------------------------- #

    def dumps(self, obj: Any) -> bytes:
        """Serialize *obj* into a self-contained single-pickle envelope.

        Always in-band: the result round-trips through any storage (freeze/thaw images, message bodies) with
        no delta cache or buffer plumbing involved.
        """
        data, cost = self._encode_v1(obj)
        if self._observer is not None:
            self._observer.serialized(cost)
        return data

    def dumps_with_cost(
        self,
        obj: Any,
        *,
        held: Container[str] = (),
        known_code: set[str] | None = None,
    ) -> tuple[bytes, list[Any], SerializeCost]:
        """Serialize *obj* for migration: ``(data, buffers, cost)``.

        ``buffers`` are protocol-5 out-of-band segments (memoryviews over
        the field pickles) a capable transport ships without re-copying;
        pass them back to :meth:`loads` unchanged.  ``held`` is what the
        destination is known to hold — field content hashes, ids of naplets
        it has a record of; a field in it, unchanged since this naplet's
        previous image here, stays off the wire (``mode: delta``).
        ``known_code`` holds content hashes of modules the
        destination's code cache was seen holding; matching eager bundles
        are replaced by hash references.  Anything that cannot travel per
        field comes back as one single-pickle envelope and no buffers.
        """
        nid = self._trackable_id(obj)
        if nid is not None:
            state = obj.image_state()
            if isinstance(state, dict):
                encoded = self._encode_v2(obj, nid, state, held, known_code)
                if encoded is not None:
                    data, buffers, cost = encoded
                    if self._observer is not None:
                        self._observer.serialized(cost)
                    return data, buffers, cost
        data, cost = self._encode_v1(obj)
        if self._observer is not None:
            self._observer.serialized(cost)
        return data, [], cost

    @staticmethod
    def _trackable_id(obj: Any) -> str | None:
        """The naplet-id cache key, or None when *obj* can't travel per field."""
        if not isinstance(obj, TrackedState):
            return None
        if not getattr(obj, "has_id", False):
            return None
        return str(obj.naplet_id)

    def _encode_v1(self, obj: Any) -> tuple[bytes, SerializeCost]:
        started = time.perf_counter()
        buffer = io.BytesIO()
        pickler = _ShippingPickler(buffer, self._protocol)
        try:
            pickler.dump(obj)
        except (TypeError, AttributeError, pickle.PicklingError) as exc:
            raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
        bundles: dict[tuple[str, str], str] = {}
        if self._eager and pickler.stamps_seen:
            assert self._registry is not None
            for codebase_name, module_key, _qualname in pickler.stamps_seen:
                codebase = self._registry.get(codebase_name)
                bundles[(codebase_name, module_key)] = codebase.source_of(module_key)
        envelope = {
            "v": _V1,
            "payload": buffer.getvalue(),
            "bundles": bundles,
        }
        data = pickle.dumps(envelope, self._protocol)
        cost = SerializeCost(
            seconds=time.perf_counter() - started,
            total_bytes=len(data),
            payload_bytes=len(envelope["payload"]),
            code_bytes=sum(len(source.encode("utf-8")) for source in bundles.values()),
        )
        return data, cost

    def _pickle_field(self, root: Any, name: str, value: Any) -> tuple[bytes, frozenset]:
        # A protocol-5 pickler hands a large bytes payload to ``write``
        # as the object itself: collect the writes and join once.
        chunks: list[bytes] = []
        pickler = _ShippingPickler(
            SimpleNamespace(write=chunks.append), self._protocol, root=root
        )
        try:
            pickler.dump(value)
        except (TypeError, AttributeError, pickle.PicklingError) as exc:
            raise SerializationError(
                f"cannot serialize field {name!r} of {type(root).__name__}: {exc}"
            ) from exc
        return b"".join(chunks), frozenset(pickler.stamps_seen)

    def _encode_v2(
        self,
        obj: Any,
        nid: str,
        state: dict[str, Any],
        held: Container[str],
        known_code: set[str] | None,
    ) -> tuple[bytes, list[Any], SerializeCost] | None:
        started = time.perf_counter()
        dirty = obj.dirty_fields()
        prev = self._delta_cache.get(nid)
        new_fields: dict[str, FieldEntry] = {}
        try:
            for name, value in state.items():
                entry = prev.fields.get(name) if prev is not None else None
                if (
                    entry is not None
                    and name not in dirty
                    and entry.value is value
                    and (
                        is_delta_stable(value)
                        or (
                            entry.fingerprint is not None
                            and entry.fingerprint == delta_fingerprint(value)
                        )
                    )
                ):
                    # Provably unchanged: reuse bytes and hash, skip the pickle.
                    new_fields[name] = entry
                    continue
                data, stamps = self._pickle_field(obj, name, value)
                new_fields[name] = FieldEntry(
                    data=data,
                    hash=content_hash(data),
                    value=value,
                    fingerprint=delta_fingerprint(value),
                    stamps=stamps,
                )
        except _SelfReferential:
            # The field graph reaches the naplet itself: one pickle keeps
            # the cycle, and no per-field record describes this naplet.
            self._delta_cache.drop(nid)
            return None

        stamp = shipping_stamp_of(obj)
        cls_ref = ("stamp", stamp) if stamp is not None else self._cls_refs.get(type(obj))
        if cls_ref is None:
            try:
                cls_ref = ("pickle", pickle.dumps(type(obj), self._protocol))
            except (TypeError, AttributeError, pickle.PicklingError) as exc:
                raise SerializationError(
                    f"cannot serialize {type(obj).__name__}: {exc}"
                ) from exc
            self._cls_refs[type(obj)] = cls_ref

        img_hash = image_hash({n: e.hash for n, e in new_fields.items()})
        # Into the cache first: a field re-pickled to content some record
        # already holds ships (and stays) as that record's bytes object.
        self._delta_cache.put(nid, ImageRecord(img_hash, cls_ref, new_fields))
        fates = {
            n: field_fate(prev, n, e.hash, len(e.data), nid, held)
            for n, e in new_fields.items()
        }
        shipped = {n: e for n, e in new_fields.items() if fates[n] == "ships"}
        delta_mode = len(shipped) < len(new_fields)

        stamps: set[tuple[str, str, str]] = set() if stamp is None else {stamp}
        for entry in shipped.values():
            stamps.update(entry.stamps)
        bundles: dict[tuple[str, str], str] = {}
        code_refs: dict[tuple[str, str], str] = {}
        if self._eager and stamps:
            assert self._registry is not None
            for codebase_name, module_key, _qualname in stamps:
                key = (codebase_name, module_key)
                if key in bundles or key in code_refs:
                    continue
                codebase = self._registry.get(codebase_name)
                module_hash = codebase.hash_of(module_key)
                if known_code and module_hash in known_code:
                    code_refs[key] = module_hash
                else:
                    bundles[key] = codebase.source_of(module_key)

        envelope: dict[str, Any] = {
            "v": _V2,
            "mode": "delta" if delta_mode else "full",
            "nid": nid,
            "cls": cls_ref,
            "hash": img_hash,
            "fields": {n: self._wrap(e.data) for n, e in shipped.items()},
            "bundles": bundles,
            "code_refs": code_refs,
        }
        if delta_mode:
            envelope["refs"] = {
                n: new_fields[n].hash for n, f in fates.items() if f == "referenced"
            }
            if "omitted" in fates.values():
                # The destination patches these fields onto its own record
                # of this naplet: everything there it is not told otherwise.
                envelope["omitted"] = True
                envelope["removed"] = [n for n in prev.fields if n not in new_fields]
        data, buffers = self._pack(envelope)
        payload_bytes = sum(len(e.data) for e in shipped.values())
        image_bytes = sum(len(e.data) for e in new_fields.values())
        cost = SerializeCost(
            seconds=time.perf_counter() - started,
            total_bytes=len(data) + _buf_bytes(buffers),
            payload_bytes=payload_bytes,
            code_bytes=sum(len(s.encode("utf-8")) for s in bundles.values()),
            delta=delta_mode,
            saved_bytes=image_bytes - payload_bytes,
        )
        obj.clear_dirty()
        return data, buffers, cost

    def _wrap(self, data: bytes) -> Any:
        """Field bytes as they sit in the envelope: protocol-5 readers get
        a :class:`pickle.PickleBuffer`, so packing with a buffer callback
        moves them out-of-band with zero copies (and in-band otherwise)."""
        if self._protocol >= 5:
            return pickle.PickleBuffer(data)
        return data

    def _pack(self, envelope: dict[str, Any]) -> tuple[bytes, list[Any]]:
        if self._protocol >= 5:
            raw: list[pickle.PickleBuffer] = []
            data = pickle.dumps(envelope, self._protocol, buffer_callback=raw.append)
            return data, [pb.raw() for pb in raw]
        return pickle.dumps(envelope, self._protocol), []

    # -- decode --------------------------------------------------------------- #

    def loads(
        self, data: bytes, cache: CodeCache | None = None, *, buffers: Any = None
    ) -> Any:
        """Deserialize an envelope; *cache* resolves shipped classes.

        ``buffers`` are the out-of-band segments that travelled beside the
        envelope (the transfer frame's trailing segments); single-pickle
        envelopes and in-band per-field envelopes need none.
        """
        return self.loads_with_info(data, cache, buffers=buffers)[0]

    def loads_with_info(
        self, data: bytes, cache: CodeCache | None = None, *, buffers: Any = None
    ) -> tuple[Any, dict[str, Any]]:
        """Like :meth:`loads`, also reporting ``{v, mode, nid, hash}``.

        The navigator's landing handler learns from it whether the image
        left a record in the delta cache (``hash`` is None when it did not).
        """
        started = time.perf_counter()
        result, info = self._loads(data, cache, buffers)
        if self._observer is not None:
            nbytes = len(data) + _buf_bytes(buffers or ())
            self._observer.deserialized(time.perf_counter() - started, nbytes)
        return result, info

    def _loads(
        self, data: bytes, cache: CodeCache | None, buffers: Any
    ) -> tuple[Any, dict[str, Any]]:
        try:
            envelope = pickle.loads(data, buffers=buffers)
        except Exception as exc:
            raise SerializationError(f"corrupt envelope: {exc}") from exc
        if not isinstance(envelope, dict):
            raise SerializationError("unrecognised envelope format")
        version = envelope.get("v")
        if version == _V1:
            obj = self._loads_v1(envelope, cache)
            return obj, {"v": _V1, "mode": "full", "nid": None, "hash": None}
        if version == _V2:
            return self._loads_v2(envelope, cache)
        raise SerializationError("unrecognised envelope format")

    def _install_bundles(
        self, envelope: dict[str, Any], cache: CodeCache | None
    ) -> None:
        bundles: dict[tuple[str, str], str] = envelope.get("bundles") or {}
        if bundles:
            if cache is None:
                raise SerializationError(
                    "envelope carries code bundles but no code cache was provided"
                )
            for (codebase_name, module_key), source in bundles.items():
                cache.install_source(codebase_name, module_key, source)

    def _loads_v1(self, envelope: dict[str, Any], cache: CodeCache | None) -> Any:
        self._install_bundles(envelope, cache)
        payload: bytes = envelope["payload"]
        try:
            if cache is not None:
                with resolver_installed(cache):
                    return pickle.loads(payload)
            return pickle.loads(payload)
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(f"cannot deserialize payload: {exc}") from exc

    def _loads_v2(
        self, envelope: dict[str, Any], cache: CodeCache | None
    ) -> tuple[Any, dict[str, Any]]:
        mode = envelope.get("mode")
        nid = envelope.get("nid")
        img_hash = envelope.get("hash")
        shipped = envelope.get("fields")
        cls_ref = envelope.get("cls")
        if (
            mode not in ("full", "delta")
            or not isinstance(nid, str)
            or not isinstance(img_hash, str)
            or not isinstance(shipped, dict)
            or not isinstance(cls_ref, tuple)
        ):
            raise SerializationError("malformed v2 envelope")
        self._install_bundles(envelope, cache)
        for (codebase_name, module_key), module_hash in (
            envelope.get("code_refs") or {}
        ).items():
            if cache is None or not cache.holds(codebase_name, module_key, module_hash):
                raise ShippedCodeMissingError(
                    f"envelope references module {module_key!r} of codebase "
                    f"{codebase_name!r} by hash {module_hash[:12]}, which this "
                    "server does not hold — sender must re-ship the bundle"
                )

        # Compose the per-field byte image: the destination's own record
        # for the omitted fields, its hash index for the referenced ones.
        field_bytes: dict[str, Any] = {}
        field_hashes: dict[str, str] = {}
        if mode == "delta" and envelope.get("omitted"):
            record = self._delta_cache.get(nid)
            if record is None:
                raise _miss(nid, "omits fields but no record of it is cached here")
            removed = set(envelope.get("removed") or ())
            for name, entry in record.fields.items():
                if name not in removed:
                    field_bytes[name] = entry.data
                    field_hashes[name] = entry.hash
        for name, digest in (envelope.get("refs") or {}).items():
            blob = field_bytes[name] = self._delta_cache.blob(digest)
            field_hashes[name] = digest
            if blob is None:
                raise _miss(nid, f"references {name!r} by hash {digest[:12]} which no record here holds")
        for name, blob in shipped.items():
            field_bytes[name] = blob
            field_hashes[name] = content_hash(blob)
        if image_hash(field_hashes) != img_hash:
            if mode == "delta":  # what is held here is not what the sender believed
                raise _miss(nid, "does not compose to the announced content hash")
            raise SerializationError(f"image for naplet {nid} does not match the announced content hash")

        kind, ref = cls_ref
        if kind == "stamp":
            if cache is None:
                raise SerializationError(
                    "v2 envelope ships a stamped class but no code cache was provided"
                )
            cls = cache.resolve(*ref)
        elif kind == "pickle":
            try:
                cls = pickle.loads(ref)
            except Exception as exc:
                raise SerializationError(f"cannot resolve naplet class: {exc}") from exc
        else:
            raise SerializationError(f"unknown class reference kind {kind!r}")

        state: dict[str, Any] = {}
        new_fields: dict[str, FieldEntry] = {}

        def _unpickle_all() -> None:
            for name, blob in field_bytes.items():
                try:
                    value = pickle.loads(blob)
                except SerializationError:
                    raise
                except Exception as exc:
                    raise SerializationError(
                        f"cannot deserialize field {name!r}: {exc}"
                    ) from exc
                state[name] = value
                new_fields[name] = FieldEntry(
                    data=blob if isinstance(blob, bytes) else bytes(blob),
                    hash=field_hashes[name],
                    value=value,
                    fingerprint=delta_fingerprint(value),
                )

        if cache is not None:
            with resolver_installed(cache):
                _unpickle_all()
        else:
            _unpickle_all()

        obj = cls.__new__(cls)
        setstate = getattr(obj, "__setstate__", None)
        if callable(setstate):
            setstate(state)
        else:
            obj.__dict__.update(state)
        # Seed the cache with the composed image: the field values in the
        # entries ARE the objects now installed on the naplet, so the next
        # hop from this server gets the identity-based pickle skip.
        self._delta_cache.put(nid, ImageRecord(img_hash, cls_ref, new_fields))
        return obj, {"v": _V2, "mode": mode, "nid": nid, "hash": img_hash}

    # -- sizing ----------------------------------------------------------------- #

    def payload_size(self, obj: Any) -> int:
        """On-wire size of *obj* under this serializer's settings.

        A pure probe: bypasses the perf observer (a sizing call is not a
        hop — see the telemetry-pollution regression test) and never
        touches the delta caches, so probing a naplet mid-flight cannot
        perturb the delta negotiation.
        """
        return len(self._encode_v1(obj)[0])
