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

Two envelopes exist, both flat tuples; the *input* selects between them —
no option, no negotiation — and every reader reads both (DESIGN.md §6.7):

- **single-pickle** ``(payload,)``, or ``(payload, bundles)`` with eager
  code: self-contained; :meth:`NapletSerializer.dumps` writes it, and so
  does :meth:`dumps_with_cost` for anything but a tracked naplet with an id
  whose fields do not reach back to itself.
- **per-field** ``(nid, digest, shipped, removed, refs, cls, bundles,
  code_refs)``, the migration image (:meth:`dumps_with_cost`): absent
  slots ``None``, trailing ones dropped, every hash 16 raw bytes.  Per
  ``image_state()`` field (:func:`~repro.transport.delta.field_fate`) its
  image — its pickle, or a value of exact ``bytes`` itself — **ships**
  (``shipped``: key, buffer, …; out-of-band segments; a key is the name
  spelled with the kind, ``field_key``), is **referenced** by hash
  (``refs``: key, hash, …) or is **omitted**, taken by name from the
  destination's own image of this naplet: ``removed`` (names dropped
  since) is present, and ``cls`` (a shipping stamp or the pickled class)
  absent, exactly then.  Eager bundles the destination holds travel as
  ``code_refs`` hashes.

The serializer keeps no image per naplet: both directions are handed the
naplet's previous :class:`~repro.transport.delta.Image` at this server
(the navigator keeps it on the naplet-table record) and hand back the new
one; the field bytes of every image live once in :attr:`NapletSerializer.blobs`.
A field is re-used without a re-pickle or re-hash only when it provably
cannot have changed: the same object, not rebound, and either immutable
all the way down (:meth:`~repro.transport.delta.FieldEntry.proved_stable`:
walked once, or inherited by a value that landed from bytes already
proved) or with an unchanged mutation fingerprint.  It stays off the wire
only when unchanged since the previous image *and* held by the destination.
The receiver re-hashes what arrives and verifies the composed image hash:
a delta that does not compose raises
:class:`~repro.core.errors.DeltaBaseMissingError` (one full re-ship), a
malformed envelope :class:`~repro.core.errors.SerializationError`.
"""

from __future__ import annotations

import pickle
import time
from contextlib import nullcontext
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
from repro.core.tracking import TrackedState, delta_fingerprint
from repro.transport.delta import (
    Blob,
    BlobStore,
    FieldEntry,
    Image,
    content_hash,
    field_fate,
    field_key,
    field_name,
    image_hash,
)

__all__ = ["NapletSerializer", "SerializeCost", "SerializerObserver"]

_MALFORMED = (TypeError, ValueError, AttributeError)  # what a garbled envelope raises


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


def _whole_bytes(segment: Any) -> bytes:
    """*segment* as ``bytes``: itself, the ``bytes`` a memoryview spans whole
    (an in-process frame's segment), or else a copy."""
    base = getattr(segment, "obj", segment)
    return base if type(base) is bytes and len(base) == len(segment) else bytes(segment)


def _unframed(data: bytes) -> bytes:
    """A one-frame pickle less its 9-byte FRAME header, which restates a length
    its carrier knows (readers need no frames); a larger pickle stays whole."""
    if data[2:3] == pickle.FRAME and int.from_bytes(data[3:11], "little") == len(data) - 11:
        return data[:2] + data[11:]
    return data


def _flat(pairs: Iterable[tuple[Any, Any]]) -> tuple | None:
    """``((a, 1), (b, 2))`` as ``(a, 1, b, 2)``; nothing as ``None``."""
    return tuple(item for pair in pairs for item in pair) or None


def _pairs(flat: tuple | None) -> Iterable[tuple[Any, Any]]:
    return zip(flat[::2], flat[1::2], strict=True) if flat is not None else ()


def _unpickled(data: Any, what: str) -> Any:
    """``pickle.loads``; any failure is a :class:`SerializationError`."""
    try:
        return pickle.loads(data)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"cannot deserialize {what}: {exc}") from exc


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
    ) -> None:
        if eager_code and registry is None:
            raise SerializationError("eager code shipping needs a codebase registry")
        self._registry = registry
        self._eager = eager_code
        self._protocol = protocol
        self._observer = observer
        self.blobs = BlobStore()  # field bytes of every image kept here
        self._cls_refs: dict[type, bytes] = {}  # pickled once per class

    @property
    def eager_code(self) -> bool:
        return self._eager

    # -- encode --------------------------------------------------------------- #

    def dumps(self, obj: Any) -> bytes:
        """Serialize *obj* into a self-contained single-pickle envelope.

        Always in-band: the result round-trips through any storage (freeze/thaw images, message bodies) with
        no blob store or buffer plumbing involved.
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
        prev: Image | None = None,
    ) -> tuple[bytes, list[Any], SerializeCost, Image | None]:
        """Serialize *obj* for migration: ``(data, buffers, cost, image)``.

        ``buffers`` are protocol-5 out-of-band segments (memoryviews over
        the field pickles) a capable transport ships without re-copying;
        pass them back to :meth:`loads` unchanged.  *prev* is this naplet's
        previous image here, ``image`` the new one to keep in its place
        (its blobs are named in :attr:`blobs` until it is let go).
        ``held`` is what the destination is known to hold — field content
        hashes, ids of naplets it has a record of; a field in it, unchanged
        since *prev*, stays off the wire (``mode: delta``).
        ``known_code`` holds content hashes of modules the
        destination's code cache was seen holding; matching eager bundles
        are replaced by hash references.  Anything that cannot travel per
        field comes back as one single-pickle envelope, no buffers and no
        image.
        """
        encoded = None
        if isinstance(obj, TrackedState) and getattr(obj, "has_id", False):
            state = obj.image_state()
            if isinstance(state, dict):
                encoded = self._encode_v2(obj, str(obj.naplet_id), state, held, known_code, prev)
        if encoded is None:
            data, cost = self._encode_v1(obj)
            encoded = (data, [], cost, None)
        if self._observer is not None:
            self._observer.serialized(encoded[2])
        return encoded

    def _encode_v1(self, obj: Any) -> tuple[bytes, SerializeCost]:
        started = time.perf_counter()
        chunks: list[bytes] = []
        pickler = _ShippingPickler(SimpleNamespace(write=chunks.append), self._protocol)
        try:
            pickler.dump(obj)
        except (TypeError, AttributeError, pickle.PicklingError) as exc:
            raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
        payload = _unframed(b"".join(chunks))
        bundles = self._bundles(pickler.stamps_seen)[0]
        data = _unframed(pickle.dumps((payload, bundles) if bundles else (payload,), self._protocol))
        cost = SerializeCost(
            seconds=time.perf_counter() - started,
            total_bytes=len(data),
            payload_bytes=len(payload),
            code_bytes=sum(len(source.encode("utf-8")) for source in bundles.values()),
        )
        return data, cost

    def _bundles(
        self, stamps: Iterable[tuple[str, str, str]], known_code: set[str] | None = None
    ) -> tuple[dict[tuple[str, str], str], dict[tuple[str, str], bytes]]:
        """Eager mode: ``(bundles, code_refs)`` for the modules *stamps*
        name — one the destination holds travels as its raw hash."""
        bundles: dict[tuple[str, str], str] = {}
        code_refs: dict[tuple[str, str], bytes] = {}
        for codebase_name, module_key, _qualname in stamps if self._eager else ():
            assert self._registry is not None
            codebase = self._registry.get(codebase_name)
            module_hash = codebase.hash_of(module_key)
            if known_code and module_hash in known_code:
                code_refs[(codebase_name, module_key)] = bytes.fromhex(module_hash)
            else:
                bundles[(codebase_name, module_key)] = codebase.source_of(module_key)
        return bundles, code_refs

    def _field_image(self, root: Any, name: str, value: Any) -> tuple[bytes, bool, frozenset]:
        """``(data, raw, stamps)`` of a field: a value that is exactly ``bytes``
        is its own image (raw), anything else its pickle."""
        if type(value) is bytes:
            return value, True, frozenset()
        data, stamps = self._pickle_field(root, name, value)
        return data, False, stamps

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
        return _unframed(b"".join(chunks)), frozenset(pickler.stamps_seen)

    def _encode_v2(
        self,
        obj: Any,
        nid: str,
        state: dict[str, Any],
        held: Container[str],
        known_code: set[str] | None,
        prev: Image | None,
    ) -> tuple[bytes, list[Any], SerializeCost, Image] | None:
        started = time.perf_counter()
        dirty = obj.dirty_fields()
        before = prev.entries or {} if prev is not None else {}
        entries: dict[str, FieldEntry] = {}
        try:
            for name, value in state.items():
                entry = before.get(name)
                if not (
                    entry is not None
                    and entry.value is value
                    and name not in dirty
                    and entry.blob.data is not None
                    and (
                        entry.proved_stable()
                        or (
                            entry.fingerprint is not None
                            and entry.fingerprint == delta_fingerprint(value)
                        )
                    )
                ):  # it may have changed: pickle it, else reuse bytes and hash
                    data, raw, stamps = self._field_image(obj, name, value)
                    entry = FieldEntry(
                        Blob(content_hash(data), data), value, delta_fingerprint(value),
                        stable=raw or None, stamps=stamps, raw=raw,
                    )
                entries[name] = entry
        except _SelfReferential:
            # The field graph reaches the naplet itself: one pickle keeps
            # the cycle, and no per-field image describes this naplet.
            return None

        stamp = shipping_stamp_of(obj)
        cls_ref = stamp if stamp is not None else self._cls_refs.get(type(obj))
        if cls_ref is None:
            try:
                cls_ref = self._cls_refs[type(obj)] = _unframed(pickle.dumps(type(obj), self._protocol))
            except (TypeError, AttributeError, pickle.PicklingError) as exc:
                raise SerializationError(
                    f"cannot serialize {type(obj).__name__}: {exc}"
                ) from exc

        # The bytes to ship, taken before the image names its blobs (which
        # may push some of its own past the budget); named first, a field
        # re-pickled to content held here already stays as that one object.
        datas = [entry.blob.data for entry in entries.values()]
        for entry, blob in zip(entries.values(), self.blobs.name(e.blob for e in entries.values())):
            entry.blob = blob
        image = Image.of(cls_ref, entries)
        previous = prev.field_hashes() if prev is not None else {}
        rows = [
            (key, entry, data, field_fate(previous.get(key), entry.hash, len(data), nid, held))
            for key, entry, data in zip(image.keys, entries.values(), datas)
        ]
        shipped = [(key, entry, data) for key, entry, data, fate in rows if fate == "ships"]
        omitted = any(fate == "omitted" for *_, fate in rows)
        stamps: set[tuple[str, str, str]] = set() if stamp is None else {stamp}
        for _, entry, _ in shipped:
            stamps.update(entry.stamps)
        bundles, code_refs = self._bundles(stamps, known_code)
        envelope = (
            nid,
            bytes.fromhex(image.hash),
            _flat((key, self._wrap(data)) for key, _, data in shipped),
            # The destination patches omitted fields onto its own image of
            # this naplet: everything there it is not told otherwise.
            tuple(n for n, _ in map(field_name, prev.keys) if n not in entries) if omitted else None,
            _flat((key, bytes.fromhex(entry.hash))
                  for key, entry, _, fate in rows if fate == "referenced"),
            None if omitted else cls_ref,
            bundles or None,
            code_refs or None,
        )
        while envelope[-1] is None:
            envelope = envelope[:-1]
        data, buffers = self._pack(envelope)
        payload_bytes = sum(len(data) for *_, data in shipped)
        image_bytes = sum(len(data) for data in datas)
        cost = SerializeCost(
            seconds=time.perf_counter() - started,
            total_bytes=len(data) + _buf_bytes(buffers),
            payload_bytes=payload_bytes,
            code_bytes=sum(len(s.encode("utf-8")) for s in bundles.values()),
            delta=len(shipped) < len(entries),
            saved_bytes=image_bytes - payload_bytes,
        )
        obj.clear_dirty()
        return data, buffers, cost, image

    def _wrap(self, data: bytes) -> Any:
        """Field bytes as they sit in the envelope: protocol-5 readers get
        a :class:`pickle.PickleBuffer`, so packing with a buffer callback
        moves them out-of-band with zero copies (and in-band otherwise)."""
        if self._protocol >= 5:
            return pickle.PickleBuffer(data)
        return data

    def _pack(self, envelope: tuple) -> tuple[bytes, list[Any]]:
        if self._protocol >= 5:
            raw: list[pickle.PickleBuffer] = []
            data = pickle.dumps(envelope, self._protocol, buffer_callback=raw.append)
            return _unframed(data), [pb.raw() for pb in raw]
        return _unframed(pickle.dumps(envelope, self._protocol)), []

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
        self, data: bytes, cache: CodeCache | None = None, *, buffers: Any = None,
        prev: Image | None = None,
    ) -> tuple[Any, dict[str, Any]]:
        """Like :meth:`loads`, also reporting ``{v, mode, nid, hash, image}``.

        *prev* is the naplet's previous image here, which omitted fields
        come from; ``image`` the landed one to keep in its place (None, as
        is ``hash``, for a single pickle).
        """
        started = time.perf_counter()
        try:
            envelope = pickle.loads(data, buffers=buffers)
        except Exception as exc:
            raise SerializationError(f"corrupt envelope: {exc}") from exc
        if not isinstance(envelope, tuple) or not envelope:
            raise SerializationError("unrecognised envelope format")
        if isinstance(envelope[0], str):
            result = self._loads_v2(envelope, cache, prev)
        elif len(envelope) <= 2 and isinstance(envelope[0], bytes):
            self._install_bundles(envelope[1] if len(envelope) == 2 else None, cache)
            with resolver_installed(cache) if cache is not None else nullcontext():
                obj = _unpickled(envelope[0], "payload")
            result = obj, {"v": 1, "mode": "full", "nid": None, "hash": None, "image": None}
        else:
            raise SerializationError("unrecognised envelope format")
        if self._observer is not None:
            nbytes = len(data) + _buf_bytes(buffers or ())
            self._observer.deserialized(time.perf_counter() - started, nbytes)
        return result

    def _install_bundles(self, bundles: Any, cache: CodeCache | None) -> None:
        if not bundles:
            return
        if cache is None:
            raise SerializationError("envelope carries code bundles but no code cache was provided")
        try:
            for (codebase_name, module_key), source in dict(bundles).items():
                cache.install_source(codebase_name, module_key, source)
        except _MALFORMED as exc:
            raise SerializationError(f"malformed code bundles: {exc}") from exc

    def _loads_v2(
        self, envelope: tuple, cache: CodeCache | None, prev: Image | None
    ) -> tuple[Any, dict[str, Any]]:
        try:
            nid, digest, shipped, removed, refs, cls_ref, bundles, code_refs = (
                *envelope, *(None,) * (8 - len(envelope))
            )
            img_hash = digest.hex()
            shipped = dict(_pairs(shipped))
            refs = {name: ref.hex() for name, ref in _pairs(refs)}
            code_refs = {key: ref.hex() for key, ref in (code_refs or {}).items()}
            removed = None if removed is None else set(removed)
        except _MALFORMED as exc:
            raise SerializationError(f"malformed per-field envelope: {exc}") from exc
        self._install_bundles(bundles, cache)
        for (codebase_name, module_key), module_hash in code_refs.items():
            if cache is None or not cache.holds(codebase_name, module_key, module_hash):
                raise ShippedCodeMissingError(
                    f"envelope references module {module_key!r} of codebase "
                    f"{codebase_name!r} by hash {module_hash[:12]}, which this "
                    "server does not hold — sender must re-ship the bundle"
                )

        # Compose the image, name -> (bytes, hash, raw), from the blob store:
        # the omitted fields are the previous image's here, by their hashes.
        blobs = self.blobs
        fields: dict[str, tuple[Any, str, bool]] = {}
        raw_blobs: dict[str, bytes] = {}  # hash -> the one object equal raw fields land as
        delta = removed is not None or bool(refs)
        if removed is not None:
            if prev is None:
                raise _miss(nid, "omits fields but no image of it is kept here")
            cls_ref = prev.cls_ref
            kept = zip(prev.keys, prev.blobs)
            refs = {**{key: b.hash for key, b in kept if field_name(key)[0] not in removed}, **refs}
        try:
            for key, ref in refs.items():
                name, raw = field_name(key)
                held = blobs.get(ref)
                if held is None:
                    raise _miss(nid, f"leans on {name!r} by hash {ref[:12]}, which is not held here")
                fields[name] = (held, ref, raw)
            for key, blob in shipped.items():
                name, raw = field_name(key)
                digest = content_hash(blob)
                if raw:  # lands as the one bytes object held here, else as itself
                    blob = raw_blobs.setdefault(digest, blobs.get(digest) or _whole_bytes(blob))
                fields[name] = (blob, digest, raw)
            composed = image_hash({field_key(n, raw): h for n, (_, h, raw) in fields.items()})
        except _MALFORMED as exc:
            raise SerializationError(f"malformed per-field envelope: {exc}") from exc
        if composed != img_hash:
            if delta:  # what is held here is not what the sender believed
                raise _miss(nid, "does not compose to the announced content hash")
            raise SerializationError(f"image for naplet {nid} does not match the announced content hash")

        if isinstance(cls_ref, tuple):
            if cache is None:
                raise SerializationError(
                    "envelope ships a stamped class but no code cache was provided"
                )
            cls = cache.resolve(*cls_ref)
        else:
            cls = _unpickled(cls_ref, "naplet class")
        with resolver_installed(cache) if cache is not None else nullcontext():
            state = {name: blob if raw else _unpickled(blob, f"field {name!r}")
                     for name, (blob, _, raw) in fields.items()}
        try:
            obj = cls.__new__(cls)
            setstate = getattr(obj, "__setstate__", None)
            if callable(setstate):
                setstate(dict(state))
            else:
                obj.__dict__.update(state)
        except Exception as exc:
            raise SerializationError(f"cannot restore naplet {nid}: {exc}") from exc
        # The landed image: its values ARE the objects now installed on the
        # naplet, so the next hop from this server gets the identity-based
        # pickle skip, and bytes already proved stable prove their value.
        named = blobs.name(Blob(digest, _whole_bytes(data)) for data, digest, _ in fields.values())
        image = Image.of(cls_ref, {
            name: FieldEntry(
                blob, state[name], delta_fingerprint(state[name]),
                stable=True if raw or blob.stable else None, raw=raw,
            )
            for (name, (_, _, raw)), blob in zip(fields.items(), named)
        }, img_hash)
        info = {"v": 2, "mode": "delta" if delta else "full", "nid": nid, "hash": img_hash}
        return obj, {**info, "image": image}

    # -- sizing ----------------------------------------------------------------- #

    def payload_size(self, obj: Any) -> int:
        """On-wire size of *obj* under this serializer's settings.

        A pure probe: bypasses the perf observer (a sizing call is not a
        hop — see the telemetry-pollution regression test) and never
        touches the blob store, so probing a naplet mid-flight cannot
        perturb the delta negotiation.
        """
        return len(self._encode_v1(obj)[0])
