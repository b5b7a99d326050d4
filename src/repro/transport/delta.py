"""Delta shipping support: content hashes, image records, the field index.

A migrating naplet ships as a *per-field* image (DESIGN.md §6.7) —
``{field name: bytes}``, each a pickle or a value of exact ``bytes`` itself
(*raw*) — and every field, image and shipped module source is addressed by
:func:`content_hash`, SHA-256 truncated to 128 bits: an address, not a
security boundary (the credential signature guards integrity).  The
buffer goes to hashlib as it is, read once, never copied.

:class:`DeltaCache` holds what one server leans on, as sender and receiver:

- per naplet, the last image dumped or landed here (:class:`ImageRecord`):
  the next dump reuses an unchanged field's bytes without re-pickling and
  ships only what :func:`field_fate` says it must; a landing takes the
  fields the sender *omitted* from it by name;
- per content hash, the one ``bytes`` object that backs that field in every
  record naming it, reference-counted: equal fields of any number of
  naplets cost one copy, and :meth:`DeltaCache.blob` resolves a field the
  sender *referenced* by hash no matter which naplet brought it here,
  and whether a value of those bytes was proved immutable
  (:meth:`DeltaCache.stable`).

Lifetime: a record stays until the naplet retires at this server
(:meth:`DeltaCache.drop`) or the LRU evicts it, a blob exactly as long as
some record names it; a record's live values, kept only so the next dump
*here* can skip an unchanged field by identity, go as soon as the
destination acks the departure (:meth:`DeltaCache.release`) — the naplet
cannot dump here again before landing here writes a fresh record.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Container

from repro.core.tracking import is_delta_stable

__all__ = [
    "DeltaCache",
    "FieldEntry",
    "ImageRecord",
    "content_hash",
    "field_fate",
    "field_key",
    "field_name",
    "image_hash",
]


# What a released FieldEntry holds in place of its live value.  Never None:
# a field whose value *is* None would then pass the dump's identity skip.
_RELEASED = object()


def content_hash(data: bytes | memoryview) -> str:
    """The content address of *data*: SHA-256 cut to 128 bits, 32 hex digits."""
    return hashlib.sha256(data).hexdigest()[:32]


def field_key(name: str, raw: bool) -> str:
    """*name* spelled with its field's kind, as envelopes and image hashes
    carry it: ``=`` before a raw field's name, ``-`` before a pickled one's
    that begins with ``=`` or ``-``, so every key reads back one way."""
    return "=" + name if raw else "-" + name if name[:1] in ("=", "-") else name


def field_name(key: str) -> tuple[str, bool]:
    """``(name, raw)`` of a :func:`field_key`."""
    return (key[1:], key[0] == "=") if key[:1] in ("=", "-") else (key, False)


def image_hash(field_hashes: dict[str, str]) -> str:
    """Hash of a whole per-field image, order-independent.

    Derived from the sorted ``key:hash`` pairs (:func:`field_key`: the
    kinds are part of the image) so sender and receiver compute identical
    image hashes without exchanging field bytes.
    """
    return content_hash(
        "".join(f"{name}\0{field_hashes[name]}\0" for name in sorted(field_hashes))
        .encode("utf-8")
    )


@dataclass
class FieldEntry:
    """One field of a cached image.

    A ``raw`` field's ``data`` is its exact-``bytes`` value, not a pickle:
    stable from the start, it never proves its blob stable for pickles.
    ``value`` holds a *strong* reference to the live object the bytes were
    pickled from — identity comparison against it is only meaningful while
    the object cannot have been garbage collected and its ``id`` reused;
    once released (:attr:`live` False) no value compares identical to it.
    ``fingerprint`` is the value's ``__delta_fingerprint__`` at pickle
    time (None when the protocol is absent); ``stable`` whether the value
    provably cannot mutate (None: not asked yet); ``stamps`` are the shipping
    stamps encountered while pickling this field, kept so eager code
    bundles survive even when the field's bytes are later reused.
    """

    data: bytes
    hash: str
    value: Any
    fingerprint: Any | None = None
    stable: bool | None = None
    stamps: frozenset[tuple[str, str, str]] = frozenset()
    raw: bool = False

    @property
    def live(self) -> bool:
        """False once :meth:`DeltaCache.release` let the value go."""
        return self.value is not _RELEASED


@dataclass
class ImageRecord:
    """A full per-field image of one naplet, as last dumped/accepted."""

    hash: str
    cls_ref: Any
    fields: dict[str, FieldEntry] = field(default_factory=dict)

    def field_hashes(self) -> dict[str, str]:
        return {name: entry.hash for name, entry in self.fields.items()}


def field_fate(
    prev: ImageRecord | None, name: str, digest: str, nbytes: int,
    nid: str, held: Container[str], raw: bool = False,
) -> str:
    """What a dump toward a peer does with one field: ``ships``, ``omitted``
    or ``referenced``.

    *prev* is this naplet's previous image at this server, *held* what the
    peer is known to hold (field hashes, ids of naplets it has a record of).
    Only a field unchanged since *prev* whose hash the peer holds stays off
    the wire: the peer takes it by name from its own record of the naplet
    when it has one, and is otherwise sent the hash — when that is shorter
    than the bytes.  Unchanged-here is what makes a remembered hash worth
    trusting: values that change every hop recur across naplets long after
    the peer overwrote them.  A field whose kind (*raw*) changed ships.
    """
    before = prev.fields.get(name) if prev is not None else None
    if before is None or before.hash != digest or before.raw != raw or digest not in held:
        return "ships"
    if nid in held:
        return "omitted"
    return "referenced" if nbytes > len(digest) else "ships"


class DeltaCache:
    """Thread-safe LRU of :class:`ImageRecord` keyed by naplet id string,
    with a reference-counted index of their fields by content hash.

    Bounded because a long-lived server sees many one-shot naplets; the
    protocol tolerates eviction — a sender that lost its record ships in
    full, a receiver that lost a record or a blob acks ``need_full``.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("delta cache capacity must be >= 1")
        self._capacity = capacity
        self._records: OrderedDict[str, ImageRecord] = OrderedDict()
        self._blobs: dict[str, list] = {}  # hash -> [bytes, fields naming it, proved stable]
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, nid: str) -> ImageRecord | None:
        """The cached image for *nid*."""
        with self._lock:
            record = self._records.get(nid)
            if record is None:
                self.misses += 1
                return None
            self._records.move_to_end(nid)
            self.hits += 1
            return record

    def peek(self, nid: str) -> ImageRecord | None:
        """Like :meth:`get` but a pure probe: no stats, no LRU promotion.

        The pickle X-ray's delta view uses this so inspecting a naplet
        mid-flight cannot perturb the cache order or the hit counters.
        """
        with self._lock:
            return self._records.get(nid)

    def blob(self, digest: str) -> bytes | None:
        """The bytes some record here holds under content hash *digest*."""
        with self._lock:
            slot = self._blobs.get(digest)
            return slot[0] if slot is not None else None

    def stable(self, entry: FieldEntry) -> bool:
        """Whether *entry*'s live value provably cannot mutate, walked once
        (:func:`~repro.core.tracking.is_delta_stable`).  The proof holds for
        values decoded from the same bytes (:meth:`landed`) and no other: a
        custom reducer can make any object pickle to a frozen value's bytes."""
        if entry.stable is None:
            entry.stable = is_delta_stable(entry.value)
            with self._lock:
                if entry.stable and entry.hash in self._blobs:
                    self._blobs[entry.hash][2] = True
        return entry.stable

    def _unindex(self, record: ImageRecord | None) -> None:
        if record is None:
            return
        for entry in record.fields.values():
            slot = self._blobs.get(entry.hash)
            if slot is not None:
                slot[1] -= 1
                if not slot[1]:
                    del self._blobs[entry.hash]

    def put(self, nid: str, record: ImageRecord) -> None:
        with self._lock:
            # Index the new record before letting the old one go, so a
            # field both name keeps its one bytes object throughout.
            for entry in record.fields.values():
                slot = self._blobs.setdefault(entry.hash, [entry.data, 0, False])
                slot[1] += 1
                entry.data = slot[0]
            self._unindex(self._records.get(nid))
            self._records[nid] = record
            self._records.move_to_end(nid)
            while len(self._records) > self._capacity:
                self._unindex(self._records.popitem(last=False)[1])
                self.evictions += 1

    def landed(self, nid: str, record: ImageRecord) -> None:
        """:meth:`put` for an image decoded here: fields of proved bytes are stable."""
        self.put(nid, record)
        with self._lock:
            for entry in record.fields.values():
                slot = self._blobs.get(entry.hash)  # gone if cleared meanwhile
                if slot is not None and slot[2]:
                    entry.stable = True

    def release(self, nid: str, img_hash: str) -> None:
        """Let go of the live values of *nid*'s record if it still is the
        image the destination acked — not the newer one of a naplet that
        already landed back, whose values are the objects it runs with."""
        with self._lock:
            record = self._records.get(nid)
            if record is not None and record.hash == img_hash:
                for entry in record.fields.values():
                    entry.value = _RELEASED

    def drop(self, nid: str) -> None:
        with self._lock:
            self._unindex(self._records.pop(nid, None))

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._blobs.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, nid: str) -> bool:
        with self._lock:
            return nid in self._records

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._records),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
