"""Delta shipping support: content hashes and per-naplet base caches.

The v2 envelope (DESIGN.md §6.7) ships a naplet as a *per-field* image —
``{field name: pickled bytes}`` — instead of one opaque pickle.  That makes
two caches possible:

- the **sender** keeps the last image it dumped per naplet
  (:class:`DeltaCache`), so an unchanged field's bytes and hash are reused
  without re-pickling, and a changed hop ships only the changed fields;
- the **receiver** keeps the last image it accepted per naplet (also a
  :class:`DeltaCache`), so an incoming delta can be patched onto the base.

Cache entries are keyed by naplet id and carry the image's content hash;
both ends agree a delta applies only when the receiver acks the exact base
hash the sender remembers.  Every hash on this path — field, image, shipped
module source — is :func:`content_hash`, SHA-256 truncated to 128 bits: a
content address, not a security boundary (the credential signature guards
integrity).  The buffer goes to hashlib as it is, read once, never copied.

Lifetime: a record's bytes stay until the naplet retires at this server
(:meth:`DeltaCache.drop`) or the LRU evicts it; its live values, kept only
so the next dump *here* can skip an unchanged field by identity, go as soon
as the destination acks the departure (:meth:`DeltaCache.release`) — the
naplet cannot dump here again before landing here writes a fresh record.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DeltaCache",
    "FieldEntry",
    "ImageRecord",
    "content_hash",
    "image_hash",
]


# What a released FieldEntry holds in place of its live value.  Never None:
# a field whose value *is* None would then pass the dump's identity skip.
_RELEASED = object()


def content_hash(data: bytes | memoryview) -> str:
    """The content address of *data*: SHA-256 cut to 128 bits, 32 hex digits."""
    return hashlib.sha256(data).hexdigest()[:32]


def image_hash(field_hashes: dict[str, str]) -> str:
    """Hash of a whole per-field image, order-independent.

    Derived from the sorted ``name:hash`` pairs so sender and receiver
    compute identical image hashes without exchanging field bytes.
    """
    return content_hash(
        "".join(f"{name}\0{field_hashes[name]}\0" for name in sorted(field_hashes))
        .encode("utf-8")
    )


@dataclass
class FieldEntry:
    """One field of a cached image.

    ``value`` holds a *strong* reference to the live object the bytes were
    pickled from — identity comparison against it is only meaningful while
    the object cannot have been garbage collected and its ``id`` reused;
    once released (:attr:`live` False) no value compares identical to it.
    ``fingerprint`` is the value's ``__delta_fingerprint__`` at pickle
    time (None when the protocol is absent); ``stamps`` are the shipping
    stamps encountered while pickling this field, kept so eager code
    bundles survive even when the field's bytes are later reused.
    """

    data: bytes
    hash: str
    value: Any
    fingerprint: Any | None = None
    stamps: frozenset[tuple[str, str, str]] = frozenset()

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


class DeltaCache:
    """Thread-safe LRU of :class:`ImageRecord` keyed by naplet id string.

    Bounded because a long-lived server sees many one-shot naplets; the
    protocol tolerates eviction — a sender that lost its record ships a
    full image, a receiver that lost its base acks ``need_full`` and the
    sender re-ships.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("delta cache capacity must be >= 1")
        self._capacity = capacity
        self._records: OrderedDict[str, ImageRecord] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, nid: str, base_hash: str | None = None) -> ImageRecord | None:
        """The cached image for *nid*, optionally requiring an exact hash."""
        with self._lock:
            record = self._records.get(nid)
            if record is None or (base_hash is not None and record.hash != base_hash):
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

    def put(self, nid: str, record: ImageRecord) -> None:
        with self._lock:
            self._records[nid] = record
            self._records.move_to_end(nid)
            while len(self._records) > self._capacity:
                self._records.popitem(last=False)
                self.evictions += 1

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
            self._records.pop(nid, None)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

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
