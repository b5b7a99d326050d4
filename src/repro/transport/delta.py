"""Delta shipping support: content hashes, images, the blob store.

A migrating naplet ships as a *per-field* image (DESIGN.md §6.7) —
``{field name: bytes}``, each a pickle or a value of exact ``bytes`` itself
(*raw*) — and every field, image and shipped module source is addressed by
:func:`content_hash`, SHA-256 truncated to 128 bits: an address, not a
security boundary (the credential signature guards integrity).  The
buffer goes to hashlib as it is, read once, never copied.

An :class:`Image` is what a server keeps of one naplet's last image: its
hash, its class reference and a :class:`Blob` per field.  It lives on the
naplet's record in the naplet table (the serializer is handed the previous
image and hands back the new one): while the naplet is resident its
:class:`FieldEntry` values let the next dump skip an unchanged field
without re-pickling it, and once the naplet has left or retired only the
:meth:`Image.manifest` stays — keys and blobs — so a hop back here can
still omit the fields it did not change.

:class:`BlobStore` holds every field's bytes once per content hash, for all
images alike: a field a sender *references* by hash resolves whichever
naplet brought it here.  A blob is freed when the last image naming it is
let go, and the least recently used one is evicted whenever the store
holds more than :data:`BLOB_BUDGET` bytes; an image naming an evicted blob
is a miss, which costs the sender one full re-ship.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Container, Iterable

from repro.core.tracking import is_delta_stable

__all__ = [
    "BLOB_BUDGET",
    "Blob",
    "BlobStore",
    "FieldEntry",
    "Image",
    "content_hash",
    "field_fate",
    "field_key",
    "field_name",
    "image_hash",
]

# Bytes of field blobs one server keeps, least recently used evicted first.
BLOB_BUDGET = 16 << 20


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


@dataclass(slots=True, eq=False)
class Blob:
    """One field's bytes as a server holds them, once per content hash.

    ``names`` counts the images naming it; ``stable`` is set once a value
    decoded from these bytes was proved immutable.  ``data`` is None once
    the store evicted it.
    """

    hash: str
    data: bytes | None
    names: int = 0
    stable: bool = False


@dataclass(slots=True, eq=False)
class FieldEntry:
    """One field of a resident naplet's image.

    ``value`` holds a *strong* reference to the live object the blob was
    pickled from or decoded to — identity comparison against it is only
    meaningful while the object cannot have been garbage collected and its
    ``id`` reused.  ``fingerprint`` is the value's ``__delta_fingerprint__``
    at pickle time (None when the protocol is absent); ``stable`` whether
    the value provably cannot mutate (None: not asked yet); ``stamps`` are
    the shipping stamps encountered while pickling this field, kept so
    eager code bundles survive even when the field's bytes are later
    reused.  A ``raw`` field's blob is its exact-``bytes`` value: stable
    from the start, it never proves its blob stable for pickles.
    """

    blob: Blob
    value: Any
    fingerprint: Any | None = None
    stable: bool | None = None
    stamps: frozenset[tuple[str, str, str]] = frozenset()
    raw: bool = False

    @property
    def hash(self) -> str:
        return self.blob.hash

    def proved_stable(self) -> bool:
        """Whether the live value provably cannot mutate, walked once
        (:func:`~repro.core.tracking.is_delta_stable`).  The proof holds for
        values decoded from the same bytes and no other — a custom reducer
        can make any object pickle to a frozen value's bytes — so it is
        left on the blob for the next landing of those bytes."""
        if self.stable is None:
            self.stable = is_delta_stable(self.value)
            if self.stable:
                self.blob.stable = True
        return self.stable


@dataclass(slots=True, eq=False)
class Image:
    """A naplet's per-field image at one server: ``keys`` (field names
    spelled with their kind, :func:`field_key`) and the ``blobs`` of their
    bytes, in step; ``entries`` by field name while the naplet is resident
    here, None in a :meth:`manifest`."""

    hash: str
    cls_ref: Any
    keys: tuple[str, ...]
    blobs: tuple[Blob, ...]
    entries: dict[str, FieldEntry] | None = None

    @classmethod
    def of(cls, cls_ref: Any, entries: dict[str, FieldEntry], img_hash: str | None = None) -> "Image":
        """The image of *entries*, hashed unless *img_hash* already is its hash."""
        keys = tuple(field_key(name, entry.raw) for name, entry in entries.items())
        blobs = tuple(entry.blob for entry in entries.values())
        if img_hash is None:
            img_hash = image_hash({key: blob.hash for key, blob in zip(keys, blobs)})
        return cls(img_hash, cls_ref, keys, blobs, entries)

    def manifest(self) -> "Image":
        """This image without live values: what stays once the naplet left."""
        return Image(self.hash, self.cls_ref, self.keys, self.blobs)

    def field_hashes(self) -> dict[str, str]:
        """``{field key: content hash}``, what :func:`image_hash` composes."""
        return {key: blob.hash for key, blob in zip(self.keys, self.blobs)}


def field_fate(before: str | None, digest: str, nbytes: int, nid: str, held: Container[str]) -> str:
    """What a dump toward a peer does with one field: ``ships``, ``omitted``
    or ``referenced``.

    *before* is the field's hash in this naplet's previous image here,
    under the same :func:`field_key` (a field whose kind changed ships),
    *held* what the peer is known to hold (field hashes, ids of naplets it
    has a record of).  Only a field unchanged since then whose hash the
    peer holds stays off the wire: the peer takes it by name from its own
    record of the naplet when it has one, and is otherwise sent the hash —
    when that is shorter than the bytes.  Unchanged-here is what makes a
    remembered hash worth trusting: values that change every hop recur
    across naplets long after the peer overwrote them.
    """
    if before != digest or digest not in held:
        return "ships"
    if nid in held:
        return "omitted"
    return "referenced" if nbytes > len(digest) else "ships"


class BlobStore:
    """Thread-safe store of field bytes by content hash, least recently
    used first, bounded by :data:`BLOB_BUDGET` bytes.

    Bounded because a long-lived server sees many one-shot naplets; the
    protocol tolerates eviction — a sender whose blob went pickles again,
    a receiver missing a blob acks ``need_full``.
    """

    def __init__(self) -> None:
        self._blobs: OrderedDict[str, Blob] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, digest: str) -> bytes | None:
        """The bytes held here under *digest*, now the most recently used."""
        with self._lock:
            blob = self._blobs.get(digest)
            if blob is None:
                return None
            self._blobs.move_to_end(digest)
            return blob.data

    def name(self, blobs: Iterable[Blob]) -> list[Blob]:
        """Each of *blobs* as held here, named once more by the image being
        made: the blob held under its hash already, or itself from now on."""
        named: list[Blob] = []
        with self._lock:
            for blob in blobs:
                held = self._blobs.get(blob.hash)
                if held is None:
                    held = self._blobs[blob.hash] = blob
                    self.nbytes += len(blob.data)
                else:
                    self._blobs.move_to_end(blob.hash)
                held.names += 1
                named.append(held)
            while self.nbytes > BLOB_BUDGET:
                _, evicted = self._blobs.popitem(last=False)
                self.nbytes -= len(evicted.data)
                evicted.data = None  # an image may still name it
        return named

    def let_go(self, image: Image | None) -> None:
        """*image* is no longer kept: free what no other image names."""
        if image is None:
            return
        with self._lock:
            for blob in image.blobs:
                blob.names -= 1
                if not blob.names and self._blobs.get(blob.hash) is blob:
                    del self._blobs[blob.hash]
                    self.nbytes -= len(blob.data)

    def clear(self) -> None:
        """Let every blob go, bytes and all, whatever still names it."""
        with self._lock:
            for blob in self._blobs.values():
                blob.data = None
            self._blobs.clear()
            self.nbytes = 0

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._blobs
