"""Tests' reader and writer of the compact per-field envelope, and their
reader of the transfer ack that answers it.

The wire form (DESIGN.md §6.7) is a flat tuple — ``(nid, digest, shipped,
removed, refs, cls, bundles, code_refs)`` with trailing absent slots
dropped, flat name/value pairs, digests as 16 raw bytes.  A field whose
value is exactly ``bytes`` (raw: the segment is the value, no pickle) has
its name spelled with a leading ``=``; a pickled field whose name begins
with ``=`` or ``-`` gains a leading ``-``.  Tests read it
keyed by what each slot means, so their assertions name fields, not
positions; this module decodes the layout on its own, as a second reading
of the format the serializer writes.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.core.errors import NapletCommunicationError
from repro.transport.base import REFUSED, read_reply

__all__ = ["read_ack", "read_envelope", "write_envelope"]

SLOTS = ("nid", "hash", "fields", "removed", "refs", "cls", "bundles", "code_refs")


def _pairs(flat: tuple | None) -> dict[Any, Any]:
    return dict(zip(flat[::2], flat[1::2], strict=True)) if flat else {}


def _flat(mapping: dict[Any, Any]) -> tuple | None:
    return tuple(item for pair in mapping.items() for item in pair) or None


def _unspelled(mapping: dict[str, Any], raw: set[str]) -> dict[str, Any]:
    """*mapping* keyed by plain field names; raw ones are added to *raw*."""
    plain = {}
    for key, value in mapping.items():
        if key[:1] == "=":
            raw.add(key[1:])
        plain[key[1:] if key[:1] in ("=", "-") else key] = value
    return plain


def _spelled(mapping: dict[str, Any], raw: set[str]) -> dict[str, Any]:
    return {
        ("=" + name if name in raw else "-" + name if name[:1] in ("=", "-") else name): value
        for name, value in mapping.items()
    }


def read_envelope(data: bytes, buffers: Any = None) -> dict[str, Any]:
    """The per-field envelope in *data* as ``{slot: value}``.

    Absent slots are left out, except that ``fields``, ``refs``,
    ``bundles`` and ``code_refs`` read empty; ``fields`` and ``refs`` are
    keyed by plain field names, and ``raw`` is the set of those that are
    raw ``bytes`` fields; digests read as hex;
    ``omitted`` is True when the envelope leans on the receiver's record
    (``removed`` present); ``mode`` is ``delta`` when anything stayed off
    the wire.
    """
    envelope = pickle.loads(data, buffers=buffers or None)
    assert isinstance(envelope, tuple) and isinstance(envelope[0], str)
    view = {slot: value for slot, value in zip(SLOTS, envelope) if value is not None}
    view["hash"] = view["hash"].hex()
    view["raw"] = raw = set()
    view["fields"] = _unspelled(_pairs(view.get("fields")), raw)
    view["refs"] = {name: ref.hex() for name, ref in _unspelled(_pairs(view.get("refs")), raw).items()}
    view["bundles"] = view.get("bundles") or {}
    view["code_refs"] = {key: ref.hex() for key, ref in (view.get("code_refs") or {}).items()}
    if "removed" in view:
        view["omitted"] = True
        view["removed"] = list(view["removed"])
    view["mode"] = "delta" if view.get("omitted") or view["refs"] else "full"
    return view


def write_envelope(view: dict[str, Any]) -> bytes:
    """Pickle a (possibly tampered) :func:`read_envelope` view back into
    the wire form, field bytes in-band."""
    envelope = (
        view["nid"],
        bytes.fromhex(view["hash"]),
        _flat(_spelled(view["fields"], view["raw"])),
        tuple(view["removed"]) if view.get("omitted") else None,
        _flat(_spelled({name: bytes.fromhex(ref) for name, ref in view["refs"].items()}, view["raw"])),
        view.get("cls"),
        view["bundles"] or None,
        {key: bytes.fromhex(ref) for key, ref in view["code_refs"].items()} or None,
    )
    while envelope[-1] is None:
        envelope = envelope[:-1]
    return pickle.dumps(envelope)


def read_ack(reply: bytes) -> dict[str, Any]:
    """A transfer ack, read through the reply reader, as a dict: ``ok`` True
    and the ``code`` hashes it lists; ``ok`` False with a ``denied`` or
    ``need_full`` flag and its ``reason``; or, for the refusal the reader
    raises on, ``ok`` False and the refusal's ``reason``."""
    try:
        status, fields = read_reply(reply, "transfer", "ok", "denied", "need_full")
    except NapletCommunicationError:
        status, _, reason = reply.decode().partition(" ")
        assert status == REFUSED, reply
        return {"ok": False, "reason": reason}
    if status == "ok":
        return {"ok": True, "code": fields}
    return {"ok": False, status: True, "reason": " ".join(fields)}
