"""Tests' reader and writer of the compact per-field envelope.

The wire form (DESIGN.md §6.7) is a flat tuple — ``(nid, digest, shipped,
removed, refs, cls, bundles, code_refs)`` with trailing absent slots
dropped, flat name/value pairs, digests as 16 raw bytes.  Tests read it
keyed by what each slot means, so their assertions name fields, not
positions; this module decodes the layout on its own, as a second reading
of the format the serializer writes.
"""

from __future__ import annotations

import pickle
from typing import Any

__all__ = ["read_envelope", "write_envelope"]

SLOTS = ("nid", "hash", "fields", "removed", "refs", "cls", "bundles", "code_refs")


def _pairs(flat: tuple | None) -> dict[Any, Any]:
    return dict(zip(flat[::2], flat[1::2], strict=True)) if flat else {}


def _flat(mapping: dict[Any, Any]) -> tuple | None:
    return tuple(item for pair in mapping.items() for item in pair) or None


def read_envelope(data: bytes, buffers: Any = None) -> dict[str, Any]:
    """The per-field envelope in *data* as ``{slot: value}``.

    Absent slots are left out, except that ``fields``, ``refs``,
    ``bundles`` and ``code_refs`` read empty; digests read as hex;
    ``omitted`` is True when the envelope leans on the receiver's record
    (``removed`` present); ``mode`` is ``delta`` when anything stayed off
    the wire.
    """
    envelope = pickle.loads(data, buffers=buffers or None)
    assert isinstance(envelope, tuple) and isinstance(envelope[0], str)
    view = {slot: value for slot, value in zip(SLOTS, envelope) if value is not None}
    view["hash"] = view["hash"].hex()
    view["fields"] = _pairs(view.get("fields"))
    view["refs"] = {name: ref.hex() for name, ref in _pairs(view.get("refs")).items()}
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
        _flat(view["fields"]),
        tuple(view["removed"]) if view.get("omitted") else None,
        _flat({name: bytes.fromhex(ref) for name, ref in view["refs"].items()}),
        view.get("cls"),
        view["bundles"] or None,
        {key: bytes.fromhex(ref) for key, ref in view["code_refs"].items()} or None,
    )
    while envelope[-1] is None:
        envelope = envelope[:-1]
    return pickle.dumps(envelope)
