"""String lists: the binary parts of the wire grammar (DESIGN.md §6.2).

A run of strings is the 2-byte length of each, then their UTF-8 bytes.
The TCP envelope packs its text fields this way, and a credential's
signed form is its attribute-pair count followed by its fields packed
this way, which is also what travels ahead of its MAC.
"""

from __future__ import annotations

import struct

from repro.core.errors import NapletCommunicationError

__all__ = ["pack_strings", "unpack_strings"]


def pack_strings(strings: list[str] | tuple[str, ...]) -> bytes:
    """The 2-byte length of each string, then the strings' UTF-8 bytes."""
    encoded = [text.encode() for text in strings]
    try:
        return struct.pack(f"!{len(encoded)}H", *map(len, encoded)) + b"".join(encoded)
    except struct.error as exc:
        raise NapletCommunicationError(f"string too long for the wire: {exc}") from None


def unpack_strings(data: bytes, offset: int, count: int) -> tuple[list[str], int]:
    """*count* strings packed at *offset* in *data*, and the offset past them."""
    try:
        sizes = struct.unpack_from(f"!{count}H", data, offset)
        offset += 2 * count
        strings = []
        for size in sizes:
            strings.append(data[offset:offset + size].decode())
            offset += size
    except (struct.error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise NapletCommunicationError(f"malformed string list: {exc}") from None
    if offset > len(data):
        raise NapletCommunicationError("malformed string list: it runs past the end")
    return strings, offset
