"""Address book for inter-naplet communication (paper §2.1).

Each naplet carries an :class:`AddressBook` of :class:`AddressEntry` records:
a naplet identifier plus an *initial location* (a server URN).  The location
may be stale — it only seeds tracing — and the book can grow as the naplet
does and is inherited by clones.  Communication is restricted to naplets the
sender knows by identifier, which the book enforces simply by being the only
source of destination ids the messenger accepts from an agent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from repro.core.naplet_id import NapletID

__all__ = ["AddressEntry", "AddressBook"]


@dataclass(frozen=True)
class AddressEntry:
    """A known naplet and (at least) one server it has resided on."""

    naplet_id: NapletID
    server_urn: str

    def with_location(self, server_urn: str) -> "AddressEntry":
        return AddressEntry(naplet_id=self.naplet_id, server_urn=server_urn)


class AddressBook:
    """Mutable, clonable set of naplet contact entries.

    Keyed by :class:`NapletID`; adding an entry for an id already present
    updates its last-known location.
    """

    def __init__(self, entries: list[AddressEntry] | None = None) -> None:
        self._entries: dict[NapletID, AddressEntry] = {}
        self._lock = threading.RLock()
        self._mutations = 0  # backs ``__delta_fingerprint__``
        for entry in entries or []:
            self.add(entry)

    def add(self, entry: AddressEntry) -> None:
        with self._lock:
            self._entries[entry.naplet_id] = entry
            self._mutations += 1

    def add_contact(self, naplet_id: NapletID, server_urn: str) -> None:
        self.add(AddressEntry(naplet_id=naplet_id, server_urn=server_urn))

    def remove(self, naplet_id: NapletID) -> None:
        with self._lock:
            self._entries.pop(naplet_id, None)
            self._mutations += 1

    def lookup(self, naplet_id: NapletID) -> AddressEntry | None:
        with self._lock:
            return self._entries.get(naplet_id)

    def knows(self, naplet_id: NapletID) -> bool:
        with self._lock:
            return naplet_id in self._entries

    def update_location(self, naplet_id: NapletID, server_urn: str) -> bool:
        """Refresh the last-known server of *naplet_id*; False if unknown."""
        with self._lock:
            entry = self._entries.get(naplet_id)
            if entry is None:
                return False
            self._entries[naplet_id] = entry.with_location(server_urn)
            self._mutations += 1
            return True

    def naplet_ids(self) -> list[NapletID]:
        with self._lock:
            return list(self._entries)

    def entries(self) -> list[AddressEntry]:
        with self._lock:
            return list(self._entries.values())

    def inherit(self) -> "AddressBook":
        """Copy for a clone (paper: the book 'can be inherited in naplet clone')."""
        return AddressBook(self.entries())

    def merge(self, other: "AddressBook") -> None:
        """Absorb every entry of *other* (other's locations win on conflict)."""
        for entry in other.entries():
            self.add(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[AddressEntry]:
        return iter(self.entries())

    def __contains__(self, naplet_id: object) -> bool:
        if not isinstance(naplet_id, NapletID):
            return False
        return self.knows(naplet_id)

    # -- delta shipping -------------------------------------------------- #

    def __delta_fingerprint__(self) -> tuple[int, ...]:
        """Mutation counter, plus the clone counters its ids pickle with."""
        with self._lock:
            return (self._mutations, *(e.naplet_id.__delta_fingerprint__() for e in self._entries.values()))

    # -- pickling -------------------------------------------------------- #

    def __getstate__(self) -> dict[str, object]:
        with self._lock:
            return {"entries": list(self._entries.values())}

    def __setstate__(self, state: dict[str, object]) -> None:
        self._entries = {}
        self._lock = threading.RLock()
        self._mutations = 0
        for entry in state["entries"]:  # type: ignore[union-attr]
            self._entries[entry.naplet_id] = entry
