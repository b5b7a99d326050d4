"""Hierarchical, immutable naplet identifiers (paper §2.1, Fig. 1).

A naplet identifier encodes *who*, *when*, and *where* the naplet was
created, plus clone-heritage information::

    czxu@ece.eng.wayne.edu:010512172720:2.1

reads: cloned (child #1 of generation-member #2) from the naplet created by
user ``czxu`` at 17:27:20 on May 12 2001 on host ``ece.eng.wayne.edu``.  The
heritage is a dot-separated sequence of integers; ``0`` is reserved for the
originator in a generation, so the original naplet is ``...:0`` and its
clones are ``...:0.1``, ``...:0.2`` … with recursive cloning extending the
sequence.
"""

from __future__ import annotations

import re
import sys
import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.util.timeutil import compact_timestamp

__all__ = ["NapletID"]

_ID_RE = re.compile(
    r"^(?P<owner>[^@:\s]+)@(?P<home>[^@:\s]+):(?P<stamp>\d{12}):(?P<heritage>\d+(?:\.\d+)*)$"
)


@dataclass(frozen=True, order=False)
class NapletID:
    """System-wide unique, immutable naplet identifier.

    Attributes
    ----------
    owner:
        The creating user (paper: ``czxu``).
    home:
        Hostname of the home server where the naplet was created.
    stamp:
        12-digit ``YYMMDDHHMMSS`` creation timestamp.
    heritage:
        Clone-heritage sequence; ``(0,)`` for an original naplet.
    """

    owner: str
    home: str
    stamp: str
    heritage: tuple[int, ...] = (0,)
    # Per-instance clone counter; not part of identity/equality.
    _clone_counter: list[int] = field(
        default_factory=lambda: [0], compare=False, hash=False, repr=False
    )
    _clone_lock: threading.Lock = field(
        default_factory=threading.Lock, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.owner or "@" in self.owner or ":" in self.owner:
            raise ValueError(f"invalid owner: {self.owner!r}")
        if not self.home or "@" in self.home or ":" in self.home:
            raise ValueError(f"invalid home host: {self.home!r}")
        if len(self.stamp) != 12 or not self.stamp.isdigit():
            raise ValueError(f"invalid timestamp: {self.stamp!r}")
        if not self.heritage or any(h < 0 for h in self.heritage):
            raise ValueError(f"invalid heritage: {self.heritage!r}")
        heritage = ".".join(map(str, self.heritage))
        object.__setattr__(self, "_text", f"{self.owner}@{self.home}:{self.stamp}:{heritage}")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, owner: str, home: str, stamp: str | None = None) -> "NapletID":
        """Mint a fresh original identifier (heritage ``0``)."""
        return cls(owner=owner, home=home, stamp=stamp or compact_timestamp())

    @classmethod
    def parse(cls, text: str) -> "NapletID":
        """Parse the paper's textual form ``owner@home:stamp:heritage``."""
        m = _ID_RE.match(text)
        if m is None:
            raise ValueError(f"not a naplet id: {text!r}")
        heritage = tuple(int(part) for part in m.group("heritage").split("."))
        return cls(
            owner=m.group("owner"),
            home=m.group("home"),
            stamp=m.group("stamp"),
            heritage=heritage,
        )

    # ------------------------------------------------------------------ #
    # Cloning
    # ------------------------------------------------------------------ #

    def next_clone(self) -> "NapletID":
        """Identifier for the next clone of this naplet.

        Clone ids extend the heritage sequence: the *k*-th clone of
        ``...:H`` is ``...:H.k`` (k starting at 1; 0 is reserved for the
        originator of the generation).  Cloning is recursive: clones may be
        cloned again, extending the sequence further (Fig. 1 shows
        ``...:2.0``, ``...:2.1``, ``...:2.2`` under ``...:2``).
        """
        with self._clone_lock:
            self._clone_counter[0] += 1
            child = self._clone_counter[0]
        return NapletID(
            owner=self.owner,
            home=self.home,
            stamp=self.stamp,
            heritage=self.heritage + (child,),
        )

    def generation_originator(self) -> "NapletID":
        """The ``...H.0`` member representing the originator of the next generation."""
        return NapletID(
            owner=self.owner,
            home=self.home,
            stamp=self.stamp,
            heritage=self.heritage + (0,),
        )

    # ------------------------------------------------------------------ #
    # Heritage queries
    # ------------------------------------------------------------------ #

    @property
    def is_original(self) -> bool:
        """True for a naplet that was never cloned from another."""
        return self.heritage == (0,)

    @property
    def generation(self) -> int:
        """Clone depth: 0 for the original, 1 for its direct clones, …"""
        return len(self.heritage) - 1

    def parent(self) -> "NapletID | None":
        """Identifier of the naplet this one was cloned from (None for originals)."""
        if len(self.heritage) == 1:
            return None
        return NapletID(
            owner=self.owner,
            home=self.home,
            stamp=self.stamp,
            heritage=self.heritage[:-1],
        )

    def is_ancestor_of(self, other: "NapletID") -> bool:
        """True when *other* descends from this naplet by cloning."""
        if (self.owner, self.home, self.stamp) != (other.owner, other.home, other.stamp):
            return False
        if len(other.heritage) <= len(self.heritage):
            return False
        return other.heritage[: len(self.heritage)] == self.heritage

    def same_family(self, other: "NapletID") -> bool:
        """True when both ids share creator, home, and creation stamp."""
        return (self.owner, self.home, self.stamp) == (other.owner, other.home, other.stamp)

    def lineage(self) -> Iterator["NapletID"]:
        """Yield this id and then each ancestor up to the original."""
        node: NapletID | None = self
        while node is not None:
            yield node
            node = node.parent()

    # ------------------------------------------------------------------ #
    # Pickling — locks are not serializable, and identifiers must travel
    # with their naplet, so we ship the text form and the clone counter
    # value (half the bytes of the field dict: ids ride in every hop,
    # message and directory event) and rebuild the lock on arrival.
    # ------------------------------------------------------------------ #

    def __reduce__(self) -> tuple:
        return (_revive, (str(self), self._clone_counter[0]))

    def __delta_fingerprint__(self) -> int:
        """The clone counter: the one part of the pickle that can change."""
        return self._clone_counter[0]

    # ------------------------------------------------------------------ #
    # Identity & rendering
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NapletID):
            return NotImplemented
        return (
            self.owner == other.owner
            and self.home == other.home
            and self.stamp == other.stamp
            and self.heritage == other.heritage
        )

    def __hash__(self) -> int:
        return hash((self.owner, self.home, self.stamp, self.heritage))

    def __str__(self) -> str:
        return self._text  # computed once: every journal record about this naplet shares it

    def __repr__(self) -> str:
        return f"NapletID({str(self)!r})"


def _revive(text: str, clone_count: int) -> NapletID:
    """Unpickle a :class:`NapletID`; its ``__str__`` text is split, not
    re-validated, and interned: every landing of one naplet shares it."""
    head, stamp, heritage = text.rsplit(":", 2)
    owner, home = head.split("@")
    nid = object.__new__(NapletID)
    nid.__dict__.update(
        owner=owner, home=home, stamp=stamp,
        heritage=tuple(map(int, heritage.split("."))),
        _clone_counter=[clone_count], _clone_lock=threading.Lock(), _text=sys.intern(text),
    )
    return nid
