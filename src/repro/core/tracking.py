"""Dirty-field tracking for delta state shipping (DESIGN.md §6.7).

PR 6's hop-cost attribution showed per-hop cost dominated by pickling the
*whole* naplet on every migration, even when only a counter changed since
the last hop.  :class:`TrackedState` is the mixin that makes deltas
possible: it records which attributes were **rebound** since the last
successful dump, so the serializer can ship only changed fields to a
destination that still caches the prior image.

The contract is deliberately conservative — dirtiness is advisory for
*skipping work*, never for correctness:

- rebinding an attribute (``self.count = 3``) marks it dirty;
- mutating a nested object **in place** (``self.results.append(x)``) does
  NOT mark anything — such fields are re-pickled every dump unless their
  value is immutable all the way down (:func:`is_delta_stable`) or exposes
  a mutation fingerprint (``__delta_fingerprint__``, as :class:`~repro.core.
  state.NapletState`, the address book and the naplet id do);
- ``mark_dirty`` lets application code volunteer a field after an
  in-place mutation, which only ever widens the shipped set.

A clean field is therefore skipped only when *all three* hold: it was not
rebound, it is still the same object the last dump saw, and it is provably
unchanged (immutable value or matching fingerprint).  Everything else is
re-pickled and hash-compared, trading CPU for guaranteed correctness.
"""

from __future__ import annotations

import enum
from typing import Any

__all__ = ["TrackedState", "delta_fingerprint", "is_delta_stable"]

# The dirty ledger itself must never serialize (it is per-incarnation
# bookkeeping, not agent state) and must never mark itself dirty.
_DIRTY_SLOT = "_tracked_dirty__"

_IMMUTABLE_TYPES = (type(None), bool, int, float, complex, str, bytes, enum.Enum)
_SCALARS = frozenset(_IMMUTABLE_TYPES[:-1])  # exact types: a set lookup, not an isinstance
# Containers that are immutable iff their members are.
_IMMUTABLE_CONTAINERS = (tuple, frozenset)
_STABLE_CHECK_LIMIT = 64  # members inspected before giving up on a container
_STABLE_WALK_LIMIT = 1024  # ... and on a whole value (shared members count each time)


def _frozen_dataclass(cls: type) -> bool:
    """A frozen dataclass pickled by default: its bytes are its fields."""
    params = getattr(cls, "__dataclass_params__", None)
    return (
        params is not None and params.frozen
        and cls.__reduce_ex__ is object.__reduce_ex__ and cls.__reduce__ is object.__reduce__
        and getattr(cls, "__getstate__", None) is getattr(object, "__getstate__", None)
    )


def is_delta_stable(value: Any, _depth: int = 8) -> bool:
    """True when *value* provably cannot mutate in place.

    Immutable scalars and enum members are stable; tuples, frozensets and
    frozen dataclasses (pickled by default) are stable when every member
    is — checked to a bounded depth, width and total: a huge or deep value
    is just re-pickled, which is always safe.  Everything else is unstable.
    """
    budget, pending = _STABLE_WALK_LIMIT, [(value, _depth)]
    while pending:
        value, depth = pending.pop()
        if isinstance(value, _IMMUTABLE_TYPES):
            continue
        if isinstance(value, _IMMUTABLE_CONTAINERS):
            members = value
        elif _frozen_dataclass(type(value)) and hasattr(value, "__dict__"):
            members = vars(value).values()
        else:
            return False
        budget -= len(members)
        if depth <= 0 or len(members) > _STABLE_CHECK_LIMIT or budget < 0:
            return False
        pending += [(member, depth - 1) for member in members if type(member) not in _SCALARS]
    return True


def delta_fingerprint(value: Any) -> Any | None:
    """The value's mutation fingerprint, or None when it has none.

    A fingerprint is any equality-comparable token that is guaranteed to
    change whenever the object's serialized form could change (e.g. a
    mutation counter).  ``None`` means "no fingerprint protocol" — such
    values must be re-pickled to learn whether they changed.
    """
    probe = getattr(value, "__delta_fingerprint__", None)
    if probe is None:
        return None
    try:
        return probe()
    except Exception:
        return None


class TrackedState:
    """Mixin recording attribute names rebound since the last dump.

    Cooperative with any ``__init__`` order: the dirty set is created
    lazily on first write, so subclasses need no special setup.  The set
    is excluded from pickling (each incarnation starts clean — the
    receiving serializer seeds its own field cache from the wire image).
    """

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if name != _DIRTY_SLOT:
            dirty = self.__dict__.get(_DIRTY_SLOT)
            if dirty is None:
                dirty = set()
                object.__setattr__(self, _DIRTY_SLOT, dirty)
            dirty.add(name)

    def __delattr__(self, name: str) -> None:
        object.__delattr__(self, name)
        dirty = self.__dict__.get(_DIRTY_SLOT)
        if dirty is not None and name != _DIRTY_SLOT:
            dirty.add(name)

    # -- the serializer's view ------------------------------------------- #

    def mark_dirty(self, *names: str) -> None:
        """Volunteer fields mutated in place (widens the shipped set)."""
        dirty = self.__dict__.get(_DIRTY_SLOT)
        if dirty is None:
            dirty = set()
            object.__setattr__(self, _DIRTY_SLOT, dirty)
        dirty.update(names)

    def dirty_fields(self) -> frozenset[str]:
        """Attribute names rebound (or volunteered) since the last dump."""
        dirty = self.__dict__.get(_DIRTY_SLOT)
        return frozenset(dirty) if dirty else frozenset()

    def image_state(self) -> dict[str, Any]:
        """The fields a per-field image carries (``__setstate__`` takes them)."""
        return self.__getstate__()

    def clear_dirty(self) -> None:
        """Reset the ledger — called by the serializer after a dump."""
        dirty = self.__dict__.get(_DIRTY_SLOT)
        if dirty is not None:
            dirty.clear()

    @staticmethod
    def strip_tracking(state: dict[str, Any]) -> dict[str, Any]:
        """Drop the dirty ledger from a ``__getstate__`` dict, in place."""
        state.pop(_DIRTY_SLOT, None)
        return state
