"""Visits and conditional visits (paper §3).

A visit is a pair ``<S; T>``: *S* is the server-specific business logic (the
naplet's ``on_start`` at that server) and *T* the itinerary-dependent control
logic (a post-action, run by the itinerary driver when the naplet calls
``travel()``).  A conditional visit ``<C -> S; T>`` adds a guard *C* that is
evaluated before dispatching to the server; a failed guard skips the visit.

Guards must be serializable — they travel inside the itinerary — so they are
small classes, not closures.  Stock guards cover the paper's motivating case
(sequential search that stops once complete) plus generic state predicates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.itinerary.operable import Operable

__all__ = [
    "Guard",
    "Always",
    "Never",
    "StateFlagClear",
    "StateFlagSet",
    "StateEquals",
    "NotVisited",
    "Visit",
]


class Guard(abc.ABC):
    """Serializable predicate over the travelling naplet."""

    @abc.abstractmethod
    def admits(self, naplet: "Naplet") -> bool:
        """True when the guarded visit should be carried out."""

    def __call__(self, naplet: "Naplet") -> bool:
        return self.admits(naplet)


@dataclass(frozen=True)
class Always(Guard):
    """Unconditional visit (plain ``<S; T>``)."""

    def admits(self, naplet: "Naplet") -> bool:
        return True


@dataclass(frozen=True)
class Never(Guard):
    """Never admits; useful for disabling branches in tests/ablations."""

    def admits(self, naplet: "Naplet") -> bool:
        return False


@dataclass(frozen=True)
class StateFlagClear(Guard):
    """Admits while state[key] is falsy — the sequential-search guard.

    A search naplet sets ``state[key] = True`` on success; every subsequent
    conditional visit then skips, ending the route early (paper §3: "all
    visits except the first one should be conditional visits").
    """

    key: str

    def admits(self, naplet: "Naplet") -> bool:
        return not bool(naplet.state.get(self.key))


@dataclass(frozen=True)
class StateFlagSet(Guard):
    """Admits once state[key] is truthy (inverse of :class:`StateFlagClear`)."""

    key: str

    def admits(self, naplet: "Naplet") -> bool:
        return bool(naplet.state.get(self.key))


@dataclass(frozen=True)
class StateEquals(Guard):
    """Admits while ``state[key] == value``."""

    key: str
    value: Any

    def admits(self, naplet: "Naplet") -> bool:
        return naplet.state.get(self.key) == self.value


@dataclass(frozen=True)
class NotVisited(Guard):
    """Admits unless the naplet's navigation log already shows *server*."""

    server: str

    def admits(self, naplet: "Naplet") -> bool:
        return self.server not in naplet.navigation_log.servers_visited()


@dataclass(frozen=True)
class Visit:
    """One (possibly conditional) stop: server, guard *C*, post-action *T*.

    ``server`` is the destination server URN or hostname; ``post_action`` is
    an :class:`~repro.itinerary.operable.Operable` run by the itinerary
    driver after the visit's business logic, before the next dispatch.
    """

    server: str
    guard: Guard = field(default_factory=Always)
    post_action: "Operable | None" = None

    @property
    def conditional(self) -> bool:
        return not isinstance(self.guard, Always)

    def admits(self, naplet: "Naplet") -> bool:
        return self.guard.admits(naplet)

    def __repr__(self) -> str:
        cond = f" if {self.guard!r}" if self.conditional else ""
        act = f" then {type(self.post_action).__name__}" if self.post_action else ""
        return f"<Visit {self.server}{cond}{act}>"
