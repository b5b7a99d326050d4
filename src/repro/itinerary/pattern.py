"""Recursive itinerary patterns (paper §3).

The BNF from the paper::

    <Visit V>            ::= <S> | <S; T> | <C -> S; T>
    <ItineraryPattern P> ::= Singleton(V) | Seq(P, P) | Alt(P, P) | Par(P, P)

We generalise the binary ``Seq/Alt/Par`` to n-ary (the paper's own examples
construct n-ary instances: ``new SeqPattern(servers, act)``,
``new ParPattern(_ip, act)``), which is equivalent to the nested binary form.

Semantics implemented (documented design decisions where the paper leaves
freedom):

- ``Seq(P1..Pn)``  — carry out P1 … Pn in order; guarded visits that do not
  admit the naplet are skipped.
- ``Alt(P1..Pn)``  — carried out *by one naplet*: the first branch whose
  first reachable visit admits the naplet is taken; if its very first
  dispatch fails with a migration error the driver backtracks and tries the
  next branch.
- ``Par(P1..Pn)``  — fork: the naplet itself carries out P1 while clones
  (heritage-extended ids) carry out P2 … Pn, in parallel.  The
  :class:`JoinPolicy` governs what happens at branch ends:

  * ``TERMINATE`` (default) — clones retire when their branch ends; the
    original continues with whatever follows the Par node.  This matches
    the paper's MAN example where spawned children report individually.
  * ``CONTINUE_ALL`` — every branch continues with the continuation of the
    Par node (broadcast of the rest of the journey).
  * ``JOIN`` — clones notify the original at branch end and retire; the
    original blocks at the Par node until all notifications arrive, then
    continues.  Exercises location-independent messaging.

- A pattern-level post-action on Seq/Singleton attaches to the *last* visit
  of the pattern (Example 1 reports "after the last visit"); on Par it runs
  on the original at the join point (or right after forking when there is
  no join).

Patterns, like :class:`~repro.itinerary.visit.Visit`, are frozen: a plan
of stock nodes cannot change once built, so a hop skips re-pickling it
(:func:`~repro.core.tracking.is_delta_stable`, DESIGN.md §6.7).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.errors import ItineraryError
from repro.itinerary.visit import Guard, Visit

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.itinerary.operable import Operable

__all__ = [
    "ItineraryPattern",
    "SingletonPattern",
    "SeqPattern",
    "AltPattern",
    "ParPattern",
    "RepeatPattern",
    "JoinPolicy",
    "seq",
    "alt",
    "par",
    "singleton",
    "repeat",
]


class JoinPolicy(enum.Enum):
    """What happens at the end of Par branches (see module docstring)."""

    TERMINATE = "terminate"
    CONTINUE_ALL = "continue_all"
    JOIN = "join"


class ItineraryPattern(abc.ABC):
    """Base class of the recursive journey-routing patterns."""

    @abc.abstractmethod
    def visits(self) -> Iterator[Visit]:
        """Yield every visit in the pattern (pre-order), for inspection."""

    @abc.abstractmethod
    def first_admitting_visit(self, naplet: "Naplet") -> Visit | None:
        """The first visit this pattern would perform for *naplet*, or None.

        Used by Alt selection; for Par the first visit of the original's
        branch is used.
        """

    def servers(self) -> list[str]:
        """All server names mentioned, in pre-order (with duplicates)."""
        return [v.server for v in self.visits()]

    def visit_count(self) -> int:
        return sum(1 for _ in self.visits())


@dataclass(frozen=True)
class SingletonPattern(ItineraryPattern):
    """Base case: a single (conditional) visit."""

    visit: Visit

    @classmethod
    def to(
        cls,
        server: str,
        post_action: "Operable | None" = None,
        guard: Guard | None = None,
    ) -> "SingletonPattern":
        kwargs = {} if guard is None else {"guard": guard}
        return cls(Visit(server=server, post_action=post_action, **kwargs))

    def visits(self) -> Iterator[Visit]:
        yield self.visit

    def first_admitting_visit(self, naplet: "Naplet") -> Visit | None:
        return self.visit if self.visit.admits(naplet) else None

    def __repr__(self) -> str:
        return f"Singleton({self.visit!r})"


@dataclass(frozen=True)
class _Branching(ItineraryPattern):
    """Seq, Alt and Par: a non-empty tuple of sub-patterns."""

    children: tuple[ItineraryPattern, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ItineraryError(f"{type(self).__name__} needs at least one child")

    def visits(self) -> Iterator[Visit]:
        for child in self.children:
            yield from child.visits()


@dataclass(frozen=True)
class SeqPattern(_Branching):
    """Visit sub-patterns in order."""

    @classmethod
    def of_servers(
        cls,
        servers: Sequence[str],
        post_action: "Operable | None" = None,
        per_visit_action: "Operable | None" = None,
        guard: Guard | None = None,
        guard_first: bool = False,
    ) -> "SeqPattern":
        """The paper's ``new SeqPattern(servers, act)`` constructor.

        *post_action* attaches to the **last** visit (Example 1: results
        reported back after the last visit); *per_visit_action* to every
        visit; *guard* makes visits conditional — by default all visits
        except the first (the sequential-search shape from §3), or all of
        them when ``guard_first`` is set.
        """
        if not servers:
            raise ItineraryError("of_servers needs at least one server")
        singles: list[SingletonPattern] = []
        last = len(servers) - 1
        for i, server in enumerate(servers):
            action: "Operable | None" = per_visit_action
            if i == last and post_action is not None:
                action = _combine(per_visit_action, post_action)
            use_guard = guard if (guard is not None and (i > 0 or guard_first)) else None
            singles.append(SingletonPattern.to(server, post_action=action, guard=use_guard))
        return cls(singles)

    def first_admitting_visit(self, naplet: "Naplet") -> Visit | None:
        for child in self.children:
            found = child.first_admitting_visit(naplet)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:
        return f"Seq({', '.join(map(repr, self.children))})"


@dataclass(frozen=True)
class AltPattern(_Branching):
    """Carry out exactly one of the alternative sub-patterns."""

    def select(self, naplet: "Naplet", start: int = 0) -> int | None:
        """Index of the first branch (from *start*) admitting *naplet*."""
        for i in range(start, len(self.children)):
            if self.children[i].first_admitting_visit(naplet) is not None:
                return i
        return None

    def first_admitting_visit(self, naplet: "Naplet") -> Visit | None:
        chosen = self.select(naplet)
        if chosen is None:
            return None
        return self.children[chosen].first_admitting_visit(naplet)

    def __repr__(self) -> str:
        return f"Alt({', '.join(map(repr, self.children))})"


@dataclass(frozen=True)
class ParPattern(_Branching):
    """Carry out all sub-patterns in parallel: original + clones."""

    post_action: "Operable | None" = None
    join: JoinPolicy = JoinPolicy.TERMINATE

    @classmethod
    def of_servers(
        cls,
        servers: Sequence[str],
        per_branch_action: "Operable | None" = None,
        post_action: "Operable | None" = None,
        join: JoinPolicy = JoinPolicy.TERMINATE,
    ) -> "ParPattern":
        """Example 2's broadcast shape: one singleton branch per server."""
        branches = [SingletonPattern.to(server, post_action=per_branch_action) for server in servers]
        return cls(branches, post_action=post_action, join=join)

    def first_admitting_visit(self, naplet: "Naplet") -> Visit | None:
        return self.children[0].first_admitting_visit(naplet)

    def __repr__(self) -> str:
        return f"Par({', '.join(map(repr, self.children))}, join={self.join.value})"


@dataclass(frozen=True)
class RepeatPattern(ItineraryPattern):
    """Carry out the sub-pattern *times* times in sequence.

    **Extension beyond the paper's BNF** (flagged in DESIGN.md): the
    periodic-monitoring workloads of §6 naturally want "tour the devices
    every round, M rounds"; ``Repeat(Seq(...), M)`` expresses that without
    unrolling the tree.  Guards are re-evaluated on every round, so a
    conditional tour can still stop early.
    """

    child: ItineraryPattern
    times: int

    def __post_init__(self) -> None:
        if self.times < 1:
            raise ItineraryError(f"RepeatPattern needs times >= 1, got {self.times}")

    def visits(self) -> Iterator[Visit]:
        for _round in range(self.times):
            yield from self.child.visits()

    def first_admitting_visit(self, naplet: "Naplet") -> Visit | None:
        return self.child.first_admitting_visit(naplet)

    def __repr__(self) -> str:
        return f"Repeat({self.child!r}, {self.times})"


def repeat(part: "ItineraryPattern | str | Visit", times: int) -> RepeatPattern:
    """``repeat(P, n)`` — P carried out n times in sequence (extension)."""
    return RepeatPattern(_as_pattern(part), times)


def _combine(first: "Operable | None", second: "Operable | None") -> "Operable | None":
    from repro.itinerary.operable import ChainOperable

    if first is None:
        return second
    if second is None:
        return first
    return ChainOperable((first, second))


# ---------------------------------------------------------------------- #
# Functional constructors matching the paper's seq/alt/par operators
# ---------------------------------------------------------------------- #


def _as_pattern(value: "ItineraryPattern | str | Visit") -> ItineraryPattern:
    if isinstance(value, ItineraryPattern):
        return value
    if isinstance(value, Visit):
        return SingletonPattern(value)
    if isinstance(value, str):
        return SingletonPattern.to(value)
    raise ItineraryError(f"cannot build a pattern from {value!r}")


def singleton(
    server: str,
    post_action: "Operable | None" = None,
    guard: Guard | None = None,
) -> SingletonPattern:
    """``Singleton(V)``."""
    return SingletonPattern.to(server, post_action=post_action, guard=guard)


def seq(*parts: "ItineraryPattern | str | Visit") -> SeqPattern:
    """``seq(P, Q, …)`` — visit of P followed by visit of Q …"""
    return SeqPattern([_as_pattern(p) for p in parts])


def alt(*parts: "ItineraryPattern | str | Visit") -> AltPattern:
    """``alt(P, Q, …)`` — exactly one alternative is carried out."""
    return AltPattern([_as_pattern(p) for p in parts])


def par(
    *parts: "ItineraryPattern | str | Visit",
    post_action: "Operable | None" = None,
    join: JoinPolicy = JoinPolicy.TERMINATE,
) -> ParPattern:
    """``par(P, Q, …)`` — P by the naplet, Q … by its clones, in parallel."""
    return ParPattern([_as_pattern(p) for p in parts], post_action=post_action, join=join)
