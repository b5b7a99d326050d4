"""Itinerary driver (paper §3).

An :class:`Itinerary` owns a *plan* (the pattern tree, fixed once travel
starts) and a *cursor* (a stack of frames naming their patterns by path).  A
naplet ships the two as separate fields (DESIGN.md §6.7).  The driver
separates *what to do next* (:meth:`step`, a pure-ish cursor advance that may
fork clones) from *doing it* (:meth:`travel`, called by agent code at the end
of ``on_start``; it runs the current visit's post-action, advances, and
dispatches — unwinding the agent's frame with
:class:`~repro.core.errors.NapletDeparted` on success or
:class:`~repro.core.errors.NapletCompleted` when the journey is over).

The runtime operations an itinerary needs (dispatching, spawning clones,
join notification) are injected through the :class:`TravelOps` protocol; the
server's Navigator provides the live implementation via the naplet context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.core.errors import (
    ItineraryError,
    NapletCompleted,
    NapletMigrationError,
)
from repro.itinerary.pattern import (
    AltPattern,
    ItineraryPattern,
    JoinPolicy,
    ParPattern,
    RepeatPattern,
    SeqPattern,
    SingletonPattern,
)
from repro.itinerary.visit import Visit

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.core.naplet_id import NapletID

__all__ = ["Itinerary", "TravelOps"]


@runtime_checkable
class TravelOps(Protocol):
    """Runtime services the itinerary driver needs from the hosting server."""

    def dispatch(self, naplet: "Naplet", destination: str) -> None:
        """Migrate *naplet*; raises NapletDeparted on success (in-thread)."""
        ...

    def spawn(self, parent: "Naplet", clone: "Naplet", destination: str) -> None:
        """Launch a freshly forked *clone* toward *destination*."""
        ...

    def issue_clone_credential(self, clone: "Naplet") -> None:
        """Re-sign a clone's immutable attributes under its owner."""
        ...

    def await_join(self, naplet: "Naplet", tokens: set[str], timeout: float | None) -> None:
        """Block until a join notification arrived for every token."""
        ...

    def notify_join(self, naplet: "Naplet", target: "NapletID", token: str) -> None:
        """Send a join notification to *target* (located by id)."""
        ...

    @property
    def origin_urn(self) -> str:
        """URN of the server these ops execute on."""
        ...


# ---------------------------------------------------------------------- #
# Cursor frames (serializable); ``path`` locates a frame's pattern in the
# plan: child indices from the root (a Repeat's one child is index 0).
# ---------------------------------------------------------------------- #


@dataclass
class _SingleFrame:
    path: tuple[int, ...]
    done: bool = False


@dataclass
class _SeqFrame:
    path: tuple[int, ...]
    index: int = 0


@dataclass
class _AltFrame:
    path: tuple[int, ...]
    entered: bool = False
    tried_from: int = 0
    # Load-ranked branch permutation from a duck-typed ops hook; None
    # means static declaration order.  With an order set, ``tried_from``
    # indexes positions in it rather than branch indices.
    order: tuple[int, ...] | None = None


@dataclass
class _ParFrame:
    path: tuple[int, ...]
    forked: bool = False
    expected_tokens: tuple[str, ...] = ()
    post_pending: bool = False


@dataclass
class _RepeatFrame:
    path: tuple[int, ...]
    iteration: int = 0


_Frame = _SingleFrame | _SeqFrame | _AltFrame | _ParFrame | _RepeatFrame
# A pickled frame is the tuple ``(kind, path, *counters)``: *kind* is its
# position here, the frame for a pattern of the type at the same position.
_FRAMES = (_SingleFrame, _SeqFrame, _AltFrame, _ParFrame, _RepeatFrame)
_PATTERNS = (SingletonPattern, SeqPattern, AltPattern, ParPattern, RepeatPattern)
# The cursor attributes, in the order an itinerary's pickled state lists them.
_CURSOR = ("_stack", "_started", "_completed", "_current", "_alt_pending",
           "_terminal_notice", "_failures", "alt_failovers", "on_failure", "join_timeout")


def _frame_for(pattern: ItineraryPattern, path: tuple[int, ...]) -> _Frame:
    for pattern_type, frame_type in zip(_PATTERNS, _FRAMES):
        if isinstance(pattern, pattern_type):
            return frame_type(path)
    raise ItineraryError(f"unknown pattern type: {type(pattern).__name__}")


@dataclass
class _FailureRecord:
    """A dispatch failure tolerated under the 'skip' policy."""

    server: str
    error: str


class Itinerary:
    """Travel plan of one naplet: pattern tree + execution cursor.

    Parameters
    ----------
    pattern:
        Root :class:`ItineraryPattern`.  Subclasses may instead override
        :meth:`build` and call ``super().__init__(None)`` (the paper's
        ``setItineraryPattern`` style is supported through
        :meth:`set_itinerary_pattern`).
    on_failure:
        ``"abort"`` (default) re-raises dispatch failures;
        ``"skip"`` records them and continues with the next visit.
    join_timeout:
        Upper bound for Par JOIN waits.
    """

    def __init__(
        self,
        pattern: ItineraryPattern | None = None,
        on_failure: str = "abort",
        join_timeout: float | None = 30.0,
    ) -> None:
        if on_failure not in ("abort", "skip"):
            raise ItineraryError(f"on_failure must be 'abort' or 'skip', got {on_failure!r}")
        self._pattern = pattern
        self._stack: list[_Frame] = []
        self._started = False
        self._completed = False
        self._current: tuple[int, ...] | None = None  # path of the current visit
        self._alt_pending: int | None = None  # stack index of a backtrackable Alt
        self._terminal_notice: tuple["NapletID", str] | None = None
        self._failures: list[_FailureRecord] = []
        # Times a failed dispatch fell through to the next Alt branch;
        # travels with the naplet, so the journey's report can show how
        # many mirrors were burned through.
        self.alt_failovers = 0
        self.on_failure = on_failure
        self.join_timeout = join_timeout

    # -- construction ----------------------------------------------------- #

    def set_itinerary_pattern(self, pattern: ItineraryPattern) -> None:
        """The paper's ``setItineraryPattern`` — only before travel starts."""
        if self._started:
            raise ItineraryError("cannot replace the pattern of a started itinerary")
        self._pattern = pattern

    @property
    def pattern(self) -> ItineraryPattern:
        if self._pattern is None:
            raise ItineraryError("itinerary has no pattern")
        return self._pattern

    # -- inspection -------------------------------------------------------- #

    @property
    def started(self) -> bool:
        return self._started

    @property
    def completed(self) -> bool:
        return self._completed

    @property
    def current_visit(self) -> Visit | None:
        return None if self._current is None else self._node(self._current).visit

    @property
    def failures(self) -> list[_FailureRecord]:
        return list(self._failures)

    def servers(self) -> list[str]:
        return self.pattern.servers()

    # -- cursor ------------------------------------------------------------ #

    def step(self, naplet: "Naplet", ops: TravelOps) -> str | None:
        """Advance to the next dispatchable visit; return its server.

        Handles Par forking (spawning clones through *ops*) and JOIN waits.
        Returns ``None`` once the journey is complete — at which point a
        pending terminal join-notification, if any, has been sent.
        """
        if self._completed:
            return None
        self._alt_pending = None
        if not self._started:
            self._started = True
            self._push(())
        while self._stack:
            frame = self._stack[-1]
            node = self._node(frame.path)
            if isinstance(frame, _SingleFrame):
                if frame.done:
                    self._stack.pop()
                    continue
                frame.done = True
                if node.visit.admits(naplet):
                    self._current = frame.path
                    return node.visit.server
                continue
            if isinstance(frame, _SeqFrame):
                if frame.index >= len(node.children):
                    self._stack.pop()
                    continue
                frame.index += 1
                self._push(frame.path + (frame.index - 1,))
                continue
            if isinstance(frame, _AltFrame):
                if frame.entered:
                    self._stack.pop()
                    continue
                chosen = self._select_alt(naplet, ops, frame, node)
                if chosen is None:
                    self._stack.pop()
                    continue
                frame.entered = True
                self._alt_pending = len(self._stack) - 1
                self._push(frame.path + (chosen,))
                continue
            if isinstance(frame, _ParFrame):
                if not frame.forked:
                    frame.forked = True
                    frame.expected_tokens = self._fork(naplet, node, ops)
                    frame.post_pending = node.post_action is not None
                    if node.join is not JoinPolicy.JOIN and frame.post_pending:
                        node.post_action.operate(naplet)
                        frame.post_pending = False
                    self._push(frame.path + (0,))
                    continue
                # original finished its own branch: join, then continue past Par
                if node.join is JoinPolicy.JOIN and frame.expected_tokens:
                    ops.await_join(naplet, set(frame.expected_tokens), self.join_timeout)
                    frame.expected_tokens = ()
                if frame.post_pending:
                    node.post_action.operate(naplet)
                    frame.post_pending = False
                self._stack.pop()
                continue
            if isinstance(frame, _RepeatFrame):
                if frame.iteration >= node.times:
                    self._stack.pop()
                    continue
                frame.iteration += 1
                self._push(frame.path + (0,))
                continue
            raise ItineraryError(f"corrupt cursor frame: {frame!r}")
        self._completed = True
        self._current = None
        if self._terminal_notice is not None:
            target, token = self._terminal_notice
            self._terminal_notice = None
            ops.notify_join(naplet, target, token)
        return None

    def _node(self, path: tuple[int, ...]) -> ItineraryPattern:
        """The pattern at child-index *path* in the plan."""
        node = self.pattern
        for index in path:
            node = node.child if isinstance(node, RepeatPattern) else node.children[index]
        return node

    def _push(self, path: tuple[int, ...]) -> None:
        self._stack.append(_frame_for(self._node(path), path))

    def _select_alt(
        self, naplet: "Naplet", ops: TravelOps, frame: _AltFrame, pattern: AltPattern
    ) -> int | None:
        """Pick the next Alt branch to try; advances ``frame.tried_from``.

        On first entry a duck-typed ``order_alt_branches`` hook on *ops*
        may supply a full branch permutation (least-loaded first, from the
        server's space view).  Without a hook, or when it declines (empty
        or stale view) or raises, selection is exactly the historical
        static path through ``pattern.select`` — byte-identical behavior,
        which the load-aware property tests pin down.  Backtracking after
        a failed dispatch resumes from ``tried_from`` either way, so a
        burned branch is never retried within one entry sequence.
        """
        if frame.order is None and frame.tried_from == 0:
            hook = getattr(ops, "order_alt_branches", None)
            if hook is not None:
                try:
                    order = hook(naplet, pattern)
                except Exception:
                    order = None
                if order is not None:
                    frame.order = tuple(order)
        if frame.order is None:
            chosen = pattern.select(naplet, start=frame.tried_from)
            if chosen is None:
                return None
            frame.tried_from = chosen + 1
            return chosen
        for position in range(frame.tried_from, len(frame.order)):
            branch = frame.order[position]
            if 0 <= branch < len(pattern.children) and (
                pattern.children[branch].first_admitting_visit(naplet) is not None
            ):
                frame.tried_from = position + 1
                return branch
        return None

    # -- forking ------------------------------------------------------------ #

    def _fork(self, naplet: "Naplet", pattern: ParPattern, ops: TravelOps) -> tuple[str, ...]:
        """Spawn one clone per non-first branch; returns JOIN tokens expected."""
        from repro.core.address_book import AddressEntry

        clones: list["Naplet"] = []
        clone_by_branch: dict[int, "Naplet"] = {}
        tokens: list[str] = []
        # Clones are always *created* in branch order — ids, credentials
        # and JOIN tokens stay deterministic — even when the spawn loop
        # below dispatches them in a load-ranked order.
        for branch_index in range(1, len(pattern.children)):
            branch = pattern.children[branch_index]
            clone = naplet.clone()
            ops.issue_clone_credential(clone)
            clone_itin = self._itinerary_for_clone(clone, branch_index, branch, pattern.join)
            if pattern.join is JoinPolicy.JOIN:
                token = str(clone.naplet_id)
                clone_itin._terminal_notice = (naplet.naplet_id, token)
                tokens.append(token)
            clone.set_itinerary(clone_itin)
            clones.append(clone)
            clone_by_branch[branch_index] = clone
        # Siblings (original included) learn each other's ids, seeded with
        # the forking server as initial location — stale by design, the
        # Locator traces from there.
        origin = ops.origin_urn
        family = [naplet, *clones]
        for member in family:
            for other in family:
                if other is not member:
                    member.address_book.add(
                        AddressEntry(naplet_id=other.naplet_id, server_urn=origin)
                    )
        # Duck-typed like the Alt hook: ops may rank the Par branches by
        # load so the least-loaded destinations receive their clones
        # first.  The hook returns a full branch permutation; branch 0 is
        # the original's and is filtered out here.  Declining, raising, or
        # absent hooks leave the historical branch-index order.
        spawn_branches = list(range(1, len(pattern.children)))
        hook = getattr(ops, "order_par_branches", None)
        if hook is not None:
            try:
                ranked = hook(naplet, pattern)
            except Exception:
                ranked = None
            if ranked is not None:
                ordered = [b for b in ranked if b in clone_by_branch]
                if sorted(ordered) == spawn_branches:
                    spawn_branches = ordered
        for branch_index in spawn_branches:
            clone = clone_by_branch[branch_index]
            destination = clone.itinerary.step(clone, ops)
            if destination is None:
                continue  # degenerate branch: nothing admitted; token already notified
            ops.spawn(naplet, clone, destination)
        return tuple(tokens)

    def _itinerary_for_clone(
        self,
        clone: "Naplet",
        branch_index: int,
        branch: ItineraryPattern,
        join: JoinPolicy,
    ) -> "Itinerary":
        """Build the clone's itinerary according to the join policy.

        ``CONTINUE_ALL`` grafts the branch in place of the Par frame on a
        copy of this cursor so the clone also performs the continuation;
        the other policies give the clone just its branch.
        """
        if join is JoinPolicy.CONTINUE_ALL:
            # clone.itinerary is already a deep copy of self (clone() copies
            # the whole naplet), plan included; swap its top Par frame for
            # the branch's, one index further down the same path.
            grafted = clone.itinerary
            if not isinstance(grafted, Itinerary) or not grafted._stack:
                raise ItineraryError("clone cursor out of sync during CONTINUE_ALL fork")
            top = grafted._stack.pop()
            if not isinstance(top, _ParFrame):
                raise ItineraryError("expected a Par frame on top of the clone cursor")
            grafted._push(top.path + (branch_index,))
            grafted._current = None
            return grafted
        fresh = Itinerary(
            pattern=branch,
            on_failure=self.on_failure,
            join_timeout=self.join_timeout,
        )
        return fresh

    # -- travelling ----------------------------------------------------------- #

    def travel(self, naplet: "Naplet") -> None:
        """Run the current post-action, advance, dispatch (paper's travel()).

        Called from agent code (typically the tail of ``on_start``).  Does
        not return normally: raises ``NapletDeparted`` after a successful
        dispatch or ``NapletCompleted`` when the journey is over.
        """
        context = naplet.require_context()
        ops: TravelOps = context.dispatcher  # type: ignore[assignment]
        visit = self.current_visit
        if visit is not None and visit.post_action is not None:
            # Duck-typed tracer from the context extras: the itinerary layer
            # stays free of telemetry imports, and untraced naplets skip it.
            tracer = context.extra("tracer")
            ctx = naplet.trace_context
            if tracer is not None and ctx is not None:
                with tracer.span(
                    "post-action", ctx, naplet=str(naplet.naplet_id), visit=visit.server
                ):
                    visit.post_action.operate(naplet)
            else:
                visit.post_action.operate(naplet)
        self._current = None
        if not self.launch_with(naplet, ops, lambda server: ops.dispatch(naplet, server)):
            raise NapletCompleted()
        raise ItineraryError("TravelOps.dispatch returned without raising NapletDeparted")

    def first_destination(self, naplet: "Naplet", ops: TravelOps) -> str | None:
        """Launch-time entry: advance to the first visit (forking if needed)."""
        if self._started:
            raise ItineraryError("itinerary already started")
        return self.step(naplet, ops)

    def launch_with(
        self,
        naplet: "Naplet",
        ops: TravelOps,
        transfer: Callable[[str], None],
    ) -> bool:
        """The travel loop with Alt-backtrack / skip semantics; at launch
        *transfer* sends the naplet without unwinding a thread (there is no
        naplet thread yet at the home side), :meth:`travel` dispatches.

        Returns True once a transfer succeeded, False when the journey
        completed without any dispatch (degenerate itinerary).
        """
        while True:
            destination = self.step(naplet, ops)
            if destination is None:
                return False
            try:
                transfer(destination)
                return True
            except NapletMigrationError as exc:
                self._failures.append(_FailureRecord(server=destination, error=str(exc)))
                if self._try_alt_backtrack():
                    self._note_failover(naplet, ops, destination, exc)
                    continue
                if self.on_failure == "skip":
                    continue
                raise

    def _note_failover(
        self, naplet: "Naplet", ops: TravelOps, destination: str, exc: BaseException
    ) -> None:
        """Record a burned Alt mirror in the hosting server's journal.

        Duck-typed like the tracer in :meth:`travel`: the itinerary layer
        stays free of telemetry imports, and ops doubles without a
        ``journal`` simply record nothing.
        """
        journal = getattr(ops, "journal", None)
        if journal is None:
            return
        naplet_key = str(naplet.naplet_id) if naplet.has_id else naplet.name
        journal.record(
            "alt-failover",
            naplet=naplet_key,
            failed=destination,
            failovers=self.alt_failovers,
            error=str(exc),
        )

    def _try_alt_backtrack(self) -> bool:
        """After a failed dispatch, fall back to the next Alt branch if possible."""
        if self._alt_pending is None or self._alt_pending >= len(self._stack):
            return False
        frame = self._stack[self._alt_pending]
        if not isinstance(frame, _AltFrame):
            return False
        del self._stack[self._alt_pending + 1 :]
        frame.entered = False
        self._alt_pending = None
        self._current = None
        self.alt_failovers += 1
        return True

    # -- pickling ---------------------------------------------------------------- #

    def __getstate__(self) -> tuple:
        """``(plan, cursor)``: the cursor a flat tuple of :data:`_CURSOR`,
        its frames tuples — plus a dict of any attributes a subclass added."""
        state = dict(self.__dict__)
        state["_stack"] = tuple(
            (_FRAMES.index(type(frame)), *vars(frame).values()) for frame in self._stack
        )
        cursor = tuple(state.pop(name) for name in _CURSOR)
        plan = state.pop("_pattern")
        return (plan, cursor, state) if state else (plan, cursor)

    def __setstate__(self, state: tuple) -> None:
        plan, cursor, *extra = state
        self.__dict__.update(*extra, _pattern=plan)
        self.__dict__.update(zip(_CURSOR, cursor))
        self._stack = [_FRAMES[kind](*fields) for kind, *fields in self._stack]

    def _split(self) -> tuple[ItineraryPattern | None, "Itinerary"]:
        """``(plan, cursor)`` as a naplet's two fields: this, less its plan."""
        cursor = object.__new__(type(self))
        cursor.__dict__.update(self.__dict__, _pattern=None)
        return self._pattern, cursor

    # -- misc -------------------------------------------------------------------- #

    def __repr__(self) -> str:
        status = "completed" if self._completed else ("started" if self._started else "fresh")
        return f"<Itinerary {status} {self._pattern!r}>"


