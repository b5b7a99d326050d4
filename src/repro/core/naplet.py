"""The ``Naplet`` base class (paper §2.1).

``Naplet`` is the generic agent template every application extends.  Its
primary attributes follow the paper's class listing:

- ``nid``       — system-wide unique, immutable :class:`NapletID`;
- ``codebase``  — immutable codebase name/URL for lazy code loading;
- ``cred``      — creator-signed :class:`Credential` over the immutables;
- ``state``     — serializable :class:`NapletState` container;
- ``context``   — *transient* :class:`NapletContext`, rebound per server;
- ``itin``      — the :class:`Itinerary` separated from business logic;
- ``aBook``     — :class:`AddressBook` of known naplets;
- ``log``       — :class:`NavigationLog` of arrivals/departures.

Lifecycle hooks: :meth:`on_start` (abstract; single entry point on each
arrival), :meth:`on_interrupt`, :meth:`on_stop`, :meth:`on_destroy`.
"""

from __future__ import annotations

import abc
import copy
from typing import TYPE_CHECKING, Any

from repro.core.address_book import AddressBook
from repro.core.context import NapletContext
from repro.core.credential import Credential
from repro.core.errors import NapletError
from repro.core.listener import ListenerRef
from repro.core.naplet_id import NapletID
from repro.core.navigation_log import NavigationLog
from repro.core.state import NapletState
from repro.core.tracking import TrackedState
from repro.telemetry.trace import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.itinerary.itinerary import Itinerary

__all__ = ["Naplet"]


class Naplet(TrackedState, abc.ABC):
    """Abstract mobile agent. Extend and implement :meth:`on_start`.

    Subclasses perform their server-specific business logic in
    :meth:`on_start`, and usually end it with ``self.travel()`` to continue
    along the itinerary.  All attributes except ``context`` serialize and
    travel with the agent.

    Naplets are :class:`~repro.core.tracking.TrackedState`: attribute
    rebinds are recorded so repeat hops can ship only changed fields
    (DESIGN.md §6.7).  Mutate nested structures through ``self.state`` (it
    fingerprints itself) or call ``self.mark_dirty("attr")`` after in-place
    mutation of a plain attribute — untracked mutable fields are simply
    re-pickled every hop, which is always correct but never saves work.
    """

    def __init__(
        self,
        name: str,
        *,
        naplet_id: NapletID | None = None,
        codebase: str = "local",
        listener: ListenerRef | None = None,
    ) -> None:
        self._name = name
        self._nid = naplet_id  # usually assigned by the launching manager
        self._codebase = codebase
        self._cred: Credential | None = None
        self._state: NapletState = NapletState()
        self._context: NapletContext | None = None  # transient
        self._itinerary: "Itinerary | None" = None
        self._address_book = AddressBook()
        self._nav_log = NavigationLog()
        self._listener = listener
        self._trace_ctx: TraceContext | None = None  # minted at launch, travels

    # ------------------------------------------------------------------ #
    # Lifecycle hooks (paper: onStart / onInterrupt / onStop / onDestroy)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def on_start(self) -> None:
        """Single entry point executed when the naplet arrives at a server."""

    def on_interrupt(self, control: str, payload: Any | None = None) -> None:
        """React to a system message cast onto the naplet thread.

        Default: no reaction (the paper leaves the reaction unspecified,
        to be defined by the naplet creator).
        """

    def on_stop(self) -> None:
        """Called when the naplet is suspended or stopped at a server."""

    def on_destroy(self) -> None:
        """Called once, just before the naplet is disposed of."""

    # ------------------------------------------------------------------ #
    # Immutable attributes
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._name

    @property
    def naplet_id(self) -> NapletID:
        if self._nid is None:
            raise NapletError(f"naplet {self._name!r} has not been assigned an id yet")
        return self._nid

    @property
    def has_id(self) -> bool:
        return self._nid is not None

    def _assign_identity(self, nid: NapletID, credential: Credential) -> None:
        """Runtime hook: bind id + credential at launch. One-shot."""
        if self._nid is not None:
            raise NapletError(f"naplet {self._name!r} already has id {self._nid}")
        self._nid = nid
        self._cred = credential

    @property
    def codebase(self) -> str:
        return self._codebase

    @property
    def credential(self) -> Credential:
        if self._cred is None:
            raise NapletError(f"naplet {self._name!r} has no credential (not launched)")
        return self._cred

    # ------------------------------------------------------------------ #
    # Mutable travelling attributes
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> NapletState:
        return self._state

    def set_naplet_state(self, state: NapletState) -> None:
        self._state = state

    @property
    def address_book(self) -> AddressBook:
        return self._address_book

    @property
    def navigation_log(self) -> NavigationLog:
        return self._nav_log

    @property
    def itinerary(self) -> "Itinerary":
        if self._itinerary is None:
            raise NapletError(f"naplet {self._name!r} has no itinerary")
        return self._itinerary

    @property
    def has_itinerary(self) -> bool:
        return self._itinerary is not None

    def set_itinerary(self, itinerary: "Itinerary") -> None:
        self._itinerary = itinerary

    @property
    def trace_context(self) -> TraceContext | None:
        """Journey trace context; serializable, survives migration and thaw."""
        return getattr(self, "_trace_ctx", None)

    def _ensure_trace(self) -> TraceContext:
        """Runtime hook: the trace context, minted on first need."""
        ctx = self.trace_context
        if ctx is None:
            ctx = self._trace_ctx = TraceContext.mint()
        return ctx

    @property
    def hlc_stamp(self) -> Any | None:
        """Hybrid-logical-clock stamp ``freeze_naplet`` put in the image: a
        thaw feeds it to the reviving server's clock (a migration's causal
        stamp is the transfer frame's header)."""
        return getattr(self, "_hlc", None)

    @property
    def listener(self) -> ListenerRef | None:
        return self._listener

    def set_listener(self, listener: ListenerRef | None) -> None:
        self._listener = listener

    # ------------------------------------------------------------------ #
    # Transient context
    # ------------------------------------------------------------------ #

    @property
    def context(self) -> NapletContext | None:
        return self._context

    def require_context(self) -> NapletContext:
        if self._context is None:
            raise NapletError(f"naplet {self._name!r} is not bound to a server context")
        return self._context

    def _bind_context(self, context: NapletContext | None) -> None:
        """Runtime hook: (re)bind or clear the per-server context."""
        self._context = context

    # ------------------------------------------------------------------ #
    # Travel & checkpoints
    # ------------------------------------------------------------------ #

    def travel(self) -> None:
        """Advance along the itinerary: dispatch to the next stop.

        On migration the itinerary driver raises a control-flow signal that
        unwinds :meth:`on_start`; when the journey is complete this simply
        returns and the runtime retires the agent.
        """
        self.itinerary.travel(self)

    def checkpoint(self) -> None:
        """Cooperative scheduling point — see :meth:`NapletContext.checkpoint`."""
        if self._context is not None:
            self._context.checkpoint()

    def report_home(self, payload: Any) -> None:
        """Report *payload* to the home listener, if one was attached."""
        if self._listener is not None:
            self._listener.report(self, payload)

    # ------------------------------------------------------------------ #
    # Cloning (paper Fig. 1; used by Par itinerary patterns)
    # ------------------------------------------------------------------ #

    def clone(self) -> "Naplet":
        """Deep-copy this naplet under a fresh heritage-extended id.

        The clone inherits the address book, state, listener ref, and the
        navigation history up to the cloning point; its credential is
        cleared and must be re-issued by the runtime (clones are re-signed
        so servers can still verify immutables).
        """
        context = self._context
        self._context = None  # transient: never copied
        try:
            dup: Naplet = copy.deepcopy(self)
        finally:
            self._context = context
        dup._nid = self.naplet_id.next_clone()
        dup._inherit_attributes = (
            dict(self._cred.attributes) if self._cred is not None else {}
        )
        dup._cred = None
        return dup

    @property
    def inherited_attributes(self) -> dict[str, str]:
        """Credential attributes carried over from the parent at clone time."""
        return dict(getattr(self, "_inherit_attributes", {}))

    # ------------------------------------------------------------------ #
    # Serialization — context is transient
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict[str, Any]:
        state = TrackedState.strip_tracking(dict(self.__dict__))
        del state["_context"]
        itinerary = state.get("_itinerary")
        if itinerary is not None:
            # The plan is fixed once travel starts, the cursor moves every
            # hop: as separate fields, a hop can reference the plan by hash.
            state["_plan"], state["_itinerary"] = itinerary._split()
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        plan = state.pop("_plan", None)
        tail = state.get("_nav_log")
        if isinstance(tail, tuple):  # a per-field image: segment fields, then the tail
            segments = []
            while (segment := state.pop(f"_nav_log{len(segments)}", None)) is not None:
                segments.append(segment)
            state["_nav_log"] = log = NavigationLog.__new__(NavigationLog)
            log.__setstate__((*segments, tail))
        self.__dict__.update(state)
        self.__dict__.setdefault("_cred", None)
        self._context = None
        if plan is not None:
            self._itinerary._pattern = plan

    def image_state(self) -> dict[str, Any]:
        """The per-field image leaves the credential out: a migration ships
        it once, as the transfer frame's payload the LANDING check verifies,
        and the destination installs that verified credential.  The log's
        closed segments are fields ``_nav_log0``, … and its tail ``_nav_log``."""
        state = self.__getstate__()
        del state["_cred"]
        *segments, state["_nav_log"] = self._nav_log.__getstate__()
        state.update((f"_nav_log{i}", segment) for i, segment in enumerate(segments))
        return state

    def __repr__(self) -> str:
        nid = str(self._nid) if self._nid is not None else "<unlaunched>"
        return f"<{type(self).__name__} {self._name!r} id={nid}>"
