"""Benchmark-side spans around the calls into each layer, and their arithmetic.

The tracer wraps public methods of a booted space from the outside —
instance-level on each server's components, class-level where objects are
made per naplet — and keeps ``(id, parent, name, start, end)`` tuples in
memory until the run ends.  Nothing inside ``src/`` knows it exists.

Parents.  On one thread a span's parent is the span open around it.  A
span opened on an empty stack takes the thread's *cause*: the
``transport.request`` span whose id rode the frame's headers (for a frame
handler), or the ``monitor.admit`` span that started the thread (for
everything a naplet thread does).  Every span of a journey therefore
leads back to the client's ``journey`` root, and spans of the background
planes (heartbeats, the health sampler) lead nowhere and are set aside.

Self time.  A span's self time is its duration minus the part its child
spans cover (children clipped to the parent, so a naplet thread that
outlives the ``admit`` call that started it takes nothing more than the
overlap).  Threads of one journey do overlap — a source finishes its
post-ack bookkeeping while the destination already runs ``on_start`` —
so within a journey an instant shared by k open self-intervals gives each
1/k.  Hence per journey: sum of layer self times + unattributed = wall,
exactly, where unattributed is the time no span of the journey was open.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.itinerary import Itinerary
from repro.server.directory import DirectoryClient
from repro.server.navigator import NavigatorOps

from benchmarks.journey import agents, stats

__all__ = ["Tracer", "Span", "attribute", "layer_metrics", "SPAN_METRIC", "PER_LAYER"]

Span = tuple[int, int, str, float, float]  # id, parent, name, start, end
ROOT = "journey"
SPAN_HEADER = "bench-span"

# Which *_ms_per_op metric each span name's self time is reported under.
# Every name a wrapper can emit is here: the identity above is checked on
# the reported numbers, so no span may fall between two metrics.
SPAN_METRIC = {
    "itinerary.step": "itinerary.self_ms_per_op",
    "itinerary.await_join": "itinerary.join_wait_ms_per_op",
    "serializer.dumps": "serializer.dumps_self_ms_per_op",
    "serializer.dumps_with_cost": "serializer.dumps_self_ms_per_op",
    "serializer.loads_with_info": "serializer.loads_self_ms_per_op",
    "navigator.transfer": "navigator.depart_self_ms_per_op",
    "navigator.dispatch": "navigator.depart_self_ms_per_op",
    "navigator.handle_transfer": "navigator.land_self_ms_per_op",
    "transport.request": "transport.wire_ms_per_op",
    "transport.send": "transport.wire_ms_per_op",
    "server.dispatch": "server.dispatch_self_ms_per_op",
    "security.check": "security.self_ms_per_op",
    "security.verify_credential": "security.self_ms_per_op",
    "monitor.admit": "monitor.admit_self_ms_per_op",
    "monitor.retire": "monitor.retire_self_ms_per_op",
    "manager.launch": "manager.self_ms_per_op",
    "manager.begin_departure": "manager.self_ms_per_op",
    "manager.record_arrival": "manager.self_ms_per_op",
    "manager.record_retirement": "manager.self_ms_per_op",
    "directory.report_arrival": "directory.report_self_ms_per_op",
    "directory.report_departure": "directory.report_self_ms_per_op",
    "directory.report_migration": "directory.report_self_ms_per_op",
    "directory.handle_event_frame": "directory.report_self_ms_per_op",
    "locator.locate": "locator.locate_self_ms_per_op",
    "messenger.post": "messenger.post_self_ms_per_op",
    "messenger.handle_message_frame": "messenger.handle_self_ms_per_op",
    "messenger.post_report": "messenger.report_self_ms_per_op",
    "messenger.handle_report_frame": "messenger.report_self_ms_per_op",
    "journal.observe_event": "telemetry.observe_self_ms_per_op",
    "journal.observe_span": "telemetry.observe_self_ms_per_op",
    "journal.append": "telemetry.observe_self_ms_per_op",
    "observatory.order_branches": "observatory.order_self_ms_per_op",
    "onsite": "onsite.self_ms_per_op",
}

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = {
    **{metric: "ms" for metric in SPAN_METRIC.values()},
    "itinerary.step_calls_per_op": "count",
    "serializer.image_bytes_per_op": "bytes",
    "serializer.delta_saved_share": "ratio",
    "navigator.full_reships": "count",
    "navigator.retries": "count",
    "transport.frames_per_op": "count",
    "transport.bytes_per_op": "bytes",
    "transport.connections_opened": "count",
    "transport.pool_reuse_ratio": "ratio",
    "security.checks_per_op": "count",
    "monitor.admit_to_start_ms_p50": "ms",
    "locator.cache_hit_ratio": "ratio",
    "telemetry.records_per_op": "count",
    "observatory.digests_per_s": "1/s",
    "journey.traced_op_ms": "ms",
    "journey.cpu_ms_per_op": "ms",
    "journey.op_ms_p50": "ms",
    "journey.op_ms_p95": "ms",
    "journey.op_ms_p99": "ms",
    "journey.unattributed_ms_per_op": "ms",
    "journey.unattributed_share": "ratio",
    "journey.parallelism": "ratio",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (total_bytes, saved_bytes) of every SerializeCost dumps_with_cost returned
        self.images: list[tuple[int, int]] = []
        self.window = (0.0, 0.0)
        # Off, every wrapper is a plain call-through: the same wrapped space
        # serves as its own untraced reference for trace.overhead_share.
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self._baseline: dict[str, float] = {}

    # -- recording --------------------------------------------------------- #

    def _stack(self) -> list[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.cause = 0
            local.stack = []
            return local.stack

    def current(self) -> int:
        """The span this thread is inside (or was caused by); 0 if none."""
        stack = self._stack()
        return stack[-1] if stack else self._local.cause

    def adopt(self, cause: int) -> None:
        """Make span *cause* the parent of what this thread opens at top level."""
        self._stack()
        self._local.cause = cause

    def traced(self, fn: Callable, name: str, before: Callable | None = None,
               after: Callable | None = None) -> Callable:
        """*fn* inside a span.  ``before(span_id, args)`` may adopt a cause or
        tag a frame; ``after(result)`` may read a count off the result."""
        spans, ids, local, clock, stack_of = (
            self.spans, self._ids, self._local, time.perf_counter, self._stack
        )

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            stack = stack_of()
            span_id = next(ids)
            if before is not None:
                before(span_id, args)
            parent = stack[-1] if stack else local.cause
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextmanager
    def root(self) -> Iterator[None]:
        """The client's span around one closed-loop sample."""
        if not self.recording:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((span_id, 0, ROOT, start, time.perf_counter()))

    # -- installing -------------------------------------------------------- #

    def _on_instance(self, obj: Any, attr: str, name: str, **hooks: Callable) -> None:
        # Not undone: a traced space is closed, never handed back untraced.
        setattr(obj, attr, self.traced(getattr(obj, attr), name, **hooks))

    def _on_class(self, cls: type, attr: str, name: str, static: bool = False) -> None:
        original = cls.__dict__[attr]
        wrapped = self.traced(getattr(cls, attr), name)
        setattr(cls, attr, staticmethod(wrapped) if static else wrapped)
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self, space: Any) -> None:
        """Wrap every layer boundary of *space*; call before any traffic."""
        def tag_frame(span_id: int, args: tuple) -> None:
            args[0].headers[SPAN_HEADER] = str(span_id)

        def adopt_frame(_span_id: int, args: tuple) -> None:
            # Worker threads are reused: the cause is set anew for each frame.
            self.adopt(int(args[0].headers.get(SPAN_HEADER, 0)))

        def cost_of(result: tuple) -> None:
            cost = result[2]
            self.images.append((cost.total_bytes, cost.saved_bytes))

        transport = space.transport
        self._on_instance(transport, "request", "transport.request", before=tag_frame)
        self._on_instance(transport, "send", "transport.send", before=tag_frame)
        for server in space.servers.values():
            # The whole-handler span needs the handler the transport calls,
            # so the endpoint is registered again around the server's own.
            handler = self.traced(server._handle_frame, "server.dispatch", before=adopt_frame)
            transport.unregister(server.urn)
            transport.register(server.urn, handler)
            transport.bind_event_log(server.urn, server.events)

            for attr in ("dumps", "loads_with_info"):
                self._on_instance(server.serializer, attr, f"serializer.{attr}")
            self._on_instance(
                server.serializer, "dumps_with_cost", "serializer.dumps_with_cost", after=cost_of
            )
            for component, attrs in (
                ("navigator", ("transfer", "dispatch", "handle_transfer")),
                ("security", ("check", "verify_credential")),
                ("manager", ("launch", "begin_departure", "record_arrival", "record_retirement")),
                ("locator", ("locate",)),
                ("messenger", ("post", "handle_message_frame", "post_report", "handle_report_frame")),
                ("observatory", ("order_branches",)),
            ):
                for attr in attrs:
                    self._on_instance(getattr(server, component), attr, f"{component}.{attr}")
            for attr in ("report_arrival", "report_departure", "report_migration"):
                self._on_instance(server.directory_client, attr, f"directory.{attr}")
            self._on_instance(server.journal, "append", "journal.append")
            # The journal is fed through these two observer slots.
            server.events.on_record = self.traced(server.journal.observe_event, "journal.observe_event")
            server.telemetry.tracer.on_span = self.traced(server.journal.observe_span, "journal.observe_span")
            self._install_admit(server.monitor)

        self._on_class(Itinerary, "step", "itinerary.step")
        self._on_class(NavigatorOps, "await_join", "itinerary.await_join")
        self._on_class(DirectoryClient, "handle_event_frame", "directory.handle_event_frame", static=True)
        for cls in (agents.TourNaplet, agents.CourierNaplet, agents.SinkNaplet):
            self._on_class(cls, "on_start", "onsite")

    def _install_admit(self, monitor: Any) -> None:
        """``admit`` starts a thread: hand that thread the admit span as its cause."""
        admit = monitor.admit

        def traced_admit(naplet, run_body, on_retire, quota=None, prepare=None):
            admit_span = self.current()  # the span self.traced opened around us

            def body() -> None:
                self.adopt(admit_span)
                run_body()

            return admit(
                naplet, body, self.traced(on_retire, "monitor.retire"), quota=quota, prepare=prepare
            )

        monitor.admit = self.traced(traced_admit, "monitor.admit")

    def uninstall(self) -> None:
        """Put the wrapped classes back as they were."""
        while self._undo:
            self._undo.pop()()

    # -- the measured window ------------------------------------------------- #

    @staticmethod
    def _counters(space: Any) -> dict[str, float]:
        servers = list(space.servers.values())
        return {
            "frames": space.wire_frames(),
            "bytes": space.wire_bytes(),
            "connections": space.transport.connections_opened(),
            "reused": space.transport.pool_reuse_count(),
            "full_reships": sum(s.telemetry.delta_full_reships.total() for s in servers),
            "retries": sum(s.telemetry.migration_retries.total() for s in servers),
            "locator_hits": sum(s.locator.cache_hits for s in servers),
            "locator_misses": sum(s.locator.cache_misses for s in servers),
            "records": sum(s.journal.total_appended for s in servers),
            "digests": sum(
                s.telemetry.registry.snapshot().total("naplet_load_digests_received_total")
                for s in servers
            ),
        }

    def start_window(self, space: Any) -> None:
        """Start recording: spans and counts start here."""
        self._baseline = self._counters(space)
        self.window = (time.perf_counter(), 0.0)
        self.recording = True

    def end_window(self, space: Any) -> dict[str, float]:
        """Stop recording; returns each counter's growth inside the window."""
        self.recording = False
        self.window = (self.window[0], time.perf_counter())
        now = self._counters(space)
        return {key: now[key] - self._baseline[key] for key in now}

    def write(self, path: Path, **header: Any) -> None:
        document = {
            **header,
            "window": self.window,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(document, separators=(",", ":")))


# --------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------- #


def self_intervals(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> list[tuple[float, float]]:
    """[start, end] minus the union of *children*, each clipped to it."""
    pieces = []
    cursor = start
    for child_start, child_end in sorted(children):
        child_start, child_end = max(child_start, start), min(child_end, end)
        if child_end <= cursor:
            continue
        if child_start > cursor:
            pieces.append((cursor, child_start))
        cursor = child_end
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def attribute(spans: list[Span]) -> dict[str, Any]:
    """Split every journey's wall time among its spans' names.

    Returns ``wall`` (sum of root durations), ``self`` (name -> seconds,
    overlapping instants shared equally), ``unattributed`` (wall no span
    covered), ``raw_self`` (sum of unshared self times, for parallelism),
    ``calls`` (name -> spans inside journeys) and ``background`` (name ->
    spans outside any journey).
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)

    root_of: dict[int, int] = {}

    def find_root(span: Span) -> int:
        """Id of the journey root above *span*; 0 if its chain ends elsewhere."""
        path = []
        while True:
            span_id = span[0]
            if span_id in root_of:
                found = root_of[span_id]
                break
            if span[2] == ROOT:
                found = span_id
                break
            path.append(span_id)
            parent = by_id.get(span[1])
            if parent is None:
                found = 0
                break
            span = parent
        for span_id in path:
            root_of[span_id] = found
        return found

    members: dict[int, list[Span]] = defaultdict(list)
    background: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[2] == ROOT:
            continue
        root = find_root(span)
        if root:
            members[root].append(span)
            calls[span[2]] += 1
        else:
            background[span[2]] += 1

    shared: dict[str, float] = defaultdict(float)
    raw_self = wall = unattributed = 0.0
    for root_id, inside in members.items():
        _, _, _, root_start, root_end = by_id[root_id]
        wall += root_end - root_start
        events: list[tuple[float, int, str]] = []
        for span_id, _parent, name, start, end in inside:
            kids = [(c[3], c[4]) for c in children.get(span_id, ())]
            for piece_start, piece_end in self_intervals(start, end, kids):
                raw_self += piece_end - piece_start
                piece_start, piece_end = max(piece_start, root_start), min(piece_end, root_end)
                if piece_end > piece_start:
                    events.append((piece_start, 1, name))
                    events.append((piece_end, -1, name))
        events.sort()
        open_now: dict[str, int] = defaultdict(int)
        open_count = 0
        cursor = root_start
        for at, step, name in events:
            if at > cursor:
                if open_count:
                    share = (at - cursor) / open_count
                    for open_name, count in open_now.items():
                        if count:
                            shared[open_name] += share * count
                else:
                    unattributed += at - cursor
                cursor = at
            open_now[name] += step
            open_count += step
        unattributed += root_end - cursor
    # A sample that opened no span at all is wall nothing accounts for.
    for span in spans:
        if span[2] == ROOT and span[0] not in members:
            wall += span[4] - span[3]
            unattributed += span[4] - span[3]
    return {
        "wall": wall, "self": dict(shared), "unattributed": unattributed,
        "raw_self": raw_self, "calls": dict(calls), "background": dict(background),
    }


def layer_metrics(tracer: Tracer, grown: dict[str, float], traced: Any, plain: Any) -> dict:
    """Every PER_LAYER metric of one traced window: name -> (value, unit).

    *grown* is ``Tracer.end_window``'s counter growth; *traced* is the
    recorded window and *plain* the windows run on the same space, before
    and after it, with recording off.
    """
    spans = list(tracer.spans)  # background threads are still appending
    result = attribute(spans)
    ops = traced.attempted
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in result["self"].items():
        values[SPAN_METRIC[name]] += seconds / ops * 1e3
    calls = result["calls"]
    by_id = {span[0]: span for span in spans}
    waits = [
        (span[3] - by_id[span[1]][3]) * 1e3
        for span in spans
        if span[2] == "onsite" and span[1] in by_id and by_id[span[1]][2] == "monitor.admit"
    ]
    image_bytes = sum(total for total, _saved in tracer.images)
    saved_bytes = sum(saved for _total, saved in tracer.images)
    lookups = grown["locator_hits"] + grown["locator_misses"]
    window_s = tracer.window[1] - tracer.window[0]
    wall_ms = result["wall"] / ops * 1e3
    unattributed_ms = result["unattributed"] / ops * 1e3
    values.update({
        "itinerary.step_calls_per_op": calls.get("itinerary.step", 0) / ops,
        "serializer.image_bytes_per_op": image_bytes / ops,
        # Saved bytes over what full images would have shipped.
        "serializer.delta_saved_share": (
            saved_bytes / (image_bytes + saved_bytes) if image_bytes else 0.0
        ),
        "navigator.full_reships": grown["full_reships"],
        "navigator.retries": grown["retries"],
        "transport.frames_per_op": grown["frames"] / ops,
        "transport.bytes_per_op": grown["bytes"] / ops,
        "transport.connections_opened": grown["connections"],
        "transport.pool_reuse_ratio": grown["reused"] / grown["frames"] if grown["frames"] else 0.0,
        # check() verifies the credential first, so every check is one verify.
        "security.checks_per_op": calls.get("security.verify_credential", 0) / ops,
        "monitor.admit_to_start_ms_p50": stats.percentile(waits, 50) if waits else 0.0,
        "locator.cache_hit_ratio": grown["locator_hits"] / lookups if lookups else 0.0,
        "telemetry.records_per_op": grown["records"] / ops,
        "observatory.digests_per_s": grown["digests"] / window_s,
        "journey.traced_op_ms": wall_ms,
        # The next four come from whole windows, so they follow the host's load.
        "journey.cpu_ms_per_op": plain.cpu_ms_per_op(),
        "journey.op_ms_p50": stats.percentile(plain.op_ms(), 50),
        "journey.op_ms_p95": stats.tail_or_zero(traced.op_ms(), 95),
        "journey.op_ms_p99": stats.tail_or_zero(traced.op_ms(), 99),
        "journey.unattributed_ms_per_op": unattributed_ms,
        "journey.unattributed_share": unattributed_ms / wall_ms,
        "journey.parallelism": result["raw_self"] / result["wall"],
        # On the fast decile, like op_ms_p10: whole-window means follow the host.
        "trace.overhead_share": (
            stats.percentile(traced.op_ms(), 10) / stats.percentile(plain.op_ms(), 10) - 1.0
        ),
    })
    return {name: (value, PER_LAYER[name]) for name, value in values.items()}
