"""Journey stitching: per-server span records → one ordered journey tree.

Each server's journal only holds the spans recorded locally; a naplet's
journey is scattered across every server it visited.  :func:`stitch`
reassembles the pieces: spans are linked to their parents by id, orphans
(parent recorded on a server we cannot see, or trimmed from a bounded
journal) become roots, and siblings are ordered by
start time.  The result mirrors the paper's NavigationLog but with wall
timings and nested sub-steps (landings under hops, locator lookups under
message sends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.telemetry.trace import Span

__all__ = ["CriticalPath", "HopBreakdown", "JourneyNode", "Journey", "stitch"]


@dataclass(frozen=True)
class HopBreakdown:
    """Where one migration hop spent its time.

    ``total`` is the hop span's duration; ``serialize`` is measured by the
    navigator around ``serializer.dumps``; ``landing`` is the destination's
    landing-span duration; ``wire`` is the remainder (transfer frames on
    the wire plus destination queueing), clamped non-negative because the
    landing clock runs on another server.  ``execute`` is the dwell time
    between this hop's landing finishing and the *next* hop starting —
    the naplet's useful work at the destination (0.0 for the final hop).
    """

    source: str
    dest: str
    total: float
    serialize: float
    wire: float
    landing: float
    execute: float
    status: str = "ok"
    # On-wire payload bytes of this hop (the hop span's "bytes" attribute,
    # set by the navigator); 0 when the span predates the perf plane.
    bytes: int = 0

    @property
    def dominant(self) -> str:
        """The segment that dominated this hop (ties go leftmost)."""
        segments = {
            "serialize": self.serialize,
            "wire": self.wire,
            "landing": self.landing,
            "execute": self.execute,
        }
        return max(segments, key=lambda k: segments[k])

    def describe(self) -> dict:
        return {
            "source": self.source,
            "dest": self.dest,
            "total": self.total,
            "serialize": self.serialize,
            "wire": self.wire,
            "landing": self.landing,
            "execute": self.execute,
            "dominant": self.dominant,
            "status": self.status,
            "bytes": self.bytes,
        }


@dataclass(frozen=True)
class CriticalPath:
    """Per-hop latency attribution across a whole journey."""

    hops: tuple[HopBreakdown, ...]

    @property
    def total(self) -> float:
        return sum(hop.total + hop.execute for hop in self.hops)

    @property
    def total_bytes(self) -> int:
        """Wire payload bytes shipped across the whole journey."""
        return sum(hop.bytes for hop in self.hops)

    def segment_totals(self) -> dict[str, float]:
        """Journey-wide time per segment, for answering 'where did the
        latency go' without reading every hop."""
        totals = {"serialize": 0.0, "wire": 0.0, "landing": 0.0, "execute": 0.0}
        for hop in self.hops:
            totals["serialize"] += hop.serialize
            totals["wire"] += hop.wire
            totals["landing"] += hop.landing
            totals["execute"] += hop.execute
        return totals

    def dominant_segment(self) -> str | None:
        if not self.hops:
            return None
        totals = self.segment_totals()
        return max(totals, key=lambda k: totals[k])

    def render(self) -> str:
        """Aligned table of the per-hop breakdown, milliseconds."""
        if not self.hops:
            return "(no hops)"
        lines = [
            f"{'hop':<24} {'total':>9} {'serial':>9} {'wire':>9} "
            f"{'landing':>9} {'execute':>9} {'bytes':>9}  dominant"
        ]
        for hop in self.hops:
            route = f"{hop.source} -> {hop.dest}"
            lines.append(
                f"{route:<24} {hop.total * 1e3:>8.2f}m {hop.serialize * 1e3:>8.2f}m "
                f"{hop.wire * 1e3:>8.2f}m {hop.landing * 1e3:>8.2f}m "
                f"{hop.execute * 1e3:>8.2f}m {hop.bytes:>9}  {hop.dominant}"
                + (f" [{hop.status}]" if hop.status != "ok" else "")
            )
        totals = self.segment_totals()
        lines.append(
            f"{'(journey)':<24} {self.total * 1e3:>8.2f}m {totals['serialize'] * 1e3:>8.2f}m "
            f"{totals['wire'] * 1e3:>8.2f}m {totals['landing'] * 1e3:>8.2f}m "
            f"{totals['execute'] * 1e3:>8.2f}m {self.total_bytes:>9}  "
            f"{self.dominant_segment()}"
        )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        return iter(self.hops)


@dataclass
class JourneyNode:
    """One span plus its stitched children, ordered by start time."""

    span: Span
    children: list["JourneyNode"] = field(default_factory=list)

    def walk(self) -> Iterator["JourneyNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Journey:
    """The stitched, cross-server trace of one naplet's travels."""

    def __init__(self, trace_id: str | None, roots: list[JourneyNode]) -> None:
        self.trace_id = trace_id
        self.roots = roots

    # -- inspection -------------------------------------------------------- #

    def nodes(self) -> list[JourneyNode]:
        out: list[JourneyNode] = []
        for root in self.roots:
            out.extend(root.walk())
        return out

    @property
    def spans(self) -> list[Span]:
        return [node.span for node in self.nodes()]

    def find(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def __len__(self) -> int:
        return len(self.spans)

    def __bool__(self) -> bool:
        return bool(self.roots)

    # -- critical path ------------------------------------------------------ #

    def critical_path(self) -> CriticalPath:
        """Attribute each hop's latency to serialize/wire/landing/execute.

        Hops are taken in monotonic start order (every tracer shares the
        process clock, so cross-server ordering is sound in-process).  The
        wire share is what remains of the hop after subtracting the
        measured serialize time and the destination's landing-span
        duration; execute is the gap from a hop's end to the next hop's
        start, i.e. how long the naplet actually worked at the
        destination before moving on.
        """
        hop_nodes = sorted(
            (node for node in self.nodes() if node.span.name == "hop"),
            key=lambda n: (n.span.start_mono, n.span.start_wall, n.span.span_id),
        )
        breakdowns: list[HopBreakdown] = []
        for index, node in enumerate(hop_nodes):
            span = node.span
            serialize = float(span.attributes.get("serialize_s", 0.0) or 0.0)
            landing = sum(
                child.span.duration
                for child in node.children
                if child.span.name == "landing"
            )
            wire = max(0.0, span.duration - serialize - landing)
            hop_end = span.start_mono + span.duration
            if index + 1 < len(hop_nodes):
                next_start = hop_nodes[index + 1].span.start_mono
                execute = max(0.0, next_start - hop_end)
            else:
                execute = 0.0
            breakdowns.append(
                HopBreakdown(
                    source=str(span.attributes.get("source", span.server)),
                    dest=str(span.attributes.get("dest", "?")),
                    total=span.duration,
                    serialize=serialize,
                    wire=wire,
                    landing=landing,
                    execute=execute,
                    status=span.status,
                    bytes=int(span.attributes.get("bytes", 0) or 0),
                )
            )
        return CriticalPath(hops=tuple(breakdowns))

    # -- rendering ---------------------------------------------------------- #

    def render(self) -> str:
        """ASCII tree of the journey with per-span timing and endpoints."""
        if not self.roots:
            return "(empty journey)"
        lines = [f"journey {self.trace_id}"]
        for index, root in enumerate(self.roots):
            self._render_node(root, lines, "", index == len(self.roots) - 1)
        return "\n".join(lines)

    def _render_node(
        self, node: JourneyNode, lines: list[str], prefix: str, last: bool
    ) -> None:
        span = node.span
        connector = "`-" if last else "|-"
        detail = _span_label(span)
        lines.append(f"{prefix}{connector} {detail}")
        child_prefix = prefix + ("   " if last else "|  ")
        for index, child in enumerate(node.children):
            self._render_node(child, lines, child_prefix, index == len(node.children) - 1)


def _span_label(span: Span) -> str:
    parts = [span.name, f"@{span.server}"]
    source = span.attributes.get("source")
    dest = span.attributes.get("dest")
    if source or dest:
        parts.append(f"{source or '?'} -> {dest or '?'}")
    parts.append(f"{span.duration * 1e3:.2f}ms")
    if span.status != "ok":
        parts.append(f"[{span.status}]")
    return " ".join(str(p) for p in parts)


def stitch(spans: Iterable[Span]) -> Journey:
    """Assemble *spans* (any order, any servers) into a :class:`Journey`.

    Spans whose parent is absent from the set become roots; children are
    sorted by monotonic start time (all tracers share one process clock;
    ties fall back to wall time, then span id for determinism).
    """
    nodes: dict[str, JourneyNode] = {}
    ordered: list[JourneyNode] = []
    trace_id: str | None = None
    for span in spans:
        if span.span_id in nodes:
            continue  # duplicate ids cannot nest under themselves
        node = JourneyNode(span)
        nodes[span.span_id] = node
        ordered.append(node)
        if trace_id is None:
            trace_id = span.trace_id
    roots: list[JourneyNode] = []
    for node in ordered:
        parent_id = node.span.parent_id
        parent = nodes.get(parent_id) if parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)

    def sort_key(n: JourneyNode) -> tuple[float, float, str]:
        return (n.span.start_mono, n.span.start_wall, n.span.span_id)

    for node in ordered:
        node.children.sort(key=sort_key)
    roots.sort(key=sort_key)
    return Journey(trace_id, roots)
