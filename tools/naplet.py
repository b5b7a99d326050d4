#!/usr/bin/env python
"""naplet: the operator CLI over a naplet space's harvest.

Three subcommands, one collection path (DESIGN.md §6.9).  Everything below
reads the rows ``HarvestService.harvest`` builds — in-process through
:meth:`SpaceAdmin.harvest` or carried home by a touring probe
(:func:`repro.health.harvest_via_probe`), they are the same rows — and the
``JournalRecord`` timeline merged from them; every record filter is
:func:`repro.telemetry.journal.select`.

- ``stat`` — ``top`` for mobile agents: per-server status, busiest naplets
  by CPU, dead letters, the watchdog's findings and the observer x peer
  load matrix, in plain ANSI (no curses, so it works in CI logs);
- ``log`` — ``grep`` for mobile agents: the merged timeline of a saved dump
  (or a live ``--demo`` space) filtered and ordered by wall time or, with
  ``--causal``, by hybrid-logical-clock stamps (skewed server clocks can
  show a landing before its departure in wall order, never in causal
  order); text lines, a Chrome trace, or a fresh dump;
- ``hops`` — the per-hop cost table from a saved dump.

Run:

    python tools/naplet.py stat --demo --once           # one frame, demo space
    python tools/naplet.py stat --demo --wedge --once   # ... with a stuck naplet
    python tools/naplet.py stat --demo --follow         # tail the journal
    python tools/naplet.py log --demo --dump space.json # save for offline use
    python tools/naplet.py log space.json --journey <id> --causal
    python tools/naplet.py log space.json --chrome trace.json
    python tools/naplet.py hops space.json --naplet <id>
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402  (sys.path fixed above)
from repro.health.harvest import ALL, merged_journal  # noqa: E402
from repro.perf import render_hop_costs  # noqa: E402
from repro.telemetry.export import write_chrome_trace  # noqa: E402
from repro.telemetry.journal import (  # noqa: E402
    CATEGORIES,
    JournalRecord,
    dump_records,
    format_record,
    load_records,
    merge_journals,
    order,
    select,
)

_CLEAR = "\x1b[2J\x1b[H"
_SEVERITY_GLYPH = {"critical": "!!", "warning": " !", "info": "  "}
_LOG_HEADER = (
    f"{'hlc (wall+logical)':<21} {'server':<8} {'category':<10} "
    f"{'kind':<26} {'naplet':<30} detail"
)


# --------------------------------------------------------------------- #
# Collection (harvest rows in, JournalRecords out)
# --------------------------------------------------------------------- #


def tail(
    rows: list[dict[str, Any]], watermarks: dict[str, int], journey: str | None = None
) -> list[JournalRecord]:
    """Journal records of *rows* past per-server *watermarks*, causally merged.

    ``watermarks`` (hostname -> last seen per-server sequence number) is
    advanced in place, so successive harvests yield only fresh records.
    *journey* is resolved over the whole timeline, not just the fresh part.
    """
    timeline = merged_journal(rows)
    chosen = select(timeline, journey=journey)
    fresh = merge_journals(
        select(chosen, server=row["server"], after_seq=watermarks.get(row["server"], 0))
        for row in rows
    )
    for record in timeline:
        watermarks[record.server] = max(watermarks.get(record.server, 0), record.seq)
    return fresh


# --------------------------------------------------------------------- #
# Rendering (pure, testable)
# --------------------------------------------------------------------- #


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.1f}"


def render(rows: list[dict[str, Any]], top: int = 5) -> str:
    """One dashboard frame over the harvested *rows*."""
    lines: list[str] = []
    stamp = time.strftime("%H:%M:%S")
    lines.append(f"naplet stat  {stamp}  servers={len(rows)}")
    lines.append("")

    # -- per-server table ---------------------------------------------- #
    lines.append(
        f"  {'server':<10} {'health':<9} {'residents':>9} {'profiles':>9} "
        f"{'samples':>8} {'in-B':>8} {'out-B':>8} {'dead-ltr':>9} {'findings':>9}"
    )
    total_dead = 0
    findings: list[dict[str, Any]] = []
    profiles: list[tuple[str, dict[str, Any]]] = []
    for row in rows:
        health = row.get("health") or {}
        server = row.get("server", "?")
        if "error" in row:
            lines.append(f"  {server:<10} unreachable: {row['error']}")
            continue
        dead = int(health.get("dead_letter_depth", 0))
        total_dead += dead
        active = health.get("findings") or []
        findings.extend(dict(f, server=f.get("server", server)) for f in active)
        profiles.extend((server, p) for p in (health.get("profiles") or []))
        state = (row.get("status") or {}).get("health", "?")
        metrics = row.get("metrics") or {}
        lines.append(
            f"  {server:<10} {state:<9} {int(health.get('residents', 0)):>9} "
            f"{len(health.get('profiles') or []):>9} "
            f"{int(health.get('samples_taken', 0)):>8} "
            f"{_fmt_rate(float(metrics.get('ingress_bytes', 0))):>8} "
            f"{_fmt_rate(float(metrics.get('egress_bytes', 0))):>8} "
            f"{dead:>9} {len(active):>9}"
        )
    lines.append("")

    # -- top naplets by CPU --------------------------------------------- #
    profiles.sort(key=lambda sp: float(sp[1].get("cpu_seconds", 0.0)), reverse=True)
    lines.append(f"  top naplets by CPU (of {len(profiles)} profiled)")
    lines.append(
        f"  {'naplet':<34} {'at':<10} {'cpu-s':>8} {'cpu%':>6} "
        f"{'B/s':>8} {'msgs':>6} {'state':<9}"
    )
    for server, profile in profiles[:top]:
        lines.append(
            f"  {str(profile.get('naplet', '?')):<34} {server:<10} "
            f"{float(profile.get('cpu_seconds', 0.0)):>8.3f} "
            f"{float(profile.get('cpu_rate', 0.0)) * 100:>5.1f}% "
            f"{_fmt_rate(float(profile.get('bandwidth', 0.0))):>8} "
            f"{int(profile.get('messages_sent', 0)):>6} "
            f"{'resident' if profile.get('resident') else 'gone':<9}"
        )
    if not profiles:
        lines.append("  (no resource profiles yet)")
    lines.append("")

    # -- dead letters + findings ---------------------------------------- #
    lines.append(f"  dead letters space-wide: {total_dead}")
    findings.sort(
        key=lambda f: (
            {"critical": 0, "warning": 1, "info": 2}.get(f.get("severity"), 3),
            f.get("first_seen", 0.0),
        )
    )
    lines.append(f"  active findings: {len(findings)}")
    for finding in findings:
        glyph = _SEVERITY_GLYPH.get(finding.get("severity", "info"), "  ")
        lines.append(
            f"  {glyph} [{finding.get('severity', '?'):<8}] "
            f"{finding.get('kind', '?')} {finding.get('subject', '?')}"
            f"@{finding.get('server', '?')}: {finding.get('detail', '')}"
        )
    if not findings:
        lines.append("     (space is healthy)")
    return "\n".join(lines)


def render_space_view(space_view: dict[str, Any]) -> str:
    """The observatory panel: who sees whom, and how loaded.

    *space_view* maps each observing server to the ``load`` payload of its
    harvest row (``SpaceAdmin.space_view()``) — the merged
    :class:`~repro.health.SpaceView` it navigates by.  Cells show the
    peer's load score as the observer currently believes it; ``?`` marks a
    peer whose digest is stale or was never heard (decayed to *unknown*,
    never to idle — see DESIGN.md §6.8).
    """
    observers = sorted(space_view)
    peers = sorted(
        {p for view in space_view.values() for p in (view.get("peers") or {})}
        | set(observers)
    )
    lines = [
        f"  space view  ({len(observers)} observers x {len(peers)} peers; "
        f"cell = load score, ? = unknown/stale)"
    ]
    lines.append("  " + f"{'sees ->':<10}" + "".join(f"{p:>9}" for p in peers))
    for observer in observers:
        view = space_view.get(observer) or {}
        held = view.get("peers") or {}
        cells = []
        for peer in peers:
            entry = held.get(peer)
            if entry is None or not entry.get("fresh") or entry.get("score") is None:
                cells.append(f"{'?':>9}")
            else:
                cells.append(f"{float(entry['score']):>9.1f}")
        notes = []
        if not view.get("enabled", True):
            notes.append("observatory off")
        elif not view.get("load_aware", True):
            notes.append("static order")
        reroutes = int(view.get("reroutes", 0))
        if reroutes:
            notes.append(f"reroutes={reroutes}")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(f"  {observer:<10}" + "".join(cells) + suffix)
    if not observers:
        lines.append("  (no observatories reporting)")
    return "\n".join(lines)


def render_journey(records: list[JournalRecord], journey: str) -> str:
    """Flight-recorder timeline of one journey, under the dashboard.

    *records* are that journey's records in causal order, as
    ``merged_journal(rows, journey=...)`` returns them.
    """
    lines = [f"  journey {journey}: {len(records)} journal records"]
    lines.extend(f"  {format_record(record)}" for record in records)
    if not records:
        lines.append("  (no records — wrong id, or the journal is disabled)")
    return "\n".join(lines)


def render_lines(records: Iterable[JournalRecord]) -> list[str]:
    """Text rendering: a header plus one :func:`format_record` line each."""
    records = list(records)
    lines = [_LOG_HEADER]
    lines.extend(format_record(r) for r in records)
    lines.append(f"({len(records)} records)")
    return lines


# --------------------------------------------------------------------- #
# Demo space (the one place that holds server objects)
# --------------------------------------------------------------------- #


class DemoWorker(repro.Naplet):
    """Burns a little CPU at each stop so the dashboard has rates."""

    def on_start(self) -> None:
        total = 0
        for _ in range(40):
            total += sum(j * j for j in range(4000))
            self.checkpoint()
        self.state.set("total", total)
        self.travel()


class DemoWedged(repro.Naplet):
    """Sleeps without checkpointing: exactly what the watchdog hunts."""

    def on_start(self) -> None:
        while True:
            time.sleep(0.2)


class DemoSpace:
    """A small live space generating its own traffic (and one stuck naplet)."""

    def __init__(self, wedge: bool = False) -> None:
        from repro.itinerary import Itinerary, SeqPattern
        from repro.itinerary.pattern import singleton
        from repro.server import ServerConfig, SpaceAdmin, deploy
        from repro.simnet import VirtualNetwork, ring

        self.network = VirtualNetwork(ring(4, prefix="d"))
        self.servers = deploy(
            self.network,
            config=ServerConfig(health_cadence=0.1, health_stuck_deadline=0.5),
        )
        self.admin = SpaceAdmin(self.servers)
        hosts = sorted(self.servers)
        for i in range(3):
            worker = DemoWorker(f"demo-worker-{i}")
            worker.set_itinerary(Itinerary(SeqPattern.of_servers(hosts[1:] * 4)))
            self.servers[hosts[0]].launch(worker, owner="demo")
        if wedge:
            wedged = DemoWedged("demo-wedged")
            wedged.set_itinerary(Itinerary(singleton(hosts[1])))
            self.servers[hosts[0]].launch(wedged, owner="demo")
            # Let the watchdog observe at least two cadence periods so the
            # planted naplet shows up as a finding on the very first frame.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not self.admin.space_findings():
                time.sleep(0.05)

    def beat(self) -> None:
        """Force one observatory beat so a frame shows a populated space
        view even before the cadence thread fires."""
        for server in self.servers.values():
            server.observatory.beat_now()


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #


def _cmd_stat(args: argparse.Namespace) -> int:
    if not args.demo:
        args.usage_error(
            "only --demo spaces can be reached from this process; for a real "
            "space, launch a probe (repro.health.harvest_via_probe) and pipe "
            "its rows into render()"
        )
    demo = DemoSpace(wedge=args.wedge)
    try:
        frame = 0
        watermarks: dict[str, int] = {}
        kinds = ALL if args.journey else tuple(k for k in ALL if k != "journal")
        while True:
            if args.follow:
                # Tail mode: append-only, CI-log friendly (no screen clears).
                rows = demo.admin.harvest(("journal",))
                for record in tail(rows, watermarks, journey=args.journey):
                    print(format_record(record), flush=True)
            else:
                demo.beat()
                rows = demo.admin.harvest(kinds)
                output = render(rows, top=args.top) + "\n\n" + render_space_view(
                    {row["server"]: row["load"] for row in rows if "load" in row}
                )
                if args.journey:
                    records = merged_journal(rows, journey=args.journey)
                    output += "\n\n" + render_journey(records, args.journey)
                print(output if args.once else _CLEAR + output, flush=True)
            frame += 1
            if args.once or (args.frames and frame >= args.frames):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        demo.network.shutdown()


def _read_dump(args: argparse.Namespace, path: str) -> list[JournalRecord]:
    try:
        return order(load_records(path), causal=True)
    except (OSError, ValueError) as exc:
        args.usage_error(str(exc))


def _cmd_log(args: argparse.Namespace) -> int:
    if args.demo:
        demo = DemoSpace()
        try:
            demo.admin.wait_space_idle(timeout=30.0)
            records = demo.admin.harvest_journal()
        finally:
            demo.network.shutdown()
    elif args.dumpfile:
        records = _read_dump(args, args.dumpfile)
    else:
        args.usage_error("give a journal dump file or --demo")

    if args.dump:
        dump_records(args.dump, records)
        print(f"wrote {len(records)} records to {args.dump}")
        return 0

    selected = select(
        records,
        journey=args.journey,
        naplet=args.naplet,
        server=args.server,
        kind=args.kind,
        category=args.category,
        since=args.since,
        until=args.until,
    )
    # --limit keeps the tail of what is shown, so it follows the ordering.
    selected = select(order(selected, causal=args.causal), limit=args.limit or None)

    if args.chrome:
        trace = write_chrome_trace(args.chrome, selected)
        print(
            f"wrote {len(trace['traceEvents'])} trace events "
            f"({len(selected)} records) to {args.chrome}"
        )
        return 0

    print("\n".join(render_lines(selected)))
    return 0


def _cmd_hops(args: argparse.Namespace) -> int:
    print(render_hop_costs(_read_dump(args, args.dump), naplet=args.naplet))
    return 0


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Observe a naplet space: dashboard, journal queries, hop costs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stat", help="live health dashboard for a naplet space")
    p.add_argument("--demo", action="store_true", help="spin up an in-process demo space")
    p.add_argument(
        "--wedge", action="store_true",
        help="plant a stuck naplet in the demo space (shows a finding)",
    )
    p.add_argument("--once", action="store_true", help="render one frame and exit")
    p.add_argument("--interval", type=float, default=1.0, help="refresh period in seconds")
    p.add_argument("--top", type=int, default=5, help="naplets shown in the CPU table")
    p.add_argument("--frames", type=int, default=0, help="stop after N frames (0 = forever)")
    p.add_argument(
        "--journey", metavar="ID",
        help="show the flight-recorder timeline of one journey "
        "(trace id or naplet id) under the dashboard",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="tail new journal records instead of redrawing the dashboard "
        "(combines with --journey to follow one journey)",
    )
    p.set_defaults(fn=_cmd_stat, usage_error=p.error)

    p = sub.add_parser("log", help="query a space's flight-recorder journal")
    p.add_argument(
        "dumpfile", nargs="?",
        help="JSON journal dump (written by --dump, or dump_records over a harvest)",
    )
    p.add_argument("--demo", action="store_true", help="run an in-process demo space")
    p.add_argument(
        "--journey", metavar="ID",
        help="only records of this journey (trace id or naplet id)",
    )
    p.add_argument("--naplet", help="only records naming this naplet id")
    p.add_argument("--server", help="only records journaled at this server")
    p.add_argument("--kind", help="only records of this kind")
    p.add_argument("--category", choices=CATEGORIES, help="only records of this category")
    p.add_argument("--since", type=float, help="only records with wall time >= SINCE")
    p.add_argument("--until", type=float, help="only records with wall time <= UNTIL")
    p.add_argument(
        "--causal", action="store_true",
        help="order by hybrid-logical-clock stamps instead of wall time",
    )
    p.add_argument("--limit", type=int, default=0, help="show only the last N records")
    p.add_argument(
        "--chrome", metavar="PATH",
        help="write the selection as a Chrome trace instead of text",
    )
    p.add_argument(
        "--dump", metavar="PATH",
        help="save the (unfiltered) harvest as a JSON dump and exit",
    )
    p.set_defaults(fn=_cmd_log, usage_error=p.error)

    p = sub.add_parser("hops", help="per-hop cost table from a journal dump")
    p.add_argument("dump", help="journal dump file (as `log --dump` writes)")
    p.add_argument("--naplet", help="restrict to one naplet id")
    p.set_defaults(fn=_cmd_hops, usage_error=p.error)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head(1)
        sys.exit(0)
