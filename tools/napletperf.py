#!/usr/bin/env python
"""napletperf: run and diff naplet benchmarks.

The bench CLI of the perf plane (DESIGN.md §6.6).  Two jobs:

- ``run`` — execute a registered bench suite (pytest-benchmark tests under
  ``benchmarks/``); each suite writes its ``BENCH_*.json`` snapshot in
  schema v2 (git SHA, timestamp, machine fingerprint) and can append to a
  history directory for trend lines;
- ``diff`` — compare two snapshots with a tolerance and exit non-zero on
  regression (the CI bench-smoke gate).  ``--structural`` restricts the
  comparison to timing-independent metrics (frame counts, connections,
  bytes), which is what CI gates on: wall-clock varies across machines,
  protocol structure must not.

The per-hop cost table over a journal dump is ``tools/naplet.py hops``.

Examples:

    python tools/napletperf.py list
    python tools/napletperf.py run transport --history bench_history
    python tools/napletperf.py diff BENCH_transport.json new.json --structural
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf import diff_bench, load_bench  # noqa: E402  (sys.path fixed above)

# Registered bench suites: name -> (pytest target, snapshot it writes).
# ``fast`` is the subset CI's bench-smoke job runs.
SUITES: dict[str, dict[str, str]] = {
    "transport": {
        "target": "benchmarks/test_bench_transport_fastpath.py",
        "snapshot": "BENCH_transport.json",
        "tier": "fast",
    },
    "telemetry": {
        "target": "benchmarks/test_bench_telemetry_overhead.py",
        "snapshot": "",
        "tier": "slow",
    },
    "loadaware": {
        "target": "benchmarks/test_bench_loadaware.py",
        "snapshot": "BENCH_loadaware.json",
        "tier": "fast",
    },
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'suite':<12} {'tier':<6} {'snapshot':<24} target")
    for name, suite in SUITES.items():
        print(
            f"{name:<12} {suite['tier']:<6} "
            f"{suite['snapshot'] or '(none)':<24} {suite['target']}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.suites or [
        name for name, s in SUITES.items() if args.all or s["tier"] == "fast"
    ]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if args.history:
        env["NAPLET_BENCH_HISTORY"] = str(Path(args.history).resolve())
    status = 0
    for name in names:
        suite = SUITES[name]
        print(f"== running suite {name!r}: {suite['target']}")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", suite["target"], "-q", "--no-header"],
            cwd=REPO_ROOT,
            env=env,
        )
        if proc.returncode != 0:
            status = proc.returncode
        elif suite["snapshot"]:
            print(f"   snapshot: {suite['snapshot']}")
    return status


def _cmd_diff(args: argparse.Namespace) -> int:
    old = load_bench(args.old)
    new = load_bench(args.new)
    for label, snap in (("old", old), ("new", new)):
        sha = snap.get("git_sha") or "?"
        print(
            f"  {label}: {snap.get('experiment', '?')} "
            f"@ {snap.get('timestamp') or '?'} ({str(sha)[:10]})"
        )
    old_machine, new_machine = old.get("machine"), new.get("machine")
    if old_machine and new_machine and old_machine != new_machine:
        print("  note: snapshots come from different machines; timing deltas")
        print("        may be hardware, not code (consider --structural)")
    diff = diff_bench(
        old, new, tolerance=args.tolerance, structural_only=args.structural
    )
    if args.json:
        print(
            json.dumps(
                {
                    "tolerance": diff.tolerance,
                    "ok": diff.ok,
                    "entries": [vars(e) for e in diff.entries],
                },
                indent=2,
                default=str,
            )
        )
    else:
        print(diff.render())
    return 0 if diff.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run and diff naplet benchmarks."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered bench suites")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run bench suites (default: the fast tier)")
    p_run.add_argument("suites", nargs="*", help="suite names (default: fast tier)")
    p_run.add_argument("--all", action="store_true", help="run every suite")
    p_run.add_argument(
        "--history", metavar="DIR",
        help="append snapshots into this history directory",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_diff = sub.add_parser(
        "diff", help="compare two BENCH_*.json snapshots; exit 1 on regression"
    )
    p_diff.add_argument("old", help="baseline snapshot")
    p_diff.add_argument("new", help="candidate snapshot")
    p_diff.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional change before a metric regresses (default 0.2)",
    )
    p_diff.add_argument(
        "--structural", action="store_true",
        help="compare only timing-independent metrics (CI-stable)",
    )
    p_diff.add_argument("--json", action="store_true", help="machine-readable output")
    p_diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head(1)
        sys.exit(0)
