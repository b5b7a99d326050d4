"""Per-hop cost tables from the flight recorder's ``hop`` spans.

The source navigator's ``hop`` span is a migration's cost record: it
carries the serialize time and the payload/header/code byte split of that
hop.  This module turns a timeline of
:class:`~repro.telemetry.journal.JournalRecord`\\ s — a live harvest, or a
dump read back with ``load_records`` — into the table
``tools/naplet.py hops`` renders.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.telemetry.journal import JournalRecord, select

__all__ = ["hop_cost_rows", "render_hop_costs"]


def hop_cost_rows(
    records: Iterable[JournalRecord], naplet: str | None = None
) -> list[dict[str, Any]]:
    """Extract hop-cost rows from journal *records*.

    Only ``hop`` spans of migrations that happened (status ``ok``)
    survive; with *naplet* set, only that naplet's hops.  Rows keep the
    records' order.
    """
    rows: list[dict[str, Any]] = []
    for record in select(records, kind="hop", category="span", naplet=naplet):
        detail = record.detail
        if detail.get("status") != "ok":
            continue
        hop = detail.get("attributes") or {}
        payload, header = int(hop.get("bytes", 0)), int(hop.get("header_bytes", 0))
        rows.append(
            {
                "naplet": record.naplet,
                "source": hop.get("source", record.server),
                "dest": hop.get("dest", "?"),
                "serialize_s": float(hop.get("serialize_s", 0.0)),
                "payload_bytes": payload,
                "header_bytes": header,
                "code_bytes": int(hop.get("code_bytes", 0)),
                "total_bytes": payload + header,
                "delta": bool(hop.get("delta", False)),
                "saved_bytes": int(hop.get("saved_bytes", 0)),
            }
        )
    return rows


def render_hop_costs(records: Iterable[JournalRecord], naplet: str | None = None) -> str:
    """Aligned per-hop cost table (one row per migration, plus totals)."""
    rows = hop_cost_rows(records, naplet=naplet)
    scope = f" for {naplet}" if naplet else ""
    if not rows:
        return (
            f"  no hop-cost records{scope} — journal disabled, "
            "or the naplet has not migrated yet"
        )
    lines = [
        f"  {len(rows)} hop(s){scope}",
        f"  {'route':<24} {'total-B':>9} {'payload':>9} {'header':>8} "
        f"{'code':>7} {'saved':>8} {'ser-ms':>8} {'image':<5}",
    ]
    totals = {
        "total_bytes": 0,
        "payload_bytes": 0,
        "header_bytes": 0,
        "code_bytes": 0,
        "saved_bytes": 0,
    }
    serialize = 0.0
    for row in rows:
        route = f"{row['source']} -> {row['dest']}"
        image = "delta" if row["delta"] else "full"
        lines.append(
            f"  {route:<24} {row['total_bytes']:>9} {row['payload_bytes']:>9} "
            f"{row['header_bytes']:>8} {row['code_bytes']:>7} "
            f"{row['saved_bytes']:>8} "
            f"{row['serialize_s'] * 1e3:>8.2f} "
            f"{image:<5}"
        )
        for key in totals:
            totals[key] += row[key]
        serialize += row["serialize_s"]
    lines.append(
        f"  {'(all hops)':<24} {totals['total_bytes']:>9} "
        f"{totals['payload_bytes']:>9} {totals['header_bytes']:>8} "
        f"{totals['code_bytes']:>7} {totals['saved_bytes']:>8} "
        f"{serialize * 1e3:>8.2f}"
    )
    return "\n".join(lines)
