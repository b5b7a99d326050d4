"""Typed health findings emitted by the per-server watchdog.

A :class:`HealthFinding` is the watchdog's unit of output: one condition,
on one subject (a naplet or the server itself), with a severity and enough
structured context (``data``) for an operator — or ``tools/naplet.py stat``
— to act on it without grepping logs.  Findings are *stateful*: the
:class:`~repro.health.plane.HealthPlane` keeps one live finding per
``(kind, subject)`` pair, refreshes ``last_seen`` while the condition
persists, escalates severity as it worsens, and retires the finding when
the condition clears.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Severity", "FindingKind", "HealthFinding"]


class Severity:
    """Ordered severity vocabulary for findings."""

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"

    _ORDER = {INFO: 0, WARNING: 1, CRITICAL: 2}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER.get(severity, -1)


class FindingKind:
    """Condition vocabulary the watchdog can report."""

    STUCK_NAPLET = "stuck_naplet"
    WEDGED_SERVER = "wedged_server"
    DEAD_LETTER_BACKLOG = "dead_letter_backlog"


@dataclass
class HealthFinding:
    """One detected health condition on one subject."""

    kind: str
    severity: str
    server: str
    subject: str  # naplet id, or the hostname for server-level findings
    detail: str
    first_seen: float = field(default_factory=time.time)
    last_seen: float = field(default_factory=time.time)
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.subject)

    def refresh(self, severity: str, detail: str, data: dict[str, Any]) -> None:
        """The condition persists: bump timestamps, never de-escalate."""
        self.last_seen = time.time()
        if Severity.rank(severity) > Severity.rank(self.severity):
            self.severity = severity
        self.detail = detail
        self.data = data

    def describe(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "server": self.server,
            "subject": self.subject,
            "detail": self.detail,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "data": dict(self.data),
        }

    def __str__(self) -> str:
        return f"[{self.severity}] {self.kind} {self.subject}@{self.server}: {self.detail}"
