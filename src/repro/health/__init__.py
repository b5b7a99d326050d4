"""Space health plane: resource profiles, watchdog findings, harvesting.

Extends the telemetry layer (DESIGN.md §6.1) with *continuous* platform
observability (§6.4):

- :mod:`repro.health.profile`  — per-naplet CPU/message/bandwidth time
  series sampled from the NapletMonitor's control blocks;
- :mod:`repro.health.findings` — typed, severity-ranked watchdog findings;
- :mod:`repro.health.plane`    — the per-server sampler + watchdog;
- :mod:`repro.health.harvest`  — the one ``"harvest"`` open service, the
  one row builder and the one itinerant probe (§6.9): the paper's MAN
  pattern applied to the platform;
- :mod:`repro.health.observatory` — heartbeat load digests, the merged
  per-server space view, and load-aware Alt/Par ordering (§6.8).
"""

from repro.health.findings import FindingKind, HealthFinding, Severity
from repro.health.harvest import (
    HarvestProbe,
    HarvestService,
    harvest_via_probe,
    merged_journal,
)
from repro.health.observatory import LoadDigest, LoadObservatory, SpaceView
from repro.health.plane import HealthPlane
from repro.health.profile import ProfileTable, ResourceProfile, ResourceSample

__all__ = [
    "FindingKind",
    "HealthFinding",
    "Severity",
    "HealthPlane",
    "HarvestProbe",
    "HarvestService",
    "harvest_via_probe",
    "merged_journal",
    "LoadDigest",
    "LoadObservatory",
    "SpaceView",
    "ProfileTable",
    "ResourceProfile",
    "ResourceSample",
]
