"""The one harvest: a per-server observation row, built in one place.

The paper's MAN application treats monitoring as *just another naplet*:
an agent tours the space and reads one management service on-site (§6).
The space observes itself the same way (DESIGN.md §6.9):
:meth:`HarvestService.harvest` — open service ``"harvest"``, the only
observation service a server registers — is the only code that assembles
a row; the one :class:`HarvestProbe` calls it at every stop and carries
the rows home over whatever transport the space runs on
(:func:`harvest_via_probe`), and ``SpaceAdmin.harvest`` calls it on its
in-process servers, so the two collection paths yield identical rows by
construction.  :func:`merged_journal` turns the rows' ``journal`` payloads
back into one causal timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.core.errors import NapletSecurityError, ServiceNotFoundError
from repro.core.naplet import Naplet
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.telemetry.exposition import metrics_to_dict
from repro.telemetry.journal import JournalRecord, merge_journals, select

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.listener import NapletListener
    from repro.server.server import NapletServer

__all__ = ["ALL", "HarvestService", "HarvestProbe", "harvest_via_probe", "merged_journal"]

# The payload kinds a row can carry, each under the key of its name.
ALL = ("metrics", "health", "load", "journal")


def _flag(enabled: bool) -> str:
    return "enabled" if enabled else "disabled"


class HarvestService:
    """Open-service handler exposing one server's observation planes.

    Registered under ``"harvest"`` on every server; a visiting naplet
    obtains it with ``context.open_service("harvest")`` (policy-checked
    and journaled like any open service).
    """

    SERVICE_NAME = "harvest"

    def __init__(self, server: "NapletServer") -> None:
        self._server = server

    def harvest(self, kinds: Iterable[str] = ALL, **filters: Any) -> dict[str, Any]:
        """This server's row: ``server``, ``status``, then one
        JSON-serialisable payload per kind, under the kind's name.

        *filters* are :func:`~repro.telemetry.journal.select` criteria
        applied here, on-site, to the ``journal`` payload, so only the
        records asked for travel.  Every plane answers even when it is
        off — with an empty-but-valid payload — and ``status`` says why,
        so a dark server reads *disabled*, never idle.
        """
        kinds = tuple(kinds)
        unknown = set(kinds) - set(ALL)
        if unknown:
            raise ValueError(f"unknown harvest kind(s): {sorted(unknown)}")
        server = self._server
        journal = server.journal
        row: dict[str, Any] = {
            "server": server.hostname,
            "status": {
                "telemetry": _flag(server.telemetry.enabled),
                "health": _flag(server.health.enabled),
                "journal": _flag(journal.enabled),
                "journal_depth": journal.depth,
                "journal_dropped": journal.dropped,
            },
        }
        if "metrics" in kinds:
            # The wire bytes live on the transport's registry, not the
            # server's, so they ride beside the families, not among them.
            egress, ingress = server.transport.endpoint_bytes(server.hostname)
            row["metrics"] = {
                "families": metrics_to_dict(server.telemetry.registry.snapshot()),
                "egress_bytes": egress,
                "ingress_bytes": ingress,
            }
        if "health" in kinds:
            row["health"] = server.health.describe()
        if "load" in kinds:
            row["load"] = server.health.describe_load()
        if "journal" in kinds:
            row["journal"] = [r.describe() for r in journal.records(**filters)]
        return row


class HarvestProbe(Naplet):
    """Visits each server on its itinerary and harvests it on-site.

    A server with no harvest service, or whose policy denies the probe
    ``Permission.service("harvest")``, becomes a ``{"server", "error"}``
    row; anything else a handler raises is a defect and fails the probe
    rather than being reported as an unreachable host.
    """

    def __init__(
        self,
        name: str = "harvest-probe",
        kinds: Iterable[str] = ALL,
        filters: dict[str, Any] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        self.kinds = tuple(kinds)
        self.filters = dict(filters or {})

    def on_start(self) -> None:
        context = self.require_context()
        try:
            service = context.open_service(HarvestService.SERVICE_NAME)
        except (ServiceNotFoundError, NapletSecurityError) as exc:
            row: dict[str, Any] = {"server": context.hostname, "error": str(exc)}
        else:
            row = service.harvest(self.kinds, **self.filters)
        self.state.set("rows", (self.state.get("rows") or []) + [row])
        self.travel()


def harvest_via_probe(
    home: "NapletServer",
    hostnames: list[str],
    listener: "NapletListener",
    kinds: Iterable[str] = ALL,
    owner: str = "naplet",
    timeout: float = 30.0,
    **filters: Any,
) -> list[dict[str, Any]]:
    """Tour *hostnames* with a probe launched from *home*; return the rows."""
    probe = HarvestProbe(kinds=kinds, filters=filters)
    probe.set_itinerary(
        Itinerary(SeqPattern.of_servers(hostnames, post_action=ResultReport("rows")))
    )
    home.launch(probe, owner=owner, listener=listener)
    return list(listener.next_report(timeout=timeout).payload or [])


def merged_journal(rows: Iterable[dict[str, Any]], **criteria: Any) -> list[JournalRecord]:
    """The rows' ``journal`` payloads as one causally ordered timeline,
    narrowed by any :func:`~repro.telemetry.journal.select` *criteria*.

    A ``journey`` (a trace id or a naplet id) can only be resolved here,
    over the merged timeline: no single ring can tie a naplet id to every
    record of its trace.
    """
    timeline = merge_journals(
        [JournalRecord.from_dict(data) for data in row.get("journal") or []]
        for row in rows
    )
    return select(timeline, **criteria)
