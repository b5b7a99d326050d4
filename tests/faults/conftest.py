"""Fixtures for the chaos suite: one space factory over both transports.

Every test in ``tests/faults`` runs twice — once on the synchronous
:class:`InMemoryTransport` (via :class:`VirtualNetwork`'s ``fault_plan``)
and once on the pooled :class:`TcpTransport` with the plan set as its
``fault_plan`` — so the resilience machinery is proven against both the
simulated and the real wire.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.faults import FaultPlan, RetryPolicy
from repro.server import NapletServer, ServerConfig, deploy
from repro.simnet import VirtualNetwork, full_mesh
from repro.transport.tcp import TcpTransport

CHAOS_HOSTS = ("c00", "c01", "c02", "c03")


def resilient_config() -> ServerConfig:
    """A config whose retry budgets outlast every fault the suite injects."""
    return ServerConfig(
        migration_retry=RetryPolicy(
            max_attempts=5, base_delay=0.005, multiplier=1.5, max_delay=0.05, jitter=0.0
        ),
        message_retry=RetryPolicy(
            max_attempts=4, base_delay=0.005, multiplier=1.5, max_delay=0.05, jitter=0.0
        ),
    )


# Spaces alive during the current chaos test, so a failure can harvest
# their flight-recorder journals (see pytest_runtest_makereport below).
_LIVE_SPACES: list[dict] = []


def _spaces_in(funcargs) -> list[dict]:
    """Duck-typed scan of a test's fixtures for server dicts."""
    found = []
    for value in funcargs.values():
        parts = value if isinstance(value, tuple) else (value,)
        for part in parts:
            if (
                isinstance(part, dict)
                and part
                and all(hasattr(s, "journal") for s in part.values())
            ):
                found.append(part)
    return found


def _dump_chaos_artifacts(nodeid: str, spaces, directory: str) -> list[str]:
    """Harvest every live space's journal into *directory*; return paths.

    Written by the failure hook so a CI run that trips a chaos test
    uploads the space's black box: the causally merged journal as JSON
    plus its Chrome-trace rendering.
    """
    from repro.server import SpaceAdmin
    from repro.telemetry import chrome_trace, dump_records

    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", nodeid).strip("_")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    seen: set[int] = set()
    for index, servers in enumerate(spaces):
        if id(servers) in seen:
            continue
        seen.add(id(servers))
        records = SpaceAdmin(servers).harvest_journal()
        journal_path = out / f"{stem}.space{index}.journal.json"
        dump_records(str(journal_path), records)
        trace_path = out / f"{stem}.space{index}.trace.json"
        trace_path.write_text(
            json.dumps(chrome_trace(records)), encoding="utf-8"
        )
        written.extend([str(journal_path), str(trace_path)])
    return written


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    directory = os.environ.get("NAPLET_CHAOS_ARTIFACTS")
    if not directory or report.when != "call" or not report.failed:
        return
    try:  # best effort: never mask the real failure
        spaces = _spaces_in(item.funcargs) + list(_LIVE_SPACES)
        written = _dump_chaos_artifacts(item.nodeid, spaces, directory)
        if written:
            report.sections.append(
                ("chaos artifacts", "\n".join(written))
            )
    except Exception:  # noqa: BLE001 - diagnostics must not fail the run
        pass


@pytest.fixture(params=["inmemory", "tcp"])
def chaos_space(request):
    """Factory: ``(plan, config) -> (servers, transport)``.

    The returned transport, shared by every server, carries out *plan*;
    ``plan.heal()`` clears it and (through the on_heal hook) requeues dead
    letters space-wide on both transports.
    """
    cleanups = []

    def _build(plan: FaultPlan, config: ServerConfig | None = None):
        config = config or resilient_config()
        if request.param == "inmemory":
            network = VirtualNetwork(
                full_mesh(len(CHAOS_HOSTS), prefix="c"), fault_plan=plan
            )
            servers = deploy(network, config=config)
            cleanups.append(network.shutdown)
            _LIVE_SPACES.append(servers)
            return servers, network.transport
        transport = TcpTransport()
        transport.fault_plan = plan
        authority = SigningAuthority()
        registry = CodeBaseRegistry()
        servers = {
            name: NapletServer(
                hostname=name,
                transport=transport,
                authority=authority,
                code_registry=registry,
                config=config,
            )
            for name in CHAOS_HOSTS
        }
        # Same requeue-on-heal contract VirtualNetwork wires up.
        plan.on_heal(
            lambda: [s.messenger.requeue_dead_letters() for s in servers.values()]
        )

        def _shutdown():
            for server in servers.values():
                server.shutdown()
            transport.close()

        cleanups.append(_shutdown)
        _LIVE_SPACES.append(servers)
        return servers, transport

    yield _build
    _LIVE_SPACES.clear()
    for cleanup in reversed(cleanups):
        cleanup()
