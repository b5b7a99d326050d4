"""Shared fixtures and helper agents for the test suite.

Agents used across tests live here (module-level, importable) so pickle can
ship them by reference during in-process migrations.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import Iterator

import pytest

import repro
from repro.server import ServerConfig, deploy
from repro.simnet import VirtualNetwork, full_mesh, line, ring, star


class CollectorNaplet(repro.Naplet):
    """Appends each visited hostname to state['visited'] and travels on."""

    def on_start(self) -> None:
        context = self.require_context()
        visited = (self.state.get("visited") or []) + [context.hostname]
        self.state.set("visited", visited)
        self.travel()


class StallNaplet(repro.Naplet):
    """Spins at its first server until told otherwise (for control tests).

    Checkpoints frequently so interrupts/quotas take effect; records the
    controls it received in state['controls'].
    """

    def __init__(self, name: str, spin_seconds: float = 30.0, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.spin_seconds = spin_seconds

    def on_interrupt(self, control: str, payload=None) -> None:
        controls = (self.state.get("controls") or []) + [control]
        self.state.set("controls", controls)

    def on_start(self) -> None:
        import time

        deadline = time.monotonic() + self.spin_seconds
        while time.monotonic() < deadline:
            self.checkpoint()
            time.sleep(0.005)
        self.travel()


class FailingNaplet(repro.Naplet):
    """Raises inside on_start (exercises the monitor's exception traps)."""

    def on_start(self) -> None:
        raise RuntimeError("intentional agent failure")


class EchoNaplet(repro.Naplet):
    """Waits for one message at its first stop, stores it, travels on.

    Subsequent stops don't wait again (the echo is already in state).
    """

    def on_start(self) -> None:
        context = self.require_context()
        if "echo" not in self.state:
            message = context.messenger.get_message(timeout=10.0)
            self.state.set("echo", message.body)
        self.travel()


def synthetic_timeline():
    """Five journal records over two servers: n1's journey (its clone's
    span shares trace t1) and one unrelated dead letter."""
    from repro.telemetry.journal import SpaceJournal

    journal = SpaceJournal("s00", time_source=lambda: 100.0)
    journal.append(kind="naplet-launch", naplet="n1", detail={"owner": "alice"})
    journal.append(kind="naplet-depart", naplet="n1", detail={"dest": "naplet://s01"})
    journal.append(kind="message-dead-lettered", category="deadletter", naplet="n2")
    other = SpaceJournal("s01", time_source=lambda: 200.0)
    other.append(kind="naplet-arrive", naplet="n1", trace_id="t1")
    other.append(kind="hop", category="span", naplet="n1.1", trace_id="t1")
    return journal.snapshot() + other.snapshot()


@pytest.fixture
def space():
    """Factory fixture: build (network, servers) spaces; auto-shutdown.

    Usage::

        net, servers = space(line(3, prefix="s"))
    """
    built: list[VirtualNetwork] = []

    def _build(graph_or_net, config: ServerConfig | None = None, **deploy_kwargs):
        if isinstance(graph_or_net, VirtualNetwork):
            network = graph_or_net
        else:
            network = VirtualNetwork(graph_or_net)
        servers = deploy(network, config=config, **deploy_kwargs)
        built.append(network)
        return network, servers

    yield _build
    for network in built:
        network.shutdown()


def load_tool(name: str):
    """``tools/<name>.py`` as a module (``tools/`` is not a package, so it
    is loaded by file path; registered so its naplet classes pickle)."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def naplet_cli():
    """``tools/naplet.py``, for driving ``main([...])`` and its renderers."""
    return load_tool("naplet")


@pytest.fixture
def small_line(space):
    """A ready 4-host line: (network, servers) with hosts s00..s03."""
    return space(line(4, prefix="s"))


@pytest.fixture
def small_star(space):
    """A ready star: station + 4 devices."""
    return space(star(4))


__all__ = [
    "CollectorNaplet",
    "StallNaplet",
    "FailingNaplet",
    "EchoNaplet",
    "line",
    "ring",
    "star",
    "full_mesh",
]
