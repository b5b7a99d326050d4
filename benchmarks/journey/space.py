"""The measured system: four in-process servers over loopback TCP.

Default ``ServerConfig()`` on purpose — fast path, delta shipping, HOME
directory and every observation plane on is what a user gets.
"""

from __future__ import annotations

from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.core.listener import ListenerRef, NapletListener
from repro.server import NapletServer, ServerConfig
from repro.transport.tcp import TcpTransport

__all__ = ["HOSTS", "HOME", "PEERS", "Space"]

HOSTS = ("s00", "s01", "s02", "s03")
HOME = HOSTS[0]
PEERS = HOSTS[1:]
LISTENER_KEY = "journey-bench"


class Space:
    """Servers, their shared transport, and the client's one home listener."""

    def __init__(self) -> None:
        self.transport = TcpTransport(pooled=True)
        authority = SigningAuthority()
        registry = CodeBaseRegistry()
        self.servers = {
            host: NapletServer(
                hostname=host,
                transport=self.transport,
                authority=authority,
                code_registry=registry,
                config=ServerConfig(),
            )
            for host in HOSTS
        }
        self.home = self.servers[HOME]
        self.listener = NapletListener()
        self.home.manager.register_listener(self.listener, key=LISTENER_KEY)
        self.listener_ref = ListenerRef(home_urn=self.home.urn, listener_key=LISTENER_KEY)

    def wire_bytes(self) -> float:
        return self.transport.metrics.snapshot().total("wire_bytes_total")

    def wire_frames(self) -> float:
        return self.transport.metrics.snapshot().total("wire_frames_total")

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """True once no naplet thread runs anywhere in the space."""
        return all(server.wait_idle(timeout) for server in self.servers.values())

    def resident_count(self) -> int:
        return sum(server.manager.resident_count for server in self.servers.values())

    def close(self) -> None:
        for server in self.servers.values():
            server.shutdown()
        self.transport.close()
