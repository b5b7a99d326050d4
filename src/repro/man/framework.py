"""MAN framework assembly (paper §6, Fig. 3).

Wires the full mobile-agent network-management stack over a virtual
network: per-device ManagedDevice + SnmpAgent (plus an SnmpEndpoint so the
conventional station can poll it remotely), a NapletServer on every device
with the NetManagement privileged service installed, and a management
station host acting as the Mobile Agent Producer (MAP) and CNMP poller.

The framework is the measurement harness for experiments E3/E4: both
approaches run over the *same* transport and are counted by its one frame
ledger (``network.transport.meter``), so per-link byte counts and
wall/virtual times are directly comparable.
"""

from __future__ import annotations

import dataclasses
import queue
from typing import Any, Sequence

from repro.core.errors import NapletError
from repro.core.listener import NapletListener
from repro.itinerary.itinerary import Itinerary
from repro.man.naplet import NMItinerary, NMNaplet, SeqNMItinerary
from repro.man.service import SERVICE_NAME, net_management_factory
from repro.server.server import NapletServer, ServerConfig
from repro.simnet.network import VirtualNetwork
from repro.simnet.topology import star
from repro.snmp.agent import SnmpAgent, SnmpEndpoint
from repro.snmp.device import DeviceProfile, ManagedDevice
from repro.snmp.mib import WELL_KNOWN_NAMES
from repro.snmp.station import ManagementStation

__all__ = ["ManFramework", "DEFAULT_PARAMETERS"]

DEFAULT_PARAMETERS = ("sysName", "sysUpTime", "ipInReceives", "tcpCurrEstab", "cpuLoad")


class ManFramework:
    """One ready-to-measure MAN deployment."""

    def __init__(
        self,
        n_devices: int,
        latency: float = 0.0,
        bandwidth: float = 0.0,
        station: str = "station",
        config: ServerConfig | None = None,
        sleep_scale: float = 0.0,
        device_seed: int = 42,
    ) -> None:
        self.station_host = station
        self.network = VirtualNetwork(
            star(n_devices, center=station, latency=latency, bandwidth=bandwidth),
            sleep_scale=sleep_scale,
        )
        self.device_hosts: list[str] = sorted(
            h for h in self.network.hostnames() if h != station
        )
        base_config = config or ServerConfig()

        self.devices: dict[str, ManagedDevice] = {}
        self.agents: dict[str, SnmpAgent] = {}
        self.endpoints: dict[str, SnmpEndpoint] = {}
        self.servers: dict[str, NapletServer] = {}

        for index, hostname in enumerate(self.device_hosts):
            device = ManagedDevice(
                DeviceProfile(hostname=hostname), seed=device_seed + index
            )
            agent = SnmpAgent(device)
            self.devices[hostname] = device
            self.agents[hostname] = agent
            self.endpoints[hostname] = SnmpEndpoint(
                agent, self.network.transport, hostname
            )
            server = NapletServer.attach(
                self.network.host(hostname), dataclasses.replace(base_config)
            )
            server.register_privileged_service(
                SERVICE_NAME, net_management_factory(agent)
            )
            self.servers[hostname] = server

        self.station_server = NapletServer.attach(
            self.network.host(station), dataclasses.replace(base_config)
        )
        self.servers[station] = self.station_server
        self.station = ManagementStation(self.network.transport, hostname=station)

    # ------------------------------------------------------------------ #
    # Mobile-agent collection
    # ------------------------------------------------------------------ #

    def _itinerary(self, mode: str) -> Itinerary:
        if mode == "par":
            return NMItinerary(self.device_hosts)
        if mode == "seq":
            return SeqNMItinerary(self.device_hosts)
        raise NapletError(f"unknown MAN itinerary mode: {mode!r} (use 'par' or 'seq')")

    def collect_with_naplets(
        self,
        parameters: Sequence[str] = DEFAULT_PARAMETERS,
        mode: str = "par",
        owner: str = "nm",
        timeout: float = 30.0,
    ) -> dict[str, dict[str, Any]]:
        """Dispatch NMNaplet(s) and assemble the device-status table.

        ``mode='par'`` spawns one child per device (paper's broadcast);
        ``mode='seq'`` sends a single tour agent.  Returns
        ``{device: {parameter: value}}``.
        """
        listener = NapletListener()
        agent = NMNaplet(
            name=f"nm-{mode}",
            servers=self.device_hosts,
            parameters=list(parameters),
            itinerary=self._itinerary(mode),
        )
        self.station_server.launch(agent, owner=owner, listener=listener)
        expected_reports = len(self.device_hosts) if mode == "par" else 1
        table: dict[str, dict[str, Any]] = {}
        try:
            for envelope in listener.reports(expected_reports, timeout=timeout):
                table.update(envelope.payload)
        except queue.Empty:
            raise NapletError(
                f"MAN collection incomplete: got {len(table)}/{len(self.device_hosts)} devices"
            ) from None
        return table

    # ------------------------------------------------------------------ #
    # Conventional (CNMP) collection
    # ------------------------------------------------------------------ #

    def collect_with_station(
        self,
        parameters: Sequence[str] = DEFAULT_PARAMETERS,
        batch: bool = False,
    ) -> dict[str, dict[str, Any]]:
        """Centralized polling baseline; same output shape as the naplets."""
        oids = [WELL_KNOWN_NAMES[p] if p in WELL_KNOWN_NAMES else p for p in parameters]
        raw = self.station.poll_all(self.device_hosts, oids, batch=batch)
        table: dict[str, dict[str, Any]] = {}
        reverse = {v: k for k, v in WELL_KNOWN_NAMES.items()}
        for host, values in raw.items():
            table[host] = {reverse.get(oid, oid): value for oid, value in values.items()}
        return table

    # ------------------------------------------------------------------ #
    # Measurement helpers
    # ------------------------------------------------------------------ #

    def station_link_bytes(self) -> int:
        """Bytes that crossed the management station's links (both ways)."""
        return self.network.transport.meter.host_total(self.station_host)

    def total_bytes(self) -> int:
        return self.network.transport.meter.total_bytes

    def virtual_seconds(self) -> float:
        return self.network.clock.virtual_time

    def reset_measurement(self) -> None:
        self.network.transport.meter.reset()
        self.network.clock.reset()

    def wait_idle(self, timeout: float = 10.0) -> None:
        for server in self.servers.values():
            server.wait_idle(timeout)

    def shutdown(self) -> None:
        for endpoint in self.endpoints.values():
            endpoint.close()
        self.network.shutdown()
