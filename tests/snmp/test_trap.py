"""SNMP traps: senders, sinks, MIB side effects."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.snmp.device import DeviceProfile, ManagedDevice
from repro.snmp.oid import OID
from repro.snmp.trap import TrapSender, TrapSink, TrapType, trap_sink_urn
from repro.transport.inmemory import InMemoryTransport


@pytest.fixture
def wired():
    transport = InMemoryTransport()
    sink = TrapSink(transport, "station")
    device = ManagedDevice(DeviceProfile(hostname="dev01", n_interfaces=3), seed=4)
    sender = TrapSender(device, transport, sink.urn)
    return transport, sink, device, sender


class TestDelivery:
    def test_cold_start_reaches_sink(self, wired):
        _transport, sink, _device, sender = wired
        sender.cold_start()
        trap = sink.next_trap(timeout=2)
        assert trap.trap_type == TrapType.COLD_START
        assert trap.source == "dev01"
        assert sink.received == 1
        assert sender.sent == 1

    def test_traps_are_metered(self, wired):
        transport, sink, _device, sender = wired
        sender.cold_start()
        sink.next_trap(timeout=2)
        assert transport.meter.kind_stats("snmp-trap").frames == 1

    def test_try_next_nonblocking(self, wired):
        _transport, sink, _device, sender = wired
        assert sink.try_next() is None
        sender.cold_start()
        assert sink.try_next() is not None

    def test_callback_invoked(self):
        transport = InMemoryTransport()
        seen = []
        sink = TrapSink(transport, "station", callback=lambda t: seen.append(t.source))
        device = ManagedDevice(DeviceProfile(hostname="dev09"), seed=1)
        TrapSender(device, transport, sink.urn).cold_start()
        assert seen == ["dev09"]

    def test_unreachable_sink_is_silent_loss(self, wired):
        transport, sink, _device, sender = wired
        transport.fault_plan = FaultPlan().refuse_dial(dst="station")
        sender.cold_start()  # no raise: traps are unacknowledged datagrams
        assert sender.sent == 0

    def test_sink_close_unregisters(self, wired):
        transport, sink, _device, _sender = wired
        sink.close()
        assert not transport.is_registered(trap_sink_urn("station"))


class TestOperationalEvents:
    def test_link_down_mutates_mib_and_notifies(self, wired):
        _transport, sink, device, sender = wired
        sender.link_down(2)
        assert device.if_oper_status(1) == 2  # interface index 2 is row 1
        trap = sink.next_trap(timeout=2)
        assert trap.trap_type == TrapType.LINK_DOWN
        binding = trap.varbind("1.3.6.1.2.1.2.2.1.1.2")
        assert binding is not None and binding.value == 2

    def test_link_up_restores(self, wired):
        _transport, sink, device, sender = wired
        sender.link_down(1)
        sender.link_up(1)
        assert device.if_oper_status(0) == 1
        sink.next_trap(timeout=2)
        trap = sink.next_trap(timeout=2)
        assert trap.trap_type == TrapType.LINK_UP

    def test_cpu_high_carries_load(self, wired):
        _transport, sink, device, sender = wired
        sender.cpu_high()
        trap = sink.next_trap(timeout=2)
        assert trap.trap_type == TrapType.CPU_HIGH
        binding = trap.varbind(OID.parse("1.3.6.1.4.1.9999.1.1.0"))
        assert 0.0 <= binding.value <= 1.0

    def test_uptime_stamped(self, wired):
        _transport, sink, _device, sender = wired
        sender.cold_start()
        assert sink.next_trap(timeout=2).uptime_ticks >= 0
