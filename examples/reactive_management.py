#!/usr/bin/env python
"""Management by exception: SNMP traps dispatch diagnosis naplets.

The station does *no* polling.  When a device's interface fails, its SNMP
agent emits a linkDown trap; the station's trap sink hands it to a
ReactiveDispatcher, which launches a DiagnosisNaplet to the reporting
device.  The naplet walks the interface table on-site and reports a digest
— the combination of asynchronous SNMP and mobile agents the paper's
network-management section motivates.

Run:  python examples/reactive_management.py
"""

from __future__ import annotations

import time

from repro.man import ManFramework, ReactiveDispatcher
from repro.snmp.trap import TrapSender


def main() -> None:
    framework = ManFramework(n_devices=5, latency=0.001)
    dispatcher = ReactiveDispatcher(framework.station_server)
    sink = dispatcher.sink_for(framework.network.transport, framework.station_host)
    senders = {
        hostname: TrapSender(
            framework.devices[hostname], framework.network.transport, sink.urn
        )
        for hostname in framework.device_hosts
    }

    print("station idle — no polling. Injecting faults...\n")
    failures = [("dev01", 2), ("dev03", 1)]
    for hostname, if_index in failures:
        print(f"  !! {hostname}: interface {if_index} went down (trap emitted)")
        senders[hostname].link_down(if_index)

    for _ in failures:
        report = dispatcher.listener.next_report(timeout=20)
        d = report.payload
        print(f"  -> diagnosis from {report.reporter}:")
        print(f"     device={d['device']} interfaces_down={d['interfaces_down']} "
              f"cpu={d['cpu_load']:.2f} uptime={d['uptime_ticks']} ticks")

    # recovery: the same machinery reports the all-clear
    print("\nrepair crews at work...")
    senders["dev01"].link_up(2)
    report = dispatcher.listener.next_report(timeout=20)
    print(f"  -> post-repair diagnosis: device={report.payload['device']} "
          f"interfaces_down={report.payload['interfaces_down']}")

    time.sleep(0.1)
    traps = framework.network.transport.meter.kind_stats("snmp-trap")
    print(f"\ntotals: {dispatcher.dispatch_count} agents dispatched, "
          f"{traps.frames} trap frames ({traps.bytes} bytes) — zero polling traffic")
    sink.close()
    framework.shutdown()


if __name__ == "__main__":
    main()
