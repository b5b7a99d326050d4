"""One fault table, one meaning: every fault action, on ``send`` and on
``request``, does the same thing in memory and over TCP.

Each row names what the call does (raises or not), how many times the
destination's handler ran, and therefore how many frames the sender's
ledger booked; every row fires exactly one fault, counted once and
journaled once, at the frame's source.
"""

from __future__ import annotations

import pytest

from repro.core.errors import NapletCommunicationError
from repro.faults import FaultPlan, FaultRule
from repro.simnet import VirtualNetwork, line
from repro.telemetry.journal import SpaceJournal
from repro.transport.base import Frame, FrameKind, urn_of
from repro.transport.tcp import TcpTransport
from repro.transport.traffic import REPLY
from repro.util.concurrency import wait_until

SRC, DST = urn_of("h00"), urn_of("h01")
KIND = FrameKind.LOAD

# action -> (how to add it to a plan, (send raises, handler runs), (request raises, handler runs))
ACTIONS = {
    "drop": (lambda p: p.drop(times=1), (False, 0), (True, 0)),
    "partition": (lambda p: p.partition("h01"), (False, 0), (True, 0)),
    "refuse_dial": (lambda p: p.refuse_dial(times=1), (True, 0), (True, 0)),
    "crash-before": (
        lambda p: p.rule(FaultRule("crash", when="before", times=1)), (False, 0), (True, 0)
    ),
    "crash-after": (
        lambda p: p.rule(FaultRule("crash", when="after", times=1)), (True, 1), (True, 1)
    ),
    "delay": (lambda p: p.delay(0.02, times=1), (False, 1), (False, 1)),
    "duplicate": (lambda p: p.duplicate(times=1), (False, 2), (False, 2)),
    "corrupt": (lambda p: p.corrupt(times=1), (False, 1), (False, 1)),
}


@pytest.fixture(params=["inmemory", "tcp"])
def wire(request):
    """``(transport, plan, calls, journals)``: h01 answers every frame of
    KIND, and the plan is the transport's own."""
    plan = FaultPlan()
    if request.param == "inmemory":
        transport = VirtualNetwork(line(2, prefix="h"), fault_plan=plan).transport
    else:
        transport = TcpTransport()
        transport.fault_plan = plan
    calls: list[Frame] = []

    def handler(frame: Frame) -> bytes:
        if frame.kind == KIND:
            calls.append(frame)
        return b"ok"

    transport.register(SRC, lambda frame: b"ok")
    transport.register(DST, handler)
    journals = {urn: SpaceJournal(urn) for urn in (SRC, DST)}
    for urn, journal in journals.items():
        transport.bind_event_log(urn, journal)
    yield transport, plan, calls, journals
    transport.close()


def _settle(transport, plan: FaultPlan, calls: list, ran: int) -> None:
    """Wait out a one-way frame still in a serving thread, then make sure
    no further copy arrives behind a clean exchange on the same link."""
    assert wait_until(lambda: len(calls) >= ran, timeout=5)
    plan.heal()
    transport.request(Frame(FrameKind.PING, SRC, DST))
    assert len(calls) == ran


@pytest.mark.parametrize("op", ["send", "request"])
@pytest.mark.parametrize("action", list(ACTIONS))
def test_a_fault_means_the_same_on_both_transports(wire, action, op):
    transport, plan, calls, journals = wire
    build, on_send, on_request = ACTIONS[action]
    raises, ran = on_send if op == "send" else on_request
    build(plan)
    frame = Frame(KIND, SRC, DST, b"digest-bytes", {"hlc": "1"})
    call = getattr(transport, op)
    if raises:
        with pytest.raises(NapletCommunicationError, match="injected"):
            call(frame)
    else:
        call(frame)
    _settle(transport, plan, calls, ran)

    assert transport.meter.kind_stats(KIND).frames == ran
    assert transport.meter.kind_stats(KIND + REPLY).frames == (ran if op == "request" else 0)
    assert transport.metrics.snapshot().total("fault_injected_total") == 1.0
    (record,) = journals[SRC].records(category="fault")
    assert record.kind == "fault-injected"
    assert record.detail["source"] == SRC and record.detail["dest"] == DST
    assert journals[DST].records(category="fault") == []


def test_a_failed_one_way_handler_is_a_dropped_connection_not_the_senders_error(wire):
    """A one-way frame went out: it is booked, and its failed handler is
    counted and journaled as a dropped connection at the destination."""
    transport = wire[0]
    broken, journal = urn_of("h02"), SpaceJournal("h02")
    transport.register(broken, lambda f: {}["missing"])
    transport.bind_event_log(broken, journal)
    transport.send(Frame(KIND, SRC, broken, b"digest-bytes"))
    assert transport.meter.kind_stats(KIND).frames == 1

    def dropped() -> float:
        return transport.metrics.snapshot().total("wire_dropped_connections_total")

    assert wait_until(lambda: dropped() == 1.0, timeout=5)
    (record,) = journal.find("transport-connection-dropped")
    assert "KeyError" in record.detail["error"]
