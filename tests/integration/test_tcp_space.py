"""A naplet space over real TCP sockets: the protocol works off-stack."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import SigningAuthority
from repro.itinerary import Itinerary, ParPattern, ResultReport, SeqPattern
from repro.server import NapletServer, ServerConfig
from repro.transport.base import FrameKind, urn_of
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until
from tests.conftest import CollectorNaplet


@pytest.fixture
def tcp_space():
    transport = TcpTransport()
    authority = SigningAuthority()
    registry = CodeBaseRegistry()
    servers = {
        name: NapletServer(
            hostname=name,
            transport=transport,
            authority=authority,
            code_registry=registry,
            config=ServerConfig(),
        )
        for name in ("t00", "t01", "t02")
    }
    yield servers
    for server in servers.values():
        server.shutdown()
    transport.close()


class TestTcpSpace:
    def test_seq_tour_over_sockets(self, tcp_space):
        listener = repro.NapletListener()
        agent = CollectorNaplet("tcp-tour")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["t01", "t02"], post_action=ResultReport("visited"))
            )
        )
        tcp_space["t00"].launch(agent, owner="alice", listener=listener)
        report = listener.next_report(timeout=20)
        assert report.payload == ["t01", "t02"]

    def test_par_broadcast_over_sockets(self, tcp_space):
        listener = repro.NapletListener()
        agent = CollectorNaplet("tcp-bcast")
        agent.set_itinerary(
            Itinerary(
                ParPattern.of_servers(["t01", "t02"], per_branch_action=ResultReport("visited"))
            )
        )
        tcp_space["t00"].launch(agent, owner="alice", listener=listener)
        reports = listener.reports(2, timeout=20)
        assert sorted(r.payload[0] for r in reports) == ["t01", "t02"]

    def test_messaging_over_sockets(self, tcp_space):
        from repro.util.concurrency import wait_until
        from tests.conftest import EchoNaplet

        listener = repro.NapletListener()
        agent = EchoNaplet("tcp-echo")
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(["t01"], post_action=ResultReport("echo")))
        )
        nid = tcp_space["t00"].launch(agent, owner="alice", listener=listener)
        assert wait_until(lambda: tcp_space["t01"].manager.is_resident(nid), timeout=10)
        receipt = tcp_space["t00"].messenger.post(None, nid, {"over": "tcp"})
        assert receipt.status == "delivered"
        assert listener.next_report(timeout=20).payload == {"over": "tcp"}

    def test_a_journey_harvested_over_the_wire_is_the_admin_journey(self, tcp_space):
        """One harvest protocol reconstructs a journey: a probe's rows,
        merged and stitched, give the span tree SpaceAdmin.journey builds."""
        from repro.health import harvest_via_probe, merged_journal
        from repro.server import SpaceAdmin
        from repro.telemetry import span_from_record, stitch
        from repro.util.concurrency import wait_until

        listener = repro.NapletListener()
        agent = CollectorNaplet("tcp-journey")
        agent.set_itinerary(
            Itinerary(
                SeqPattern.of_servers(["t01", "t02"], post_action=ResultReport("visited"))
            )
        )
        nid = tcp_space["t00"].launch(agent, owner="alice", listener=listener)
        assert listener.next_report(timeout=20).payload == ["t01", "t02"]
        admin = SpaceAdmin(tcp_space)
        assert admin.wait_space_idle()
        assert wait_until(lambda: len(admin.journey(nid).roots) == 1, timeout=10)
        local = admin.journey(nid)

        rows = harvest_via_probe(
            tcp_space["t00"], sorted(tcp_space), repro.NapletListener(), kinds=("journal",)
        )
        wire = stitch(
            span_from_record(record)
            for record in merged_journal(rows, journey=str(nid), category="span")
        )

        assert {s.span_id for s in wire.spans} == {s.span_id for s in local.spans}

        def hops(journey):
            return [(h.source, h.dest, h.bytes) for h in journey.critical_path().hops]

        assert len(hops(local)) == 2
        assert hops(wire) == hops(local)


ROUND = ["t01", "t02", "t01"]  # launched from t00, the HOME-mode authority


def _serve_registrations(tcp_space, serve):
    """Route the home server's directory registrations through
    ``serve(frame, handle)``; every other frame is handled as usual."""
    home = tcp_space["t00"]
    transport, handle = home.transport, home._handle_frame

    def handler(frame):
        if frame.kind == FrameKind.DIRECTORY_EVENT:
            return serve(frame, handle)
        return handle(frame)

    transport.unregister(home.urn)
    transport.register(home.urn, handler)
    transport.bind_event_log(home.urn, home.journal)
    return home.local_directory


def _tour_round(tcp_space, listener):
    agent = CollectorNaplet("round")
    agent.set_itinerary(Itinerary(SeqPattern.of_servers(ROUND, post_action=ResultReport("visited"))))
    return tcp_space["t00"].launch(agent, owner="alice", listener=listener)


def _where(directory, nid):
    record = directory.lookup(nid)
    return record and (record.server_urn, record.count)


class TestOneWayDirectory:
    """A landing registers with the directory one-way (DESIGN.md §6.2)."""

    def test_a_tour_reports_home_while_the_directory_is_held(self, tcp_space):
        release, held = threading.Event(), []

        def hold(frame, handle):
            held.append(frame)
            release.wait(timeout=30)
            return handle(frame)

        directory = _serve_registrations(tcp_space, hold)
        listener = repro.NapletListener()
        try:
            nid = _tour_round(tcp_space, listener)
            assert listener.next_report(timeout=10).payload == ROUND
            # Only the launch, booked at home on its ack, is registered yet.
            assert _where(directory, nid) == (urn_of("t01"), 1)
            assert wait_until(lambda: len(held) == 2, timeout=10)
        finally:
            release.set()
        assert wait_until(lambda: _where(directory, nid) == (urn_of("t01"), 3), timeout=10)

    def test_a_late_registration_does_not_move_the_directory_back(self, tcp_space):
        later_handled, order = threading.Event(), []

        def reorder(frame, handle):
            count = int(frame.payload.split()[1])
            if count == 2:  # the t02 landing waits until t01's later one is in
                later_handled.wait(timeout=10)
            handle(frame)
            order.append(count)
            if count == 3:
                later_handled.set()

        directory = _serve_registrations(tcp_space, reorder)
        listener = repro.NapletListener()
        nid = _tour_round(tcp_space, listener)
        assert listener.next_report(timeout=10).payload == ROUND
        assert wait_until(lambda: len(order) == 2, timeout=10)
        assert order == [3, 2]
        assert _where(directory, nid) == (urn_of("t01"), 3)
        assert tcp_space["t02"].locator.locate(nid, use_cache=False) == urn_of("t01")
