"""Directory services: records, modes, and remote registration (paper §4.1)."""

from __future__ import annotations

import pytest

from repro.core.naplet_id import NapletID
from repro.server.directory import (
    DirectoryClient,
    DirectoryEvent,
    DirectoryMode,
    DirectoryRecord,
    NapletDirectory,
)
from repro.transport.base import Frame, FrameKind, urn_of
from repro.transport.inmemory import InMemoryTransport


def _nid(owner="a", home="homeserver") -> NapletID:
    return NapletID.create(owner, home, stamp="240101120000")


class TestNapletDirectory:
    def test_arrival_then_lookup(self):
        directory = NapletDirectory()
        nid = _nid()
        directory.register_arrival(nid, "naplet://s1")
        record = directory.lookup(nid)
        assert record.server_urn == "naplet://s1"
        assert record.event == DirectoryEvent.ARRIVAL
        assert not record.in_transit

    def test_departure_marks_in_transit(self):
        directory = NapletDirectory()
        nid = _nid()
        directory.register_arrival(nid, "naplet://s1")
        directory.register_departure(nid, "naplet://s1")
        assert directory.lookup(nid).in_transit

    def test_a_lower_count_never_moves_the_record_back(self):
        """One-way registrations may be handled out of order: the landing
        with the higher count wins, and a repeat changes nothing."""
        directory = NapletDirectory()
        nid = _nid()
        directory.register_arrival(nid, "naplet://s5", count=5)
        held = directory.register_arrival(nid, "naplet://s4", count=4)
        assert held == directory.lookup(nid)
        assert (held.server_urn, held.count) == ("naplet://s5", 5)
        assert directory.register_arrival(nid, "naplet://s5", count=5) == held
        assert directory.register_arrival(nid, "naplet://s6", count=6).server_urn == "naplet://s6"

    def test_unknown_lookup_none(self):
        assert NapletDirectory().lookup(_nid()) is None

    def test_drop(self):
        directory = NapletDirectory()
        nid = _nid()
        directory.register_arrival(nid, "naplet://s1")
        directory.drop(nid)
        assert directory.lookup(nid) is None
        assert len(directory) == 0


def _remote_directory_host(transport, hostname):
    """Register a host that serves directory frames from its own store."""
    directory = NapletDirectory()

    def handler(frame: Frame):
        if frame.kind == FrameKind.DIRECTORY_EVENT:
            return DirectoryClient.handle_event_frame(directory, frame)
        if frame.kind == FrameKind.DIRECTORY_QUERY:
            return DirectoryClient.handle_query_frame(directory, frame)
        raise AssertionError(frame.kind)

    transport.register(urn_of(hostname), handler)
    return directory


class TestCentralMode:
    def test_remote_registration_and_lookup(self):
        transport = InMemoryTransport()
        central = _remote_directory_host(transport, "dirhost")
        client = DirectoryClient(
            mode=DirectoryMode.CENTRAL,
            transport=transport,
            self_urn="naplet://edge",
            central_urn="naplet://dirhost",
        )
        nid = _nid()
        client.report_arrival(nid, "naplet://edge")
        assert central.lookup(nid).server_urn == "naplet://edge"
        record = client.lookup(nid)
        assert record.server_urn == "naplet://edge"

    def test_central_host_uses_local_store(self):
        transport = InMemoryTransport()
        local = NapletDirectory()
        client = DirectoryClient(
            mode=DirectoryMode.CENTRAL,
            transport=transport,
            self_urn="naplet://dirhost",
            central_urn="naplet://dirhost",
            local_directory=local,
        )
        nid = _nid()
        client.report_departure(nid, "naplet://dirhost")
        assert local.lookup(nid).in_transit
        assert client.lookup(nid).in_transit

    def test_central_mode_requires_urn(self):
        with pytest.raises(ValueError):
            DirectoryClient(
                mode=DirectoryMode.CENTRAL,
                transport=InMemoryTransport(),
                self_urn="naplet://x",
            )


class _Recorder(InMemoryTransport):
    """Keeps every frame it moves."""

    def __init__(self) -> None:
        super().__init__()
        self.frames: list[Frame] = []

    def _deliver(self, frame: Frame):
        self.frames.append(frame)
        return super()._deliver(frame)


class TestWire:
    """Registrations and queries carry text, not pickles."""

    @pytest.fixture
    def wired(self):
        transport = _Recorder()
        store = _remote_directory_host(transport, "homeserver")
        client = DirectoryClient(
            mode=DirectoryMode.HOME, transport=transport, self_urn="naplet://s03"
        )
        return transport, store, client

    @pytest.mark.parametrize("clone", [False, True], ids=["original", "clone"])
    def test_registration_and_query_round_trip(self, wired, clone):
        transport, store, client = wired
        nid = NapletID.parse("a@homeserver:240101120000:0.2") if clone else _nid()
        client.report_arrival(nid, "naplet://s03", count=7)
        assert store.lookup(nid) == client.lookup(nid) == DirectoryRecord(
            nid, DirectoryEvent.ARRIVAL, "naplet://s03", 7
        )
        event, query = transport.frames
        assert event.payload == f"{nid} 7".encode()
        assert query.payload == str(nid).encode()
        assert not event.headers

    def test_departure_round_trips(self, wired):
        _transport, store, client = wired
        nid = _nid()
        client.report_departure(nid, "naplet://s03", count=3)
        assert store.lookup(nid).in_transit
        assert client.lookup(nid) == store.lookup(nid)

    def test_unknown_naplet_is_a_none_reply(self, wired):
        _transport, store, client = wired
        frame = Frame(
            kind=FrameKind.DIRECTORY_QUERY, source="naplet://s03",
            dest="naplet://homeserver", payload=str(_nid()).encode(),
        )
        assert DirectoryClient.handle_query_frame(store, frame) == b"none"
        assert client.lookup(_nid()) is None

    @pytest.mark.parametrize(
        "payload", ["not-an-id 1", "{nid} one", "{nid} 1 bogus", "{nid} 1 depart extra"]
    )
    def test_a_malformed_registration_is_refused(self, payload):
        directory = NapletDirectory()
        frame = Frame(
            kind=FrameKind.DIRECTORY_EVENT, source="naplet://s03", dest="naplet://homeserver",
            payload=payload.format(nid=_nid()).encode(),
        )
        with pytest.raises(ValueError):
            DirectoryClient.handle_event_frame(directory, frame)
        assert len(directory) == 0

    def test_a_server_registers_only_itself(self, wired):
        _transport, _store, client = wired
        with pytest.raises(ValueError):
            client.report_arrival(_nid(), "naplet://elsewhere", count=1)

    def test_a_hop_from_the_authority_sends_nothing(self, wired):
        transport, store, client = wired
        nid = _nid()
        client.report_migration(nid, "naplet://homeserver", "naplet://s03", 1)
        assert transport.frames == [] and store.lookup(nid) is None
        client.report_migration(nid, "naplet://s02", "naplet://s03", 2)
        assert store.lookup(nid).server_urn == "naplet://s03"


class TestHomeMode:
    def test_events_routed_to_home_manager(self):
        transport = InMemoryTransport()
        home_store = _remote_directory_host(transport, "homeserver")
        client = DirectoryClient(
            mode=DirectoryMode.HOME,
            transport=transport,
            self_urn="naplet://edge",
        )
        nid = _nid(home="homeserver")
        client.report_arrival(nid, "naplet://edge")
        assert home_store.lookup(nid).server_urn == "naplet://edge"
        assert client.lookup(nid).server_urn == "naplet://edge"

    def test_home_server_itself_uses_local_slice(self):
        transport = InMemoryTransport()
        local = NapletDirectory()
        client = DirectoryClient(
            mode=DirectoryMode.HOME,
            transport=transport,
            self_urn=urn_of("homeserver"),
            local_directory=local,
        )
        nid = _nid(home="homeserver")
        client.report_arrival(nid, urn_of("homeserver"))
        assert local.lookup(nid) is not None


class TestNoneMode:
    def test_everything_is_silent(self):
        client = DirectoryClient(
            mode=DirectoryMode.NONE,
            transport=InMemoryTransport(),
            self_urn="naplet://x",
        )
        nid = _nid()
        client.report_arrival(nid, "naplet://x")  # no-op, no transport use
        assert client.lookup(nid) is None

    def test_unreachable_authority_lookup_returns_none(self):
        client = DirectoryClient(
            mode=DirectoryMode.HOME,
            transport=InMemoryTransport(),  # nothing registered
            self_urn="naplet://edge",
        )
        assert client.lookup(_nid(home="ghosthome")) is None


class TestRefusingAuthority:
    def test_a_shutting_down_authority_reads_as_unreachable(self, space):
        """A home server whose shutdown has begun answers every frame with
        a pickled refusal; a lookup there is an unreachable authority, and a
        post to its naplet fails to locate it rather than to decode."""
        from repro.core.errors import NapletLocationError
        from repro.itinerary import Itinerary, SeqPattern
        from repro.simnet import line
        from repro.util.concurrency import wait_until

        from tests.conftest import StallNaplet

        _net, servers = space(line(4, prefix="s"))
        agent = StallNaplet("sitter", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(SeqPattern.of_servers(["s01"])))
        nid = servers["s00"].launch(agent, owner="alice")
        assert wait_until(lambda: servers["s01"].manager.is_resident(nid), timeout=10)
        servers["s00"]._shutdown.set()
        try:
            assert servers["s02"].directory_client.lookup(nid) is None
            with pytest.raises(NapletLocationError):
                servers["s02"].messenger.post(None, nid, "hi")
        finally:
            servers["s00"]._shutdown.clear()
            servers["s01"].terminate_naplet(nid)
