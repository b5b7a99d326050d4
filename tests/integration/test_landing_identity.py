"""The naplet that lands is the one its LANDING check verified.

A transfer frame carries the credential as its payload — its signed fields
and MAC, decoded without unpickling — and the image as its segments, and
admission is decided on the credential alone, before any byte is unpickled.
An image of any other naplet — whatever credential it carries inside — is
refused with a journaled event, and never lands; an image of the admitted
naplet lands carrying the verified credential, not one of its own, and that
credential names the naplet's own id object.  A destination that refuses
the transfer outright (shutting down) costs the source a rolled-back,
retriable :class:`NapletMigrationError`.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry
from repro.core.credential import Credential, SigningAuthority
from repro.core.errors import NapletMigrationError
from repro.faults import RetryPolicy
from repro.core.naplet_id import NapletID
from repro.itinerary import Itinerary, seq
from repro.server import NapletServer, ServerConfig, SpaceAdmin
from repro.simnet import VirtualNetwork, line
from repro.transport.base import Frame, FrameKind, encode_credential
from repro.transport.tcp import TcpTransport
from tests.conftest import StallNaplet
from tests.integration.test_fastpath_migration import _WENT_OFF, _Bomb
from tests.transport.envelopes import read_ack


class ForgedImage(StallNaplet):
    """A naplet whose per-field image keeps the credential it carries."""

    def image_state(self):
        return self.__getstate__()


@pytest.fixture(params=["inmemory", "tcp"])
def pair(request):
    """Servers ``s00`` and ``s01`` over the parametrized transport."""
    if request.param == "inmemory":
        network = VirtualNetwork(line(2, prefix="s"))
        servers = {
            name: NapletServer.attach(network.host(name), ServerConfig())
            for name in ("s00", "s01")
        }
        yield servers
        network.shutdown()
        return
    transport, authority, registry = TcpTransport(), SigningAuthority(), CodeBaseRegistry()
    servers = {
        name: NapletServer(
            hostname=name, transport=transport, authority=authority,
            code_registry=registry, config=ServerConfig(),
        )
        for name in ("s00", "s01")
    }
    yield servers
    for server in servers.values():
        server.shutdown()
    transport.close()


def _alice(servers) -> Credential:
    """A valid credential, as the owner's home would issue it."""
    authority = servers["s00"].authority
    authority.register_owner("alice")
    return authority.issue(NapletID.create("alice", "s00"), "local")


def _forged_naplet(nid: NapletID, self_referential: bool) -> ForgedImage:
    """A naplet under *nid* carrying an unsigned ``role=admin`` credential."""
    agent = ForgedImage("forged", spin_seconds=30.0)
    agent._assign_identity(nid, Credential(nid, "local", (("role", "admin"),)))
    agent.set_itinerary(Itinerary(seq("s01")))
    if self_referential:
        agent.ring = {"me": agent}  # the image goes as one single pickle
    return agent


def _offer(servers, credential: Credential, image_of: ForgedImage) -> dict:
    """Send one transfer of *image_of* under *credential* from s00 to s01."""
    data, buffers, _cost, _image = servers["s00"].serializer.dumps_with_cost(image_of)
    frame = Frame(
        kind=FrameKind.NAPLET_TRANSFER,
        source=servers["s00"].urn,
        dest=servers["s01"].urn,
        payload=encode_credential(credential),
        headers={"transfer-id": f"{servers['s00'].urn}#forged"},
        buffers=(data, *buffers),
    )
    return read_ack(servers["s00"].transport.request(frame))


@pytest.mark.parametrize("self_referential", [False, True], ids=["per-field", "single-pickle"])
class TestLandingIdentity:
    def test_image_of_another_naplet_never_lands(self, pair, self_referential):
        credential = _alice(pair)
        mallory = NapletID.create("mallory", "s00")
        ack = _offer(pair, credential, _forged_naplet(mallory, self_referential))
        # A plain rejection: not a denial, not a request for the full image.
        assert ack == {"ok": False, "reason": "image is not the naplet its credential names"}
        landed = pair["s01"]
        assert not landed.manager.is_resident(mallory)
        assert not landed.manager.is_resident(credential.naplet_id)
        assert landed.journal.count("landing") == 0
        assert landed.manager.footprint(mallory) is None
        (event,) = [
            r for r in SpaceAdmin(pair).harvest_journal()
            if r.kind == "landing-identity-mismatch"
        ]
        assert event.naplet == str(credential.naplet_id)
        assert event.detail["image"] == str(mallory)

    def test_the_admitted_naplet_carries_the_verified_credential(self, pair, self_referential):
        credential = _alice(pair)
        nid = credential.naplet_id
        assert _offer(pair, credential, _forged_naplet(nid, self_referential))["ok"] is True
        resident = pair["s01"].manager.resident(nid)
        assert resident.credential == credential
        assert resident.credential.feature("role") is None
        # The wire carries no clone counter: the credential names the
        # naplet's own id, whose counter the image brought.
        assert resident.credential.naplet_id is resident.naplet_id


class TestTheCredentialIsCheckedFirst:
    def test_a_wrong_mac_is_denied_before_anything_is_unpickled(self, pair, monkeypatch):
        """The image would go off if unpickled; the wrong MAC denies the
        landing first, and the handling thread unpickles nothing."""
        credential = _alice(pair)
        forged = dataclasses.replace(credential, signature=bytes(32))
        handling, unpickled = threading.local(), []
        loads = pickle.loads

        def recording_loads(*args, **kwargs):
            if getattr(handling, "transfer", False):
                unpickled.append(args)
            return loads(*args, **kwargs)

        def handle_transfer(frame, landing=pair["s01"].navigator.handle_transfer):
            handling.transfer = True
            try:
                return landing(frame)
            finally:
                handling.transfer = False

        monkeypatch.setattr(pickle, "loads", recording_loads)
        monkeypatch.setattr(pair["s01"].navigator, "handle_transfer", handle_transfer)
        _WENT_OFF.clear()
        frame = Frame(
            kind=FrameKind.NAPLET_TRANSFER,
            source=pair["s00"].urn,
            dest=pair["s01"].urn,
            payload=encode_credential(forged),
            headers={"transfer-id": f"{pair['s00'].urn}#forged-mac"},
            buffers=(pickle.dumps(_Bomb()),),
        )
        ack = read_ack(pair["s00"].transport.request(frame))
        assert ack["denied"] and "signature check failed" in ack["reason"]
        assert _WENT_OFF == []
        assert unpickled == []
        assert pair["s01"].journal.count("landing") == 0


class TestARefusedTransfer:
    def test_a_shutting_down_destination_is_a_retried_migration_error(self, pair):
        """``refused server shut down`` is read as a failed exchange: the
        source rolls the departure back, retries, and gives up with a
        NapletMigrationError, never a denial."""
        source, dest = pair["s00"], pair["s01"]
        source.config.migration_retry = RetryPolicy(max_attempts=2, base_delay=0.001, jitter=0.0)
        agent = StallNaplet("refused", spin_seconds=30.0)
        agent.set_itinerary(Itinerary(seq("s01")))
        dest._shutdown.set()
        try:
            with pytest.raises(NapletMigrationError, match="refused server shut down"):
                source.launch(agent, owner="alice")
        finally:
            dest._shutdown.clear()
        assert source.journal.count("migration-retry") == 1
        assert source.journal.count("landing-denied") == 0
        assert int(dest.telemetry.landings_denied.total()) == 0
        assert dest.journal.count("landing") == 0
        footprint = source.manager.footprint(agent.naplet_id)
        assert footprint.departed_to is None and footprint.outcome == "launch-failed"
