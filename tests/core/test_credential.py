"""Credentials: signing and verification of immutable attributes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.credential import Credential, SigningAuthority
from repro.core.errors import CredentialError
from repro.core.naplet_id import NapletID
from repro.transport.base import decode_credential, encode_credential


@pytest.fixture
def authority():
    auth = SigningAuthority()
    auth.register_owner("alice")
    return auth


@pytest.fixture
def nid():
    return NapletID.create("alice", "home", stamp="240101120000")


class TestIssueAndVerify:
    def test_issued_credential_verifies(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"role": "admin"})
        assert authority.verify(cred)

    def test_require_valid_passes(self, authority, nid):
        cred = authority.issue(nid, "codebase://x")
        authority.require_valid(cred)  # no raise

    def test_tampered_codebase_fails(self, authority, nid):
        cred = authority.issue(nid, "codebase://x")
        forged = dataclasses.replace(cred, codebase="codebase://evil")
        assert not authority.verify(forged)

    def test_tampered_id_fails(self, authority, nid):
        cred = authority.issue(nid, "codebase://x")
        other = NapletID.create("alice", "home", stamp="240101120001")
        forged = dataclasses.replace(cred, naplet_id=other)
        assert not authority.verify(forged)

    def test_tampered_attributes_fail(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"role": "guest"})
        forged = dataclasses.replace(cred, attributes=(("role", "admin"),))
        assert not authority.verify(forged)

    def test_attributes_cannot_be_split_out_of_one_value(self, authority, nid):
        """The signed form is length-prefixed: a value that reads like a
        separator and a second pair does not sign those two pairs."""
        cred = authority.issue(nid, "codebase://x", {"app": "netman;role=admin"})
        forged = dataclasses.replace(cred, attributes=(("app", "netman"), ("role", "admin")))
        assert not authority.verify(forged)
        assert authority.verify(cred)

    def test_the_signed_form_is_what_travels_ahead_of_the_mac(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"app": "netman", "role": "admin"})
        assert encode_credential(cred) == cred.payload() + cred.signature
        assert decode_credential(encode_credential(cred)) == cred

    def test_tampered_signature_fails(self, authority, nid):
        cred = authority.issue(nid, "codebase://x")
        forged = dataclasses.replace(cred, signature=b"\x00" * 32)
        assert not authority.verify(forged)

    def test_unknown_owner_fails_verification(self, authority):
        stranger = NapletID.create("mallory", "home", stamp="240101120000")
        cred = Credential(naplet_id=stranger, codebase="x", signature=b"sig")
        assert not authority.verify(cred)

    def test_require_valid_raises_on_forgery(self, authority, nid):
        cred = authority.issue(nid, "codebase://x")
        forged = dataclasses.replace(cred, codebase="evil")
        with pytest.raises(CredentialError):
            authority.require_valid(forged)

    def test_issue_for_unregistered_owner_raises(self, authority):
        stranger = NapletID.create("mallory", "home", stamp="240101120000")
        with pytest.raises(CredentialError):
            authority.issue(stranger, "codebase://x")


class TestOwnerRegistration:
    def test_register_returns_stable_secret(self):
        auth = SigningAuthority()
        s1 = auth.register_owner("bob")
        s2 = auth.register_owner("bob")
        assert s1 == s2

    def test_register_with_conflicting_secret_raises(self):
        auth = SigningAuthority()
        auth.register_owner("bob", b"secret-1")
        with pytest.raises(CredentialError):
            auth.register_owner("bob", b"secret-2")

    def test_register_accepts_str_secret(self):
        auth = SigningAuthority()
        secret = auth.register_owner("bob", "passphrase")
        assert secret == b"passphrase"

    def test_different_authorities_disagree(self, nid):
        a1, a2 = SigningAuthority(), SigningAuthority()
        a1.register_owner("alice", b"k1")
        a2.register_owner("alice", b"k2")
        cred = a1.issue(nid, "codebase://x")
        assert not a2.verify(cred)


class TestFeatures:
    def test_features_include_identity(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"app": "netman"})
        features = cred.features()
        assert features["owner"] == "alice"
        assert features["home"] == "home"
        assert features["codebase"] == "codebase://x"
        assert features["app"] == "netman"

    def test_explicit_attribute_wins_over_implicit(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"owner": "impersonated"})
        assert cred.features()["owner"] == "impersonated"

    def test_feature_accessor_with_default(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"role": "admin"})
        assert cred.feature("role") == "admin"
        assert cred.feature("absent", "dflt") == "dflt"

    def test_attributes_are_sorted_canonically(self, authority, nid):
        c1 = authority.issue(nid, "cb", {"b": "2", "a": "1"})
        c2 = authority.issue(nid, "cb", {"a": "1", "b": "2"})
        assert c1.signature == c2.signature


class TestCloneReissue:
    def test_for_clone_preserves_attributes(self, authority, nid):
        cred = authority.issue(nid, "codebase://x", {"role": "admin"})
        clone_id = nid.next_clone()
        clone_cred = cred.for_clone(clone_id, authority)
        assert clone_cred.naplet_id == clone_id
        assert clone_cred.codebase == cred.codebase
        assert dict(clone_cred.attributes) == {"role": "admin"}
        assert authority.verify(clone_cred)
