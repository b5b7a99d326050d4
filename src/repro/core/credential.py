"""Naplet credentials (paper §2.1, §5).

The paper certifies the naplet's immutable attributes — identifier and
codebase URL — with the creator's digital signature; naplet servers use the
credential to derive naplet-specific security and access-control policies.

We reproduce this with stdlib HMAC-SHA256 over a canonical rendering of the
immutable attributes: the attribute-pair count, then the naplet id, the
codebase and each attribute key and value as a length-prefixed string
list (:func:`~repro.core.strings.pack_strings`), so no two credentials
sign the same bytes.  A :class:`SigningAuthority` plays the role of the PKI:
it holds per-owner secrets and both signs and verifies.  This preserves the
behaviour the servers depend on (tamper detection over immutable attributes,
a feature set for the policy matrix) without a real certificate
infrastructure, which the paper itself leaves to future work.
"""

from __future__ import annotations

import hmac
import hashlib
import struct
import threading
from dataclasses import dataclass

from repro.core.errors import CredentialError
from repro.core.naplet_id import NapletID
from repro.core.strings import pack_strings

__all__ = ["Credential", "SigningAuthority"]


def _canonical(nid: NapletID, codebase: str, attributes: tuple[tuple[str, str], ...]) -> bytes:
    fields = [str(nid), codebase]
    for pair in attributes:
        fields += pair
    return struct.pack("!H", len(attributes)) + pack_strings(fields)


@dataclass(frozen=True)
class Credential:
    """Signed statement binding a naplet id to its codebase and attributes.

    ``attributes`` is a sorted tuple of (key, value) pairs carrying the
    *characteristic features* the paper's security policy maps to
    permissions (e.g. role=admin, app=netman).
    """

    naplet_id: NapletID
    codebase: str
    attributes: tuple[tuple[str, str], ...] = ()
    signature: bytes = b""

    @property
    def owner(self) -> str:
        return self.naplet_id.owner

    def feature(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.attributes:
            if k == key:
                return v
        return default

    def features(self) -> dict[str, str]:
        """All characteristic features, including the implicit identity ones."""
        feats = dict(self.attributes)
        feats.setdefault("owner", self.naplet_id.owner)
        feats.setdefault("home", self.naplet_id.home)
        feats.setdefault("codebase", self.codebase)
        return feats

    def payload(self) -> bytes:
        return _canonical(self.naplet_id, self.codebase, self.attributes)

    def for_clone(self, clone_id: NapletID, authority: "SigningAuthority") -> "Credential":
        """Re-issue this credential for a clone (same codebase/attributes)."""
        return authority.issue(clone_id, self.codebase, dict(self.attributes))


class SigningAuthority:
    """Issues and verifies credentials; the reproduction's stand-in PKI.

    Per-owner secrets are registered once (``register_owner``); a credential
    signed under one owner's secret fails verification if any immutable
    attribute is altered or if presented for a different owner.
    """

    def __init__(self) -> None:
        self._secrets: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def register_owner(self, owner: str, secret: bytes | str | None = None) -> bytes:
        """Register (or fetch) the signing secret for *owner*."""
        if isinstance(secret, str):
            secret = secret.encode()
        with self._lock:
            if owner in self._secrets:
                if secret is not None and secret != self._secrets[owner]:
                    raise CredentialError(f"owner {owner!r} already registered with a different secret")
                return self._secrets[owner]
            if secret is None:
                secret = hashlib.sha256(f"naplet-authority:{owner}".encode()).digest()
            self._secrets[owner] = secret
            return secret

    def _secret_for(self, owner: str) -> bytes:
        with self._lock:
            try:
                return self._secrets[owner]
            except KeyError:
                raise CredentialError(f"unknown owner: {owner!r}") from None

    def issue(
        self,
        naplet_id: NapletID,
        codebase: str,
        attributes: dict[str, str] | None = None,
    ) -> Credential:
        """Sign a credential for *naplet_id* under its owner's secret."""
        attrs = tuple(sorted((attributes or {}).items()))
        secret = self._secret_for(naplet_id.owner)
        sig = hmac.new(secret, _canonical(naplet_id, codebase, attrs), hashlib.sha256).digest()
        return Credential(naplet_id=naplet_id, codebase=codebase, attributes=attrs, signature=sig)

    def verify(self, credential: Credential) -> bool:
        """Constant-time verification of a credential's signature."""
        try:
            secret = self._secret_for(credential.owner)
        except CredentialError:
            return False
        expect = hmac.new(secret, credential.payload(), hashlib.sha256).digest()
        return hmac.compare_digest(expect, credential.signature)

    def require_valid(self, credential: Credential) -> None:
        """Raise :class:`CredentialError` unless *credential* verifies."""
        if not self.verify(credential):
            raise CredentialError(f"invalid credential for {credential.naplet_id}")
