"""Toy deterministic key material for the simulated blockchain.

The real Helium chain uses ed25519; the analyses in the paper never verify
signatures, they only need (a) stable addresses that tie hotspots to
owners and (b) a signature scheme sufficient to model the state-channel
"signed offer to buy" handshake. A hash-based construction gives both,
deterministically from the scenario seed, with no external dependencies.

This is explicitly **not** cryptographically secure — it models protocol
structure, not adversarial cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.digest import sha256
from repro.errors import ChainError

__all__ = ["Address", "Keypair", "sign", "verify"]

#: Printable address: a prefix plus a truncated hex digest.
Address = str

_ADDRESS_BYTES = 16


def _digest(*parts: str) -> str:
    h = sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class Keypair:
    """A deterministic keypair derived from a secret string.

    Addresses carry a role prefix (``wal_`` for wallets, ``hs_`` for
    hotspots, ``oui_`` for router organisations) so that transaction dumps
    stay human-readable, mirroring how Helium explorers label entities.
    """

    secret: str = field(repr=False)
    prefix: str = "wal"

    @property
    def public_key(self) -> str:
        """Hex public key (hash of the secret)."""
        return _digest("pub", self.secret)

    @property
    def address(self) -> Address:
        """Printable on-chain address."""
        return f"{self.prefix}_{self.public_key[: 2 * _ADDRESS_BYTES]}"

    @classmethod
    def generate(cls, seed: str, prefix: str = "wal") -> "Keypair":
        """Derive a keypair deterministically from a seed string."""
        if not seed:
            raise ChainError("keypair seed must be non-empty")
        return cls(secret=_digest("secret", seed), prefix=prefix)

    def sign(self, message: str) -> str:
        """Sign ``message`` with this keypair."""
        return sign(self, message)


def sign(keypair: Keypair, message: str) -> str:
    """Hash-based signature: binds message, secret, and public key."""
    return _digest("sig", keypair.secret, message)


def verify(public_key: str, message: str, signature: str, secret_hint: str) -> bool:
    """Verify a signature given the signer's secret (simulation only).

    Real verification needs only the public key; our hash construction
    requires the secret, which the simulation can always supply because
    it owns every keypair. Callers outside the simulation should treat a
    signature's presence as authentication, exactly as the paper treats
    signed offers in state-channel closings.
    """
    expected_pub = _digest("pub", secret_hint)
    if expected_pub != public_key:
        return False
    return signature == _digest("sig", secret_hint, message)
