"""The p2p peerbook: every hotspot's published listen addresses.

The DeWi database "also monitors the Helium p2p network" (§3); the relay
analysis (§6.2) is a walk over peerbook entries. Our peerbook stores the
same two entry formats and exposes the same aggregate views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.chain.crypto import Address
from repro.errors import P2pError
from repro.p2p.multiaddr import (
    ParsedMultiaddr,
    format_ip4,
    format_relay,
    parse_multiaddr,
)

__all__ = ["PeerEntry", "Peerbook"]


@dataclass(slots=True)
class PeerEntry:
    """One hotspot's peerbook row."""

    peer: Address
    listen_addrs: List[str] = field(default_factory=list)

    @property
    def parsed(self) -> List[ParsedMultiaddr]:
        """Parsed listen addresses."""
        return [parse_multiaddr(a) for a in self.listen_addrs]

    @property
    def is_relayed(self) -> bool:
        """True when the first listen address is a circuit relay."""
        if not self.listen_addrs:
            return False
        return parse_multiaddr(self.listen_addrs[0]).is_relayed

    @property
    def relay_peer(self) -> Optional[str]:
        """The relaying hotspot's hash, when relayed."""
        if not self.listen_addrs:
            return None
        parsed = parse_multiaddr(self.listen_addrs[0])
        return parsed.relay_hash if parsed.is_relayed else None


class Peerbook:
    """All peer entries, with the §6.2 aggregate queries."""

    def __init__(self) -> None:
        self._entries: Dict[Address, PeerEntry] = {}

    def add_direct(self, peer: Address, ip: str, port: int = 44158) -> None:
        """Publish a public-IP listen address for ``peer``."""
        self._entries[peer] = PeerEntry(peer, [format_ip4(ip, port)])

    def add_relayed(self, peer: Address, relay: Address) -> None:
        """Publish a circuit-relay listen address for ``peer``.

        Raises:
            P2pError: when the relay has no direct entry (a relay must
                itself be publicly reachable).
        """
        relay_entry = self._entries.get(relay)
        if relay_entry is None or relay_entry.is_relayed:
            raise P2pError(
                f"relay {relay} is not a directly reachable peer"
            )
        self._entries[peer] = PeerEntry(peer, [format_relay(relay, peer)])

    def add_empty(self, peer: Address) -> None:
        """Register a peer with no listen addresses (offline/unknown)."""
        self._entries[peer] = PeerEntry(peer, [])

    def entry(self, peer: Address) -> PeerEntry:
        """The entry for ``peer``."""
        entry = self._entries.get(peer)
        if entry is None:
            raise P2pError(f"unknown peer: {peer}")
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PeerEntry]:
        return iter(self._entries.values())

    # -- §6.2 aggregates ----------------------------------------------------

    def entries_with_listen_addrs(self) -> List[PeerEntry]:
        """Peers with at least one listen address (paper: 27,281)."""
        return [e for e in self._entries.values() if e.listen_addrs]

    def relayed_fraction(self) -> float:
        """Fraction of listening peers that are relayed (paper: 55.48 %)."""
        listening = self.entries_with_listen_addrs()
        if not listening:
            raise P2pError("no peers with listen addresses")
        return sum(1 for e in listening if e.is_relayed) / len(listening)

    def relay_load(self) -> Dict[Address, int]:
        """Map relay peer → number of peers it relays (Figure 10)."""
        load: Dict[Address, int] = {}
        for entry in self._entries.values():
            relay = entry.relay_peer
            if relay is not None:
                load[relay] = load.get(relay, 0) + 1
        return load

    def relay_pairs(self) -> List[Tuple[Address, Address]]:
        """(relay, relayed peer) pairs for distance analysis (Figure 11)."""
        return [
            (entry.relay_peer, entry.peer)
            for entry in self._entries.values()
            if entry.relay_peer is not None
        ]
