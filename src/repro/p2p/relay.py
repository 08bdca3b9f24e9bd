"""Circuit-relay assignment (§6.2).

"When a hotspot cannot directly communicate, it opens a persistent
connection with another hotspot on a less restrictive network to relay
messages and data." The paper's randomisation experiment (Figure 11)
concludes that "the Helium network does in fact assign peers randomly to
relay nodes" — so random selection is the default policy here, with a
nearest-k alternative implementing the paper's rejected hypothesis for
the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.crypto import Address
from repro.digest import sha256
from repro.errors import P2pError
from repro.geo.geodesy import LatLon
from repro.geo.spatialindex import SpatialIndex
from repro.p2p.peerbook import Peerbook

__all__ = ["RelayCandidate", "RelayFabric"]


@dataclass(frozen=True)
class RelayCandidate:
    """A hotspot as the relay fabric sees it."""

    peer: Address
    location: LatLon
    has_public_ip: bool
    online: bool = True


class RelayFabric:
    """Builds the peerbook from hotspots' NAT status.

    Args:
        policy: ``"random"`` (Helium's actual behaviour) or
            ``"nearest"`` (the paper's §6.2 alternative hypothesis, kept
            for the relay ablation bench).
        nearest_k: with the nearest policy, the relay is drawn uniformly
            from the ``k`` closest public peers.
    """

    def __init__(self, policy: str = "random", nearest_k: int = 5) -> None:
        if policy not in ("random", "nearest"):
            raise P2pError(f"unknown relay policy: {policy!r}")
        if nearest_k < 1:
            raise P2pError(f"nearest_k must be >= 1, got {nearest_k}")
        self.policy = policy
        self.nearest_k = nearest_k

    def build_peerbook(
        self,
        candidates: Sequence[RelayCandidate],
        rng: np.random.Generator,
    ) -> Peerbook:
        """Assign relays to every NATed peer and return the peerbook.

        Offline peers get empty entries (the paper distinguishes "the
        27,281 hotspots with non-empty listening addresses").
        """
        peerbook = Peerbook()
        publics = [c for c in candidates if c.online and c.has_public_ip]
        if not publics:
            raise P2pError("no public-IP peers available to act as relays")
        for candidate in publics:
            # Toy IP derived from the peer hash; the backhaul module owns
            # real IP assignment — callers wanting ISP-faithful IPs add
            # direct entries themselves before calling assign_relays.
            peerbook.add_direct(candidate.peer, _pseudo_ip(candidate.peer))

        index: Optional[SpatialIndex[RelayCandidate]] = None
        if self.policy == "nearest":
            index = SpatialIndex(cell_deg=2.0)
            for public in publics:
                index.insert(public.location, public)

        for candidate in candidates:
            if not candidate.online:
                peerbook.add_empty(candidate.peer)
                continue
            if candidate.has_public_ip:
                continue  # direct entry already added
            relay = self._pick_relay(candidate, publics, index, rng)
            peerbook.add_relayed(candidate.peer, relay.peer)
        return peerbook

    def _pick_relay(
        self,
        candidate: RelayCandidate,
        publics: List[RelayCandidate],
        index: Optional[SpatialIndex[RelayCandidate]],
        rng: np.random.Generator,
    ) -> RelayCandidate:
        if self.policy == "random":
            return publics[int(rng.integers(len(publics)))]
        assert index is not None
        radius = 50.0
        nearby: List[Tuple[LatLon, RelayCandidate]] = []
        while len(nearby) < self.nearest_k and radius <= 25_000.0:
            nearby = index.within_radius(candidate.location, radius)
            radius *= 2.0
        if not nearby:
            return publics[int(rng.integers(len(publics)))]
        ranked = sorted(
            nearby,
            key=lambda pair: candidate.location.distance_km(pair[0]),
        )[: self.nearest_k]
        return ranked[int(rng.integers(len(ranked)))][1]


def randomized_assignment_trial(
    pairs: Sequence[Tuple[LatLon, LatLon]],
    relay_locations: Sequence[LatLon],
    rng: np.random.Generator,
) -> List[float]:
    """One trial of the paper's Figure 11b experiment.

    Takes the observed (relay location, peer location) pairs, reassigns
    each peer to a uniformly random relay from the observed relay pool,
    and returns the resulting distances. Comparing this CDF against the
    actual one is how the paper concludes selection is random.
    """
    if not relay_locations:
        raise P2pError("need at least one relay location")
    distances = []
    for _, peer_location in pairs:
        relay_location = relay_locations[int(rng.integers(len(relay_locations)))]
        distances.append(peer_location.distance_km(relay_location))
    return distances


def _pseudo_ip(peer: Address) -> str:
    """Deterministic placeholder IP for a public peer."""
    digest = sha256(peer.encode()).digest()
    return f"{digest[0] % 223 + 1}.{digest[1]}.{digest[2]}.{digest[3] % 254 + 1}"
