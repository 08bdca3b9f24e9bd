"""Circuit-relay analyses (§6.2; Figures 10 and 11)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.analysis.quantiles import median
from repro.errors import AnalysisError
from repro.geo.geodesy import LatLon
from repro.p2p.peerbook import Peerbook

__all__ = [
    "RelayStats",
    "relay_stats",
    "relay_load_histogram",
    "RelayDistanceComparison",
    "relay_distances",
    "LightTransitionImpact",
    "light_hotspot_transition",
]


@dataclass(frozen=True)
class RelayStats:
    """§6.2 headline: how much of the network is relayed."""

    peers_with_listen_addrs: int
    relayed_peers: int
    relayed_fraction: float
    relay_nodes: int
    max_peers_per_relay: int


def relay_stats(peerbook: Peerbook) -> RelayStats:
    """Relay prevalence (paper: 55.48 % of 27,281 listening peers)."""
    listening = peerbook.entries_with_listen_addrs()
    if not listening:
        raise AnalysisError("peerbook has no listening peers")
    relayed = [e for e in listening if e.is_relayed]
    load = peerbook.relay_load()
    return RelayStats(
        peers_with_listen_addrs=len(listening),
        relayed_peers=len(relayed),
        relayed_fraction=len(relayed) / len(listening),
        relay_nodes=len(load),
        max_peers_per_relay=max(load.values()) if load else 0,
    )


def relay_load_histogram(peerbook: Peerbook) -> Dict[int, int]:
    """Figure 10: number of relays carrying n peers, keyed by n."""
    load = peerbook.relay_load()
    if not load:
        raise AnalysisError("no relayed peers in peerbook")
    histogram: Dict[int, int] = {}
    for peers in load.values():
        histogram[peers] = histogram.get(peers, 0) + 1
    return dict(sorted(histogram.items()))


@dataclass(frozen=True)
class RelayDistanceComparison:
    """Figure 11: actual relay→peer distances vs random reassignment."""

    actual_km: Tuple[float, ...]
    randomized_trials_km: Tuple[Tuple[float, ...], ...]
    actual_median_km: float
    randomized_median_km: float
    #: Two-sample Kolmogorov–Smirnov statistic between the actual
    #: distances and the pooled random trials. Small (≲0.05) supports
    #: the paper's conclusion that relay selection is random.
    ks_statistic: float


def relay_distances(
    peerbook: Peerbook,
    locations: Dict[str, LatLon],
    rng: np.random.Generator,
    n_trials: int = 5,
) -> RelayDistanceComparison:
    """Compare actual relay→peer distances against random assignment.

    Args:
        peerbook: the observed peerbook.
        locations: peer address → asserted location.
        rng: random stream for the reassignment trials.
        n_trials: number of randomised trials (the paper runs 5).
    """
    pairs = []
    for relay, peer in peerbook.relay_pairs():
        relay_loc = locations.get(relay)
        peer_loc = locations.get(peer)
        if relay_loc is None or peer_loc is None:
            continue
        if relay_loc.is_null_island() or peer_loc.is_null_island():
            continue
        pairs.append((relay_loc, peer_loc))
    if not pairs:
        raise AnalysisError("no locatable relay pairs")
    actual = [r.distance_km(p) for r, p in pairs]
    relay_pool = [r for r, _ in pairs]
    trials: List[Tuple[float, ...]] = []
    for _ in range(n_trials):
        trial = []
        for _, peer_loc in pairs:
            pick = relay_pool[int(rng.integers(len(relay_pool)))]
            trial.append(peer_loc.distance_km(pick))
        trials.append(tuple(trial))

    pooled = np.sort(np.concatenate([np.array(t) for t in trials]))
    actual_sorted = np.sort(np.array(actual))
    ks = _ks_statistic(actual_sorted, pooled)
    return RelayDistanceComparison(
        actual_km=tuple(actual),
        randomized_trials_km=tuple(trials),
        actual_median_km=median(actual_sorted),
        randomized_median_km=median(pooled),
        ks_statistic=ks,
    )


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic over pre-sorted samples."""
    grid = np.concatenate([a, b])
    grid.sort()
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass(frozen=True)
class LightTransitionImpact:
    """What the validator/light-hotspot transition does to p2p analysis.

    Footnote 10 of the paper: "With the impending launch of validator
    nodes, hotspots will have the option to convert to so-called 'light'
    nodes. Only the validators will maintain a fully connected p2p graph,
    and thus only they will have access to the network information of
    some hotspots in the future." — i.e. the §6 measurements become
    impossible. This what-if quantifies the loss.
    """

    converted: int
    visible_before: int
    visible_after: int
    stranded_relayed_peers: int

    @property
    def visibility_loss(self) -> float:
        """Fraction of previously-listening peers no longer observable."""
        if self.visible_before == 0:
            return 0.0
        return 1.0 - self.visible_after / self.visible_before


def light_hotspot_transition(
    peerbook: Peerbook,
    convert_fraction: float,
    rng: np.random.Generator,
) -> LightTransitionImpact:
    """Simulate a fraction of hotspots converting to light nodes.

    Light nodes drop out of the public p2p graph: their own entries
    vanish, and any peer relayed *through* a converting node loses its
    listen address too (it must find a new relay among the shrinking
    public set — here counted as stranded).
    """
    if not (0.0 <= convert_fraction <= 1.0):
        raise AnalysisError(
            f"convert fraction must be in [0, 1]: {convert_fraction}"
        )
    listening = peerbook.entries_with_listen_addrs()
    peers = [entry.peer for entry in listening]
    n_convert = int(len(peers) * convert_fraction)
    converted = set(
        peers[int(i)] for i in rng.choice(len(peers), size=n_convert,
                                          replace=False)
    ) if n_convert else set()
    stranded = 0
    visible_after = 0
    for entry in listening:
        if entry.peer in converted:
            continue
        relay = entry.relay_peer
        if relay is not None and relay in converted:
            stranded += 1
            continue
        visible_after += 1
    return LightTransitionImpact(
        converted=len(converted),
        visible_before=len(listening),
        visible_after=visible_after,
        stranded_relayed_peers=stranded,
    )
