"""Ownership analyses (§4.3, Figure 6).

"Every hotspot has a designated owner, or more precisely, a wallet that
receives the rewards earned by the hotspot." The distribution, the owner
classes (HNT-accumulating application operators vs frequently-encashing
mining pools), and the geography of big fleets all come from joining
current ledger state against chain history, both read from the ETL
replica's ``hotspots``, ``wallets`` and ``packet_summaries`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.chain.crypto import Address
from repro.errors import AnalysisError
from repro.etl.store import EtlStore
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexCell

__all__ = [
    "OwnershipStats",
    "ownership_stats",
    "OwnerProfile",
    "classify_owners",
    "owner_fleet_map",
]


@dataclass(frozen=True)
class OwnershipStats:
    """§4.3 distribution summary."""

    n_owners: int
    n_hotspots: int
    owners_by_count: Dict[int, int]
    one_hotspot_fraction: float
    two_hotspot_fraction: float
    three_hotspot_fraction: float
    at_most_three_fraction: float
    five_or_more_fraction: float
    max_owned: int


def ownership_stats(store: EtlStore) -> OwnershipStats:
    """The owner-size distribution from current ledger state."""
    counts = store.owner_counts()
    if not counts:
        raise AnalysisError("no hotspots on chain")
    histogram: Dict[int, int] = {}
    for owned in counts.values():
        histogram[owned] = histogram.get(owned, 0) + 1
    n_owners = len(counts)
    return OwnershipStats(
        n_owners=n_owners,
        n_hotspots=sum(counts.values()),
        owners_by_count=dict(sorted(histogram.items())),
        one_hotspot_fraction=histogram.get(1, 0) / n_owners,
        two_hotspot_fraction=histogram.get(2, 0) / n_owners,
        three_hotspot_fraction=histogram.get(3, 0) / n_owners,
        at_most_three_fraction=sum(
            v for k, v in histogram.items() if k <= 3
        ) / n_owners,
        five_or_more_fraction=sum(
            v for k, v in histogram.items() if k >= 5
        ) / n_owners,
        max_owned=max(counts.values()),
    )


@dataclass(frozen=True)
class OwnerProfile:
    """One owner's inferred class (§4.3's HNT-balance heuristic)."""

    owner: Address
    hotspots: int
    hnt_balance: float
    data_packets_ferried: int
    inferred_class: str  # "application" | "mining" | "individual"


def classify_owners(
    store: EtlStore,
    min_fleet: int = 3,
    application_hnt_threshold: float = 50.0,
) -> List[OwnerProfile]:
    """Infer owner classes from balances and data activity.

    The paper's inference: owners "using Helium in service of a
    real-world end application engage in a large number of data
    transactions and have thousands to tens of thousands of HNT";
    profit-seeking owners "frequently encash their HNT" and take no part
    in data transactions. Thresholds scale with simulation emission.
    """
    counts = store.owner_counts()
    ferried = store.packets_by_owner()
    balances = store.wallet_hnt_bones()
    profiles: List[OwnerProfile] = []
    for owner, fleet in counts.items():
        bones = balances.get(owner)
        balance = units.bones_to_hnt(bones) if bones is not None else 0.0
        if fleet < min_fleet:
            inferred = "individual"
        elif ferried.get(owner, 0) > 0 and balance >= application_hnt_threshold:
            inferred = "application"
        else:
            inferred = "mining"
        profiles.append(OwnerProfile(
            owner=owner,
            hotspots=fleet,
            hnt_balance=balance,
            data_packets_ferried=ferried.get(owner, 0),
            inferred_class=inferred,
        ))
    profiles.sort(key=lambda p: -p.hotspots)
    return profiles


def owner_fleet_map(
    store: EtlStore, owner: Address
) -> List[Tuple[Address, Optional[LatLon]]]:
    """Figure 6: the locations of one owner's fleet."""
    fleet = store.fleet_rows(owner)
    if not fleet:
        raise AnalysisError(f"owner {owner} has no hotspots")
    out: List[Tuple[Address, Optional[LatLon]]] = []
    for gateway, token in fleet:
        location = None
        if token is not None:
            location = HexCell.from_token(token).center()
        out.append((gateway, location))
    return out
