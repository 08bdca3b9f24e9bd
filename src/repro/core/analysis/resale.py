"""Resale-market analyses (§4.3.3, Figure 7), over the ETL replica's
``transfers`` table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import units
from repro.chain.crypto import Address
from repro.errors import AnalysisError
from repro.etl.store import EtlStore

__all__ = ["ResaleStats", "resale_stats", "transfers_over_time", "top_traders"]


@dataclass(frozen=True)
class ResaleStats:
    """Figure 7a + §4.3.3 headline numbers."""

    total_transfers: int
    hotspots_transferred: int
    transfers_per_hotspot: Dict[int, int]
    transferred_fraction_of_fleet: float
    at_most_two_transfers_fraction: float
    zero_dc_fraction: float


def resale_stats(store: EtlStore) -> ResaleStats:
    """Transfer counts, repeat-transfer distribution, 0-DC share."""
    per_hotspot: Dict[Address, int] = {}
    zero_dc = 0
    total = 0
    for _, gateway, _, _, amount_dc in store.transfer_rows():
        per_hotspot[gateway] = per_hotspot.get(gateway, 0) + 1
        total += 1
        if amount_dc == 0:
            zero_dc += 1
    if total == 0:
        raise AnalysisError("no transfer_hotspot transactions on chain")
    histogram: Dict[int, int] = {}
    for count in per_hotspot.values():
        histogram[count] = histogram.get(count, 0) + 1
    transferred = len(per_hotspot)
    fleet = store.hotspot_count
    return ResaleStats(
        total_transfers=total,
        hotspots_transferred=transferred,
        transfers_per_hotspot=dict(sorted(histogram.items())),
        transferred_fraction_of_fleet=transferred / fleet if fleet else 0.0,
        at_most_two_transfers_fraction=sum(
            v for k, v in histogram.items() if k <= 2
        ) / transferred,
        zero_dc_fraction=zero_dc / total,
    )


def transfers_over_time(
    store: EtlStore, bucket_days: int = 30
) -> List[Tuple[int, int]]:
    """Figure 7c: (bucket start day, transfer count) time series."""
    buckets: Dict[int, int] = {}
    for height, _, _, _, _ in store.transfer_rows():
        day = height // units.BLOCKS_PER_DAY
        bucket = (day // bucket_days) * bucket_days
        buckets[bucket] = buckets.get(bucket, 0) + 1
    return sorted(buckets.items())


@dataclass(frozen=True)
class TraderActivity:
    """One wallet's buy/sell volume (Figure 7b)."""

    owner: Address
    bought: int
    sold: int

    @property
    def total(self) -> int:
        """Combined transfer participation."""
        return self.bought + self.sold


def top_traders(store: EtlStore, top_n: int = 200) -> List[TraderActivity]:
    """Figure 7b: the most active transfer participants."""
    bought: Dict[Address, int] = {}
    sold: Dict[Address, int] = {}
    for _, _, seller, buyer, _ in store.transfer_rows():
        bought[buyer] = bought.get(buyer, 0) + 1
        sold[seller] = sold.get(seller, 0) + 1
    # Sorted so equal-total traders rank deterministically (the later
    # sort is stable and must not inherit set-iteration order).
    owners = sorted(set(bought) | set(sold))
    activity = [
        TraderActivity(owner=o, bought=bought.get(o, 0), sold=sold.get(o, 0))
        for o in owners
    ]
    activity.sort(key=lambda a: -a.total)
    return activity[:top_n]
