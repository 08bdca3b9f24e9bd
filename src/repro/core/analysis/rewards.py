"""Reward-economics analyses: earnings distribution and payback time.

Footnote 1 of the paper: "Hotspots pay for themselves in a few weeks, but
we do not view the current valuation of the HNT token as sustainable if
the paying user base does not grow as well." These analyses quantify
both halves: per-hotspot earnings over time, the payback distribution at
prevailing prices, and the speculative ratio (coverage rewards vs data
revenue) behind the sustainability worry. They read the ETL replica's
``rewards`` table and its folded ``hotspots`` state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import units
from repro.chain.crypto import Address
from repro.chain.transactions import RewardType
from repro.core.analysis.quantiles import median, percentile
from repro.errors import AnalysisError
from repro.etl.store import EtlStore

__all__ = [
    "EarningsStats",
    "hotspot_earnings",
    "PaybackStats",
    "payback_analysis",
    "speculation_ratio",
]


@dataclass(frozen=True)
class EarningsStats:
    """Distribution of lifetime HNT earnings across hotspots."""

    n_hotspots: int
    total_hnt: float
    median_hnt: float
    p90_hnt: float
    max_hnt: float
    by_reward_type_hnt: Dict[str, float]


def hotspot_earnings(store: EtlStore) -> EarningsStats:
    """Lifetime earnings per hotspot, plus the split by reward class."""
    per_gateway = store.rewards_by_gateway()
    by_type = store.rewards_by_type()
    if not per_gateway:
        raise AnalysisError("no gateway rewards on chain")
    values = np.sort(np.array(
        [units.bones_to_hnt(b) for b in per_gateway.values()]
    ))
    return EarningsStats(
        n_hotspots=len(values),
        total_hnt=float(values.sum()),
        median_hnt=median(values),
        p90_hnt=percentile(values, 90),
        max_hnt=float(values[-1]),
        by_reward_type_hnt={
            k: units.bones_to_hnt(v) for k, v in by_type.items()
        },
    )


@dataclass(frozen=True)
class PaybackStats:
    """Footnote 1: how fast a hotspot pays for itself."""

    hotspot_cost_usd: float
    hnt_price_usd: float
    n_hotspots: int
    median_payback_days: float
    p25_payback_days: float
    paid_back_fraction: float  # within the observed window


def payback_analysis(
    store: EtlStore,
    hnt_price_usd: float,
    hotspot_cost_usd: float = 400.0,
) -> PaybackStats:
    """Time-to-payback per hotspot at a given HNT price.

    Walks reward shares in chain order, accumulating USD value per
    gateway, and records the block at which each crosses the hardware
    cost.
    """
    if hnt_price_usd <= 0 or hotspot_cost_usd <= 0:
        raise AnalysisError("price and cost must be positive")
    added_block = store.gateway_added_blocks()
    cumulative: Dict[Address, float] = {}
    payback_block: Dict[Address, int] = {}
    for height, _, gateway, amount_bones, _ in store.reward_share_rows():
        if gateway is None:
            continue
        value = units.bones_to_hnt(amount_bones) * hnt_price_usd
        total = cumulative.get(gateway, 0.0) + value
        cumulative[gateway] = total
        if total >= hotspot_cost_usd and gateway not in payback_block:
            payback_block[gateway] = height
    if not added_block:
        raise AnalysisError("no hotspots on chain")
    payback_days: List[float] = []
    for gateway, block in payback_block.items():
        start = added_block.get(gateway, 0)
        payback_days.append((block - start) / units.BLOCKS_PER_DAY)
    if not payback_days:
        return PaybackStats(
            hotspot_cost_usd=hotspot_cost_usd,
            hnt_price_usd=hnt_price_usd,
            n_hotspots=len(added_block),
            median_payback_days=float("inf"),
            p25_payback_days=float("inf"),
            paid_back_fraction=0.0,
        )
    array = np.sort(np.array(payback_days))
    return PaybackStats(
        hotspot_cost_usd=hotspot_cost_usd,
        hnt_price_usd=hnt_price_usd,
        n_hotspots=len(added_block),
        median_payback_days=median(array),
        p25_payback_days=percentile(array, 25),
        paid_back_fraction=len(array) / len(added_block),
    )


_COVERAGE_TYPES = (
    RewardType.POC_CHALLENGER,
    RewardType.POC_CHALLENGEE,
    RewardType.POC_WITNESS,
)


def speculation_ratio(store: EtlStore) -> float:
    """Coverage-reward HNT per data-transfer HNT (the §5 imbalance).

    A large ratio is the paper's "more hotspot activity than user
    activity": the network pays far more for *being there* than for
    *carrying data*.
    """
    by_type = store.rewards_by_type()
    coverage = sum(by_type.get(t.value, 0) for t in _COVERAGE_TYPES)
    data = by_type.get(RewardType.DATA_TRANSFER.value, 0)
    if data == 0:
        raise AnalysisError("no data-transfer rewards on chain")
    return coverage / data
