"""Witness-distribution analyses (§8.2.1; Figures 13 and 14).

Every function reads the ETL replica (:class:`repro.etl.store.EtlStore`)
and its precomputed distance and validity columns, via indexed SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.analysis.quantiles import median, percentile
from repro.errors import AnalysisError
from repro.etl.store import EtlStore

__all__ = [
    "WitnessDistanceStats",
    "witness_distance_cdf",
    "WitnessRssiStats",
    "witness_rssi_cdf",
    "WitnessCountStats",
    "witnesses_per_challenge",
    "validity_breakdown",
]


@dataclass(frozen=True)
class WitnessDistanceStats:
    """Figure 13: distances of purportedly valid witnesses."""

    distances_km: Tuple[float, ...]
    median_km: float
    p95_km: float
    max_km: float
    beyond_25km_fraction: float
    beyond_60km_count: int  # the over-water outlier tail


def witness_distance_cdf(
    store: EtlStore,
    start_height: int = 0,
    end_height: Optional[int] = None,
) -> WitnessDistanceStats:
    """Distance CDF of all valid witnesses over a block window."""
    distances = store.witness_distances(start_height, end_height)
    if not distances:
        raise AnalysisError("no valid witnesses in the requested window")
    array = np.sort(np.array(distances))
    return WitnessDistanceStats(
        distances_km=tuple(float(d) for d in array),
        median_km=median(array),
        p95_km=percentile(array, 95),
        max_km=float(array[-1]),
        beyond_25km_fraction=float((array > 25.0).mean()),
        beyond_60km_count=int((array > 60.0).sum()),
    )


@dataclass(frozen=True)
class WitnessRssiStats:
    """Figure 14: RSSI distribution of witness reports."""

    rssis_dbm: Tuple[float, ...]
    median_dbm: float
    p5_dbm: float
    p95_dbm: float


def witness_rssi_cdf(
    store: EtlStore,
    start_height: int = 0,
    end_height: Optional[int] = None,
    valid_only: bool = True,
) -> WitnessRssiStats:
    """RSSI CDF of witness reports over a block window.

    The paper computes this over a four-day window (2021-05-18 to
    2021-05-22) of PoC receipts; pass the matching block bounds to
    reproduce that slice.
    """
    rssis = store.witness_rssis(start_height, end_height, valid_only)
    if not rssis:
        raise AnalysisError("no witness reports in the requested window")
    array = np.sort(np.array(rssis))
    return WitnessRssiStats(
        rssis_dbm=tuple(float(r) for r in array),
        median_dbm=median(array),
        p5_dbm=percentile(array, 5),
        p95_dbm=percentile(array, 95),
    )


@dataclass(frozen=True)
class WitnessCountStats:
    """Valid witnesses per challenge ("more witnesses are better", §2.3)."""

    challenges: int
    histogram: Tuple[Tuple[int, int], ...]  # (witness count, challenges)
    zero_witness_fraction: float
    median_witnesses: float
    max_witnesses: int


def witnesses_per_challenge(store: EtlStore) -> WitnessCountStats:
    """Distribution of valid-witness counts across challenges.

    The zero-witness fraction is the §2.3 sparse-deployment population:
    hotspots that "can only earn PoC rewards for challenge construction".
    """
    counts = store.receipt_valid_witness_counts()
    if not counts:
        raise AnalysisError("no PoC receipts on chain")
    histogram: dict = {}
    for count in counts:
        histogram[count] = histogram.get(count, 0) + 1
    array = np.array(counts)
    return WitnessCountStats(
        challenges=len(counts),
        histogram=tuple(sorted(histogram.items())),
        zero_witness_fraction=float((array == 0).mean()),
        median_witnesses=median(array),
        max_witnesses=int(array.max()),
    )


def validity_breakdown(store: EtlStore) -> dict:
    """Counts of witness reports by validity outcome/reason."""
    breakdown = store.witness_validity_breakdown()
    if sum(breakdown.values()) == 0:
        raise AnalysisError("no witness reports on chain")
    return breakdown
