"""Adoption-curve analyses (§4.2, Figure 5).

Two sources are combined, as in the paper: the chain (its ETL replica)
gives *connected* counts (every add_gateway ever); the p2p/world side
gives *online* counts ("fully synced and participating in PoC
challenges").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.errors import AnalysisError
from repro.etl.store import EtlStore

__all__ = ["GrowthCurves", "growth_curves", "snapshot"]


@dataclass(frozen=True)
class GrowthCurves:
    """Daily adoption series (Figure 5)."""

    days: Tuple[int, ...]
    daily_added: Tuple[int, ...]
    cumulative_connected: Tuple[int, ...]
    online: Tuple[int, ...]
    online_us: Tuple[int, ...]
    online_international: Tuple[int, ...]

    def peak_daily(self) -> int:
        """Largest single-day addition."""
        return max(self.daily_added)

    def final_daily_rate(self, window_days: int = 14) -> float:
        """Mean additions/day over the final window (the "1,000/day"
        claim, descaled by the caller's scale factor)."""
        tail = self.daily_added[-window_days:]
        return float(np.mean(tail))


def growth_curves(
    store: EtlStore,
    growth_log: Optional[Sequence] = None,
) -> GrowthCurves:
    """Build Figure 5's series from the chain (+ optional world log).

    Args:
        store: the ETL replica, source of add_gateway timing.
        growth_log: optional engine :class:`GrowthLogRow` sequence for
            the online/US split; without it, online columns are zeros.
    """
    adds_by_day: dict = {}
    for height in store.transaction_heights("add_gateway"):
        day = height // units.BLOCKS_PER_DAY
        adds_by_day[day] = adds_by_day.get(day, 0) + 1
    if not adds_by_day:
        raise AnalysisError("no add_gateway transactions on chain")
    horizon = max(adds_by_day)
    if growth_log:
        horizon = max(horizon, max(row.day for row in growth_log))
    days = list(range(horizon + 1))
    daily = [adds_by_day.get(d, 0) for d in days]
    cumulative = list(np.cumsum(daily))

    online = [0] * len(days)
    online_us = [0] * len(days)
    online_intl = [0] * len(days)
    if growth_log:
        for row in growth_log:
            if row.day < len(days):
                online[row.day] = row.online
                online_us[row.day] = row.online_us
                online_intl[row.day] = row.online_international
    return GrowthCurves(
        days=tuple(days),
        daily_added=tuple(daily),
        cumulative_connected=tuple(int(c) for c in cumulative),
        online=tuple(online),
        online_us=tuple(online_us),
        online_international=tuple(online_intl),
    )


@dataclass(frozen=True)
class GrowthSnapshot:
    """Connected/online split at one day (the paper's Mar 7 / May 26)."""

    day: int
    connected: int
    online: int
    online_us: int
    online_international: int


def snapshot(curves: GrowthCurves, day: int) -> GrowthSnapshot:
    """The network state on simulation day ``day``."""
    if day < 0 or day >= len(curves.days):
        raise AnalysisError(
            f"day {day} outside curve range [0, {len(curves.days) - 1}]"
        )
    return GrowthSnapshot(
        day=day,
        connected=curves.cumulative_connected[day],
        online=curves.online[day],
        online_us=curves.online_us[day],
        online_international=curves.online_international[day],
    )
