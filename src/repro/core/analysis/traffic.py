"""Data-transfer analyses (§5, Figure 8), over the state-channel
transactions of the ETL replica."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.errors import AnalysisError
from repro.etl.store import EtlStore

__all__ = [
    "ChannelShareStats",
    "channel_share",
    "packets_by_close",
    "TrafficSeries",
    "traffic_series",
    "spam_episode",
]

_CONSOLE_OUIS = (1, 2)


@dataclass(frozen=True)
class ChannelShareStats:
    """§5.2: who runs routers."""

    total_channel_txns: int
    console_channel_txns: int
    console_share: float
    ouis_seen: Tuple[int, ...]


def channel_share(store: EtlStore) -> ChannelShareStats:
    """Console (OUI 1/2) share of state-channel open/close traffic."""
    total = 0
    console = 0
    ouis = set()
    for oui in store.channel_ouis():
        total += 1
        ouis.add(oui)
        if oui in _CONSOLE_OUIS:
            console += 1
    if total == 0:
        raise AnalysisError("no state-channel transactions on chain")
    return ChannelShareStats(
        total_channel_txns=total,
        console_channel_txns=console,
        console_share=console / total,
        ouis_seen=tuple(sorted(ouis)),
    )


def packets_by_close(store: EtlStore) -> List[Tuple[int, int, int]]:
    """Figure 8's raw series: (block, oui, packets) per closing."""
    return list(store.channel_close_rows())


@dataclass(frozen=True)
class TrafficSeries:
    """Daily packet totals split Console / third-party."""

    days: Tuple[int, ...]
    console_packets: Tuple[int, ...]
    third_party_packets: Tuple[int, ...]

    def total_on(self, day: int) -> int:
        """All packets on one day."""
        index = self.days.index(day)
        return self.console_packets[index] + self.third_party_packets[index]

    def final_packets_per_second(self, window_days: int = 7) -> float:
        """Aggregate rate over the final window (the ~14 pkt/s claim)."""
        tail_console = self.console_packets[-window_days:]
        tail_third = self.third_party_packets[-window_days:]
        per_day = (sum(tail_console) + sum(tail_third)) / max(
            len(tail_console), 1
        )
        return per_day / 86_400.0


def traffic_series(store: EtlStore) -> TrafficSeries:
    """Daily packet totals from state-channel closings."""
    console: Dict[int, int] = {}
    third: Dict[int, int] = {}
    for height, oui, packets in store.channel_close_rows():
        day = height // units.BLOCKS_PER_DAY
        bucket = console if oui in _CONSOLE_OUIS else third
        bucket[day] = bucket.get(day, 0) + packets
    if not console and not third:
        raise AnalysisError("no state-channel closings on chain")
    horizon = max(list(console) + list(third))
    days = tuple(range(horizon + 1))
    return TrafficSeries(
        days=days,
        console_packets=tuple(console.get(d, 0) for d in days),
        third_party_packets=tuple(third.get(d, 0) for d in days),
    )


@dataclass(frozen=True)
class SpamEpisode:
    """§5.3.2: the HIP 10 arbitrage spike."""

    peak_day: int
    peak_packets: int
    baseline_before: float
    spike_multiplier: float
    decayed_by_day: Optional[int]


def spam_episode(
    series: TrafficSeries, window: int = 14, threshold_multiplier: float = 5.0
) -> SpamEpisode:
    """Locate the traffic spike: peak day, magnitude, decay day.

    The spike is detected as the maximum day whose volume exceeds
    ``threshold_multiplier`` times the trailing-window baseline.
    """
    totals = [c + t for c, t in zip(series.console_packets, series.third_party_packets)]
    if len(totals) < window + 2:
        raise AnalysisError("traffic series too short for spike detection")
    peak_day = max(range(window, len(totals)), key=lambda d: totals[d])
    baseline = sum(totals[max(0, peak_day - 2 * window):peak_day - window // 2])
    baseline /= max(peak_day - window // 2 - max(0, peak_day - 2 * window), 1)
    baseline = max(baseline, 1.0)
    multiplier = totals[peak_day] / baseline
    decayed_by = None
    for day in range(peak_day + 1, len(totals)):
        if totals[day] < threshold_multiplier * baseline:
            decayed_by = day
            break
    return SpamEpisode(
        peak_day=peak_day,
        peak_packets=totals[peak_day],
        baseline_before=baseline,
        spike_multiplier=multiplier,
        decayed_by_day=decayed_by,
    )
