"""Location-change analyses (§4.1; Figures 2, 3, 4).

All results come from scanning the assert_location transactions of the
ETL replica, as the paper scans the DeWi replica. A hotspot's *moves*
are its asserts after the first (the initial assert publishes, it does
not move).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.chain.crypto import Address
from repro.errors import AnalysisError
from repro.etl.store import EtlStore
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexCell

__all__ = [
    "MoveStats",
    "MoveRecord",
    "collect_move_records",
    "move_stats",
    "move_distance_cdf",
    "long_moves",
    "move_interval_blocks",
    "null_island_stats",
]


@dataclass(frozen=True)
class MoveRecord:
    """One relocation: from → to, with chain timing."""

    gateway: Address
    from_location: LatLon
    to_location: LatLon
    block: int
    prev_block: int

    @property
    def distance_km(self) -> float:
        """Great-circle length of the move."""
        return self.from_location.distance_km(self.to_location)

    @property
    def interval_blocks(self) -> int:
        """Blocks since the previous assert of this hotspot."""
        return self.block - self.prev_block


@dataclass
class MoveStats:
    """Figure 2 summary: moves-per-hotspot distribution."""

    n_hotspots: int
    moves_per_hotspot: Dict[int, int]
    never_moved_fraction: float
    at_most_two_fraction: float
    more_than_five_fraction: float
    max_moves: int
    #: Conditional (among movers) versions, the consistent Fig. 2 reading.
    movers_at_most_two_fraction: float = 0.0
    movers_more_than_five_fraction: float = 0.0


def collect_move_records(store: EtlStore) -> List[MoveRecord]:
    """All relocations, in chain order."""
    last_seen: Dict[Address, Tuple[LatLon, int]] = {}
    records: List[MoveRecord] = []
    for height, _, gateway, token, _ in store.assert_rows():
        location = HexCell.from_token(token).center()
        previous = last_seen.get(gateway)
        if previous is not None:
            records.append(MoveRecord(
                gateway=gateway,
                from_location=previous[0],
                to_location=location,
                block=height,
                prev_block=previous[1],
            ))
        last_seen[gateway] = (location, height)
    return records


def move_stats(store: EtlStore) -> MoveStats:
    """Figure 2: the distribution of location changes per hotspot."""
    move_counts: Dict[Address, int] = {}
    for _, _, gateway, _, _ in store.assert_rows():
        move_counts[gateway] = move_counts.get(gateway, 0) + 1
    if not move_counts:
        raise AnalysisError("no assert_location transactions on chain")
    # nonce 1 = initial assert; moves = asserts - 1.
    moves = {gw: n - 1 for gw, n in move_counts.items()}
    histogram: Dict[int, int] = {}
    for count in moves.values():
        histogram[count] = histogram.get(count, 0) + 1
    n = len(moves)
    never = histogram.get(0, 0)
    at_most_two = sum(v for k, v in histogram.items() if k <= 2)
    more_than_five = sum(v for k, v in histogram.items() if k > 5)
    movers = n - never
    return MoveStats(
        n_hotspots=n,
        moves_per_hotspot=dict(sorted(histogram.items())),
        never_moved_fraction=never / n,
        at_most_two_fraction=at_most_two / n,
        more_than_five_fraction=more_than_five / n,
        max_moves=max(histogram) if histogram else 0,
        movers_at_most_two_fraction=(
            sum(v for k, v in histogram.items() if 1 <= k <= 2) / movers
            if movers else 0.0
        ),
        movers_more_than_five_fraction=(
            more_than_five / movers if movers else 0.0
        ),
    )


def move_distance_cdf(
    records: List[MoveRecord], exclude_null_island: bool = False
) -> np.ndarray:
    """Sorted move distances (km) for the Figure 3a/3b CDFs."""
    distances = [
        r.distance_km
        for r in records
        if not (
            exclude_null_island
            and (r.from_location.is_null_island() or r.to_location.is_null_island())
        )
    ]
    if not distances:
        raise AnalysisError("no move records to build a CDF from")
    return np.sort(np.array(distances))


def long_moves(
    records: List[MoveRecord], threshold_km: float = 500.0
) -> List[MoveRecord]:
    """Figure 3c: relocations longer than ``threshold_km``."""
    return [r for r in records if r.distance_km > threshold_km]


@dataclass(frozen=True)
class MoveIntervalStats:
    """Figure 4: CDF anchors of blocks between relocations."""

    intervals_blocks: Tuple[int, ...]
    within_day_fraction: float
    within_week_fraction: float
    within_month_fraction: float


def move_interval_blocks(records: List[MoveRecord]) -> MoveIntervalStats:
    """Figure 4: block intervals between consecutive relocations."""
    if not records:
        raise AnalysisError("no move records")
    intervals = sorted(r.interval_blocks for r in records)
    array = np.array(intervals)
    day, week, month = 1440, 7 * 1440, 30 * 1440
    n = len(array)
    return MoveIntervalStats(
        intervals_blocks=tuple(intervals),
        within_day_fraction=float((array <= day).sum()) / n,
        within_week_fraction=float((array <= week).sum()) / n,
        within_month_fraction=float((array <= month).sum()) / n,
    )


@dataclass(frozen=True)
class NullIslandStats:
    """§4.1 (0,0) accounting: 372 asserts, 331 (89 %) first-time."""

    total_null_asserts: int
    first_time_null_asserts: int
    relocations_to_null: int
    currently_at_null: int

    @property
    def first_time_fraction(self) -> float:
        """Share of (0,0) asserts that were initial asserts."""
        if self.total_null_asserts == 0:
            return 0.0
        return self.first_time_null_asserts / self.total_null_asserts


def null_island_stats(store: EtlStore) -> NullIslandStats:
    """Count (0, 0) location assertions and who stayed there."""
    total = 0
    first_time = 0
    relocations = 0
    current: Dict[Address, bool] = {}
    for _, _, gateway, token, nonce in store.assert_rows():
        location = HexCell.from_token(token).center()
        at_null = location.is_null_island()
        current[gateway] = at_null
        if at_null:
            total += 1
            if nonce == 1:
                first_time += 1
            else:
                relocations += 1
    return NullIslandStats(
        total_null_asserts=total,
        first_time_null_asserts=first_time,
        relocations_to_null=relocations,
        currently_at_null=sum(1 for v in current.values() if v),
    )
