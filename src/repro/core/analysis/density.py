"""Hex-aggregated deployment density (the explorer's hex view).

The Helium Explorer aggregates hotspots into coarse H3 cells — the
paper's Figure 16 links a res-8 hex page
(``explorer.helium.com/hotspots/hex/8829a41a95fffff``). These analyses
provide the same aggregation over the ETL replica's folded ``hotspots``
state: counts per cell,
the densest deployments, the HIP-15 density disincentive in action
(how many hotspots sit within 300 m of another), and a spatial
concentration index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.etl.store import EtlStore
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexCell
from repro.geo.spatialindex import SpatialIndex

__all__ = [
    "DensityStats",
    "hex_density",
    "crowding_stats",
    "spatial_gini",
]

#: The explorer aggregates at res 8 (edge ≈ 530 m).
EXPLORER_HEX_RESOLUTION: int = 8


@dataclass(frozen=True)
class DensityStats:
    """Hotspots aggregated into coarse hex cells."""

    resolution: int
    occupied_cells: int
    total_hotspots: int
    max_cell_count: int
    top_cells: Tuple[Tuple[str, int], ...]  # (token, count), densest first

    @property
    def mean_per_occupied_cell(self) -> float:
        """Average hotspots per occupied cell."""
        if self.occupied_cells == 0:
            return 0.0
        return self.total_hotspots / self.occupied_cells


def _located_hotspots(store: EtlStore) -> List[Tuple[str, LatLon]]:
    out = []
    for gateway, _, token in store.hotspot_rows():
        if token is None:
            continue
        location = HexCell.from_token(token).center()
        if location.is_null_island():
            continue
        out.append((gateway, location))
    if not out:
        raise AnalysisError("no located hotspots on chain")
    return out


def hex_density(
    store: EtlStore,
    resolution: int = EXPLORER_HEX_RESOLUTION,
    top_n: int = 10,
) -> DensityStats:
    """Aggregate asserted hotspot locations into res-``resolution`` cells."""
    from repro.geo.hexgrid import HexGrid

    counts: Dict[str, int] = {}
    located = _located_hotspots(store)
    for _, location in located:
        token = HexGrid.encode_cell(location, resolution).token
        counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    return DensityStats(
        resolution=resolution,
        occupied_cells=len(counts),
        total_hotspots=len(located),
        max_cell_count=ranked[0][1],
        top_cells=tuple(ranked[:top_n]),
    )


@dataclass(frozen=True)
class CrowdingStats:
    """The HIP-15 density disincentive, measured (§2.3, §8.2.1)."""

    total_hotspots: int
    #: Hotspots with at least one neighbour inside the 300 m exclusion.
    crowded_hotspots: int
    #: Hotspots with no neighbour within witness range at all ("if a
    #: hotspot cannot 'see' any other hotspots", §2.3).
    isolated_hotspots: int
    witness_range_km: float

    @property
    def crowded_fraction(self) -> float:
        """Share of the fleet forfeiting witness rewards to crowding."""
        return self.crowded_hotspots / self.total_hotspots

    @property
    def isolated_fraction(self) -> float:
        """Share of the fleet that can only earn challenger rewards."""
        return self.isolated_hotspots / self.total_hotspots


def crowding_stats(
    store: EtlStore,
    exclusion_km: float = 0.3,
    witness_range_km: float = 15.0,
) -> CrowdingStats:
    """Count HIP-15-crowded and witness-isolated hotspots."""
    located = _located_hotspots(store)
    index: SpatialIndex[str] = SpatialIndex(cell_deg=0.25)
    for gateway, location in located:
        index.insert(location, gateway)
    crowded = 0
    isolated = 0
    for gateway, location in located:
        in_range = [
            g for _, g in index.within_radius(location, witness_range_km)
            if g != gateway
        ]
        if not in_range:
            isolated += 1
            continue
        near = [
            g for _, g in index.within_radius(location, exclusion_km)
            if g != gateway
        ]
        if near:
            crowded += 1
    return CrowdingStats(
        total_hotspots=len(located),
        crowded_hotspots=crowded,
        isolated_hotspots=isolated,
        witness_range_km=witness_range_km,
    )


def spatial_gini(
    store: EtlStore, resolution: int = EXPLORER_HEX_RESOLUTION
) -> float:
    """Gini coefficient of hotspots over occupied hex cells.

    0 = perfectly even spread (the coverage ideal the incentives chase);
    →1 = everything piled into a few cells (the crowding the decay rule
    punishes). A useful single-number summary of "uncontrolled
    deployment does not ensure predictable coverage" (§10).
    """
    from repro.geo.hexgrid import HexGrid

    counts: Dict[str, int] = {}
    for _, location in _located_hotspots(store):
        token = HexGrid.encode_cell(location, resolution).token
        counts[token] = counts.get(token, 0) + 1
    values = np.sort(np.array(list(counts.values()), dtype=float))
    n = len(values)
    if n == 1:
        return 0.0
    # Standard Gini over the occupied-cell count distribution.
    ranks = np.arange(1, n + 1)
    return float(2 * np.sum(ranks * values) / (n * values.sum()) - (n + 1) / n)
