"""Flat-grid spatial index for radius queries over point sets.

PoC witnessing ("which hotspots are in radio range of this challengee?"),
relay analysis and the coverage rasteriser all need fast nearest/within-
radius queries over tens of thousands of hotspots. A uniform lat/lon bin
grid is ideal: O(1) insert, and a radius query touches only the bins the
query circle overlaps.

Each bin keeps, next to its ``(point, item)`` list, a lazily built numpy
coordinate array, so a radius query concatenates the candidate bins and
runs one vectorised haversine over all candidates instead of a Python
loop — the dominant cost at witness-query sizes.

Longitude bins wrap modulo the grid width, so queries near the ±180°
antimeridian see candidates on both sides of the seam.
"""

from __future__ import annotations

import math
from typing import Dict, Generic, Iterable, List, Set, Tuple, TypeVar

import numpy as np

from repro.errors import GeoError
from repro.geo.geodesy import LatLon, haversine_km_many

__all__ = ["SpatialIndex"]

T = TypeVar("T")


class SpatialIndex(Generic[T]):
    """Index arbitrary items by location; query by great-circle radius.

    Args:
        cell_deg: bin size in degrees. The default 0.5° (~55 km N-S) suits
            the 10–100 km radii of witness queries; pass a smaller value
            for dense small-radius workloads.

    >>> index = SpatialIndex()
    >>> index.insert(LatLon(32.7, -117.1), "san-diego")
    >>> index.insert(LatLon(40.7, -74.0), "nyc")
    >>> [item for _, item in index.within_radius(LatLon(32.8, -117.2), 50)]
    ['san-diego']
    """

    def __init__(self, cell_deg: float = 0.5) -> None:
        if cell_deg <= 0:
            raise GeoError(f"cell size must be positive, got {cell_deg}")
        self.cell_deg = cell_deg
        #: Number of longitude bins around the full circle; bin keys wrap
        #: modulo this so ±180° neighbours share the seam bins.
        self._n_lon_bins = max(1, int(math.ceil(360.0 / cell_deg)))
        self._bins: Dict[Tuple[int, int], List[Tuple[LatLon, T]]] = {}
        self._coords: Dict[Tuple[int, int], np.ndarray] = {}
        self._dirty: Set[Tuple[int, int]] = set()
        self._count = 0

    def _key(self, point: LatLon) -> Tuple[int, int]:
        return (
            int(math.floor(point.lat / self.cell_deg)),
            int(math.floor(point.lon / self.cell_deg)) % self._n_lon_bins,
        )

    def insert(self, point: LatLon, item: T) -> None:
        """Add one item at ``point``."""
        key = self._key(point)
        self._bins.setdefault(key, []).append((point, item))
        self._dirty.add(key)
        self._count += 1

    def insert_many(self, pairs: Iterable[Tuple[LatLon, T]]) -> None:
        """Add several ``(point, item)`` pairs."""
        for point, item in pairs:
            self.insert(point, item)

    def __len__(self) -> int:
        return self._count

    def _bin_coords(self, key: Tuple[int, int]) -> np.ndarray:
        """The (n, 2) lat/lon array for one bin, rebuilt after inserts."""
        coords = self._coords.get(key)
        if coords is None or key in self._dirty:
            bucket = self._bins[key]
            coords = np.array(
                [(p.lat, p.lon) for p, _ in bucket], dtype=float
            ).reshape(len(bucket), 2)
            self._coords[key] = coords
            self._dirty.discard(key)
        return coords

    def _candidate_keys(
        self, center: LatLon, radius_km: float
    ) -> List[Tuple[int, int]]:
        """Keys of every bin the query circle can overlap, in scan order."""
        lat_pad = radius_km / 110.574 / self.cell_deg
        cos_lat = max(math.cos(math.radians(center.lat)), 0.05)
        lon_pad = radius_km / (111.320 * cos_lat) / self.cell_deg
        lat0 = int(math.floor(center.lat / self.cell_deg))
        lon0 = int(math.floor(center.lon / self.cell_deg))
        lat_span = int(math.ceil(lat_pad)) + 1
        lon_span = int(math.ceil(lon_pad)) + 1
        n_lon = self._n_lon_bins
        # Wrap the longitude bins so seam-adjacent bins are found (a
        # query at +179.9° must see points binned at −179.9°); when the
        # padded window laps the whole circle (near the poles), visit
        # each bin once, in first-occurrence scan order.
        lon_bins = [
            (lon0 + dlon) % n_lon
            for dlon in range(-lon_span, min(lon_span + 1, n_lon - lon_span))
        ]
        bins = self._bins
        return [
            key
            for lat_bin in range(lat0 - lat_span, lat0 + lat_span + 1)
            for lon_bin in lon_bins
            if (key := (lat_bin, lon_bin)) in bins
        ]

    def within_radius_distances(
        self, center: LatLon, radius_km: float
    ) -> Tuple[List[Tuple[LatLon, T]], np.ndarray]:
        """Like :meth:`within_radius`, plus the distance of each hit.

        One vectorised haversine pass filters every candidate from the
        overlapping bins; the distances array aligns with the returned
        pairs so callers (witness selection, nearest) need not recompute.
        """
        if radius_km < 0:
            raise GeoError(f"radius must be non-negative, got {radius_km}")
        keys = self._candidate_keys(center, radius_km)
        if not keys:
            return [], np.empty(0)
        coords = np.concatenate([self._bin_coords(key) for key in keys])
        distances = haversine_km_many(
            center.lat, center.lon, coords[:, 0], coords[:, 1]
        )
        hit = np.flatnonzero(distances <= radius_km)
        # Resolve hits back to their (point, item) pairs by walking the
        # per-bin buckets with a running offset — hits are typically a
        # small fraction of the candidates, so materialising the full
        # concatenated pair list first would mostly be thrown away.
        results: List[Tuple[LatLon, T]] = []
        bins = self._bins
        bucket = bins[keys[0]]
        bin_pos = 0
        base = 0
        for i in hit.tolist():
            while i - base >= len(bucket):
                base += len(bucket)
                bin_pos += 1
                bucket = bins[keys[bin_pos]]
            results.append(bucket[i - base])
        return results, distances[hit]

    def within_radius(
        self, center: LatLon, radius_km: float
    ) -> List[Tuple[LatLon, T]]:
        """All ``(point, item)`` within ``radius_km`` of ``center``.

        Results are exact (candidates from overlapping bins are distance-
        filtered) and unordered.
        """
        results, _ = self.within_radius_distances(center, radius_km)
        return results

    def count_within_radius(self, center: LatLon, radius_km: float) -> int:
        """Number of items within ``radius_km`` of ``center``."""
        return len(self.within_radius(center, radius_km))

    def nearest(self, center: LatLon, max_radius_km: float = 500.0) -> Tuple[LatLon, T]:
        """The closest item within ``max_radius_km``.

        Expands the search ring geometrically; raises :class:`GeoError`
        when nothing lies within the cap.
        """
        radius = max(self.cell_deg * 55.0, 1.0)
        while radius <= max_radius_km:
            candidates, distances = self.within_radius_distances(center, radius)
            if candidates:
                return candidates[int(np.argmin(distances))]
            radius *= 2.0
        candidates, distances = self.within_radius_distances(center, max_radius_km)
        if candidates:
            return candidates[int(np.argmin(distances))]
        raise GeoError(f"no items within {max_radius_km} km of {center}")
