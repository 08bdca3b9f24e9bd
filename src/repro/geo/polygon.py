"""Polygons, convex hulls and area integration for the coverage models.

The paper's coverage pipeline (§8.2.1) draws convex hulls around PoC
challengees and their witnesses, unions them with per-hotspot disks, and
expresses the result as a percentage of the contiguous-US landmass. The
primitives live here; the model logic lives in :mod:`repro.core.coverage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import GeoError
from repro.geo.geodesy import EARTH_RADIUS_KM, LatLon, local_project_km

__all__ = [
    "Polygon",
    "convex_hull",
    "disk_area_km2",
    "ring_contains",
    "ring_contains_many",
]


@dataclass(frozen=True)
class Polygon:
    """A simple (non-self-intersecting) polygon on the sphere.

    Vertices are stored in order; the ring is implicitly closed. Contains
    tests use the ray-casting rule in lat/lon space, which is correct for
    the mid-latitude, non-pole-crossing, non-antimeridian-crossing shapes
    this library produces (US landmass, witness hulls).
    """

    vertices: Tuple[LatLon, ...]
    _bbox: Tuple[float, float, float, float] = field(
        init=False, repr=False, compare=False, default=(0.0, 0.0, 0.0, 0.0)
    )

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise GeoError(
                f"a polygon needs at least 3 vertices, got {len(self.vertices)}"
            )
        lats = [v.lat for v in self.vertices]
        lons = [v.lon for v in self.vertices]
        object.__setattr__(
            self, "_bbox", (min(lats), min(lons), max(lats), max(lons))
        )

    @classmethod
    def from_points(cls, points: Iterable[LatLon]) -> "Polygon":
        """Build a polygon from an iterable of vertices."""
        return cls(tuple(points))

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        """Bounding box as ``(south, west, north, east)``."""
        return self._bbox

    def _ring(self) -> Tuple[List[float], List[float]]:
        return (
            [v.lat for v in self.vertices], [v.lon for v in self.vertices]
        )

    def contains(self, point: LatLon) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        return ring_contains(*self._ring(), point.lat, point.lon)

    def contains_many(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over parallel lat/lon arrays."""
        return ring_contains_many(*self._ring(), lats, lons)

    def area_km2(self) -> float:
        """Spherical polygon area (Chamberlain–Duquette approximation).

        Accurate to small fractions of a percent for continent-scale
        polygons away from the poles, which covers every shape the
        coverage models produce.
        """
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            v1 = self.vertices[i]
            v2 = self.vertices[(i + 1) % n]
            lam1, lam2 = math.radians(v1.lon), math.radians(v2.lon)
            phi1, phi2 = math.radians(v1.lat), math.radians(v2.lat)
            total += (lam2 - lam1) * (2.0 + math.sin(phi1) + math.sin(phi2))
        return abs(total) * EARTH_RADIUS_KM * EARTH_RADIUS_KM / 2.0

    def centroid(self) -> LatLon:
        """Arithmetic mean of the vertices (adequate for compact shapes)."""
        lat = sum(v.lat for v in self.vertices) / len(self.vertices)
        lon = sum(v.lon for v in self.vertices) / len(self.vertices)
        return LatLon(lat, lon)

    def max_radius_km(self) -> float:
        """Distance from the centroid to the farthest vertex."""
        center = self.centroid()
        return max(center.distance_km(v) for v in self.vertices)


def ring_contains(
    ring_lats: Sequence[float], ring_lons: Sequence[float],
    lat: float, lon: float,
) -> bool:
    """Ray-casting point-in-polygon test over a ring of vertices
    ``(ring_lats[i], ring_lons[i])``; the boundary counts as inside."""
    if not (
        min(ring_lats) <= lat <= max(ring_lats)
        and min(ring_lons) <= lon <= max(ring_lons)
    ):
        return False
    inside = False
    n = len(ring_lats)
    x, y = lon, lat
    for i in range(n):
        x1, y1 = ring_lons[i], ring_lats[i]
        x2, y2 = ring_lons[(i + 1) % n], ring_lats[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
            elif x == x_cross:
                return True
    return inside


def ring_contains_many(
    ring_lats: Sequence[float], ring_lons: Sequence[float],
    lats: np.ndarray, lons: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`ring_contains` over parallel lat/lon arrays.

    Applies the same ray-casting rule (boundary counts as inside) to
    every point in one pass over the edges, so the per-point cost is a
    handful of numpy operations instead of a Python loop over the ring.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    in_bbox = (
        (min(ring_lats) <= lats) & (lats <= max(ring_lats))
        & (min(ring_lons) <= lons) & (lons <= max(ring_lons))
    )
    inside = np.zeros(lats.shape, dtype=bool)
    if not in_bbox.any():
        return inside
    x, y = lons, lats
    on_edge = np.zeros(lats.shape, dtype=bool)
    n = len(ring_lats)
    for i in range(n):
        x1, y1 = ring_lons[i], ring_lats[i]
        x2, y2 = ring_lons[(i + 1) % n], ring_lats[(i + 1) % n]
        if y1 == y2:
            continue  # horizontal edge never satisfies the crossing rule
        crosses = (y1 > y) != (y2 > y)
        if not crosses.any():
            continue
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < x_cross)
        on_edge |= crosses & (x == x_cross)
    return (inside | on_edge) & in_bbox


def convex_hull(points: Sequence[LatLon]) -> Polygon:
    """Convex hull of ``points`` via Andrew's monotone chain.

    The hull is computed on a local tangent-plane projection centred at
    the points' centroid, so it is metrically meaningful at the tens-of-
    kilometre scales of witness geometry. Degenerate inputs (fewer than
    three distinct points, or all collinear) raise :class:`GeoError` —
    the coverage models treat those cases separately (a lone challengee
    has no hull, only its disk).
    """
    distinct = sorted({(p.lat, p.lon) for p in points})
    if len(distinct) < 3:
        raise GeoError(
            f"convex hull needs at least 3 distinct points, got {len(distinct)}"
        )
    origin = LatLon(
        sum(lat for lat, _ in distinct) / len(distinct),
        sum(lon for _, lon in distinct) / len(distinct),
    )
    pts = [LatLon(lat, lon) for lat, lon in distinct]
    projected = local_project_km(pts, origin)
    order = sorted(range(len(projected)), key=lambda i: projected[i])

    def cross(o: Tuple[float, float], a: Tuple[float, float], b: Tuple[float, float]) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[int] = []
    for idx in order:
        while (
            len(lower) >= 2
            and cross(projected[lower[-2]], projected[lower[-1]], projected[idx]) <= 0
        ):
            lower.pop()
        lower.append(idx)
    upper: List[int] = []
    for idx in reversed(order):
        while (
            len(upper) >= 2
            and cross(projected[upper[-2]], projected[upper[-1]], projected[idx]) <= 0
        ):
            upper.pop()
        upper.append(idx)
    hull_indices = lower[:-1] + upper[:-1]
    if len(hull_indices) < 3:
        raise GeoError("points are collinear; convex hull is degenerate")
    return Polygon(tuple(pts[i] for i in hull_indices))


def disk_area_km2(radius_km: float) -> float:
    """Area of a spherical cap of great-circle radius ``radius_km``.

    For the sub-100 km radii in the coverage models this differs from the
    planar πr² by under 0.01 %, but using the exact cap keeps the area
    accounting consistent with the spherical polygon areas.
    """
    if radius_km < 0:
        raise GeoError(f"radius must be non-negative, got {radius_km}")
    angular = radius_km / EARTH_RADIUS_KM
    return (
        2.0
        * math.pi
        * EARTH_RADIUS_KM
        * EARTH_RADIUS_KM
        * (1.0 - math.cos(angular))
    )
