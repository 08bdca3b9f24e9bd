"""Great-circle geometry on a spherical Earth: the scalar half.

All hotspot-to-hotspot and device-to-hotspot distances in the paper are on
the order of metres to a few thousand kilometres, for which the spherical
model (error < 0.5 % vs the WGS-84 ellipsoid) is more than adequate: the
paper itself treats res-12 hex quantisation (~metres) as negligible.

This module imports no numpy, so the hex index, the ETL store and the
explorer, and with them the serving tier, stay numpy-free. The
vectorised kernels live in :mod:`repro.geo.geodesy`, which re-exports
every name defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.errors import GeoError

__all__ = [
    "EARTH_RADIUS_KM",
    "LatLon",
    "validate_lat_lon",
    "haversine_km",
    "initial_bearing_deg",
    "destination",
    "local_project_km",
    "local_unproject_km",
]

#: Mean Earth radius in kilometres (IUGG).
EARTH_RADIUS_KM: float = 6371.0088


def validate_lat_lon(lat: float, lon: float) -> None:
    """Raise :class:`GeoError` unless ``lat``/``lon`` are in range."""
    if not (-90.0 <= lat <= 90.0):
        raise GeoError(f"latitude out of range [-90, 90]: {lat}")
    if not (-180.0 <= lon <= 180.0):
        raise GeoError(f"longitude out of range [-180, 180]: {lon}")


@dataclass(frozen=True)
class LatLon:
    """A point on the Earth's surface in decimal degrees.

    The Helium blockchain's infamous default location is ``LatLon(0, 0)``
    — "the large cluster in the ocean just below West Africa" (paper §4.1).
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        validate_lat_lon(self.lat, self.lon)

    def distance_km(self, other: "LatLon") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)

    def bearing_deg(self, other: "LatLon") -> float:
        """Initial great-circle bearing towards ``other`` in degrees."""
        return initial_bearing_deg(self.lat, self.lon, other.lat, other.lon)

    def offset(self, bearing_deg_: float, distance_km: float) -> "LatLon":
        """The point ``distance_km`` away along ``bearing_deg_``."""
        return destination(self, bearing_deg_, distance_km)

    def is_null_island(self, tolerance_km: float = 1.0) -> bool:
        """True when the point is the (0, 0) default-location artifact."""
        return self.distance_km(LatLon(0.0, 0.0)) <= tolerance_km


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon points in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial bearing from point 1 to point 2, degrees clockwise from north."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    x = math.sin(dlam) * math.cos(phi2)
    y = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(
        dlam
    )
    return (math.degrees(math.atan2(x, y)) + 360.0) % 360.0


def destination(origin: LatLon, bearing_deg_: float, distance_km: float) -> LatLon:
    """Great-circle destination point from ``origin``.

    Args:
        origin: starting point.
        bearing_deg_: initial bearing, degrees clockwise from north.
        distance_km: distance to travel (must be non-negative).
    """
    if distance_km < 0:
        raise GeoError(f"distance must be non-negative, got {distance_km}")
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg_)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta)
        + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon = math.degrees(lam2)
    # Normalise longitude into [-180, 180].
    lon = (lon + 540.0) % 360.0 - 180.0
    return LatLon(math.degrees(phi2), lon)


def local_project_km(
    points: Iterable[LatLon], origin: LatLon
) -> List[Tuple[float, float]]:
    """Project points to a local tangent plane centred at ``origin``.

    Equirectangular projection: accurate to well under 1 % for the spans
    (tens of kilometres) over which the coverage models draw hulls, and —
    unlike raw lat/lon — it preserves local distances so planar hull and
    area computations are meaningful.
    """
    cos_lat = math.cos(math.radians(origin.lat))
    km_per_deg = math.pi * EARTH_RADIUS_KM / 180.0
    return [
        (
            (p.lon - origin.lon) * km_per_deg * cos_lat,
            (p.lat - origin.lat) * km_per_deg,
        )
        for p in points
    ]


def local_unproject_km(
    xy_km: Iterable[Tuple[float, float]], origin: LatLon
) -> List[LatLon]:
    """Inverse of :func:`local_project_km`."""
    cos_lat = math.cos(math.radians(origin.lat))
    if cos_lat == 0.0:
        raise GeoError("cannot unproject around the poles")
    km_per_deg = math.pi * EARTH_RADIUS_KM / 180.0
    return [
        LatLon(origin.lat + y / km_per_deg, origin.lon + x / (km_per_deg * cos_lat))
        for x, y in xy_km
    ]
