"""Great-circle geometry on a spherical Earth, scalar and vectorised.

The scalar functions and :class:`LatLon` are defined in the numpy-free
:mod:`repro.geo.sphere` and re-exported here; this module adds the numpy
kernels the day loop and the analyses run over whole fleets.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.errors import GeoError
from repro.geo.sphere import (
    EARTH_RADIUS_KM,
    LatLon,
    destination,
    haversine_km,
    initial_bearing_deg,
    local_project_km,
    local_unproject_km,
    validate_lat_lon,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "LatLon",
    "validate_lat_lon",
    "haversine_km",
    "haversine_km_many",
    "initial_bearing_deg",
    "destination",
    "destination_many",
    "latlon_arrays",
    "local_project_km",
    "local_unproject_km",
]


def haversine_km_many(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorised haversine over numpy arrays (broadcasts like numpy)."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = np.radians(np.asarray(lat2) - np.asarray(lat1))
    dlam = np.radians(np.asarray(lon2) - np.asarray(lon1))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def latlon_arrays(points: Iterable[LatLon]) -> Tuple[np.ndarray, np.ndarray]:
    """Split an iterable of :class:`LatLon` into (lat, lon) float arrays."""
    pts = list(points)
    lats = np.fromiter((p.lat for p in pts), dtype=float, count=len(pts))
    lons = np.fromiter((p.lon for p in pts), dtype=float, count=len(pts))
    return lats, lons


def destination_many(
    lat: np.ndarray,
    lon: np.ndarray,
    bearing_deg_: np.ndarray,
    distance_km: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`destination` (broadcasts like numpy).

    Raises:
        GeoError: when any distance is negative.
    """
    delta = np.asarray(distance_km, dtype=float) / EARTH_RADIUS_KM
    if np.any(delta < 0):
        raise GeoError("distances must be non-negative")
    theta = np.radians(np.asarray(bearing_deg_, dtype=float))
    phi1 = np.radians(np.asarray(lat, dtype=float))
    lam1 = np.radians(np.asarray(lon, dtype=float))
    sin_phi2 = (
        np.sin(phi1) * np.cos(delta)
        + np.cos(phi1) * np.sin(delta) * np.cos(theta)
    )
    phi2 = np.arcsin(np.clip(sin_phi2, -1.0, 1.0))
    lam2 = lam1 + np.arctan2(
        np.sin(theta) * np.sin(delta) * np.cos(phi1),
        np.cos(delta) - np.sin(phi1) * sin_phi2,
    )
    out_lon = (np.degrees(lam2) + 540.0) % 360.0 - 180.0
    return np.degrees(phi2), out_lon
