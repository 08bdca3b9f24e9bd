"""Geospatial substrate: geodesy, hex indexing, polygons, and landmass.

This package replaces the external geospatial stack the paper relies on
(Uber H3, GIS landmass data) with self-contained implementations:

* :mod:`repro.geo.sphere` — scalar great-circle math on the WGS-84
  sphere, numpy-free; :mod:`repro.geo.geodesy` adds the vectorised
  kernels.
* :mod:`repro.geo.hexgrid` — a hierarchical hexagonal index with
  H3-compatible resolution semantics (hotspot locations live at res 12).
* :mod:`repro.geo.polygon` — convex hulls, point-in-polygon tests and
  area integration used by the coverage models.
* :mod:`repro.geo.cities` — a synthetic city/population database that
  drives hotspot placement.
* :mod:`repro.geo.landmass` — a contiguous-US boundary model used to
  express coverage as a fraction of landmass.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.geo.sphere": [
        "EARTH_RADIUS_KM", "LatLon", "haversine_km", "destination",
        "initial_bearing_deg",
    ],
    "repro.geo.hexgrid": ["HexCell", "HexGrid", "RESOLUTION_TABLE"],
    "repro.geo.polygon": ["Polygon", "convex_hull"],
})
