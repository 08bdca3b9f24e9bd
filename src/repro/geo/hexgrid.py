"""Hierarchical hexagonal geospatial index with H3-compatible semantics.

The Helium blockchain stores hotspot locations as res-12 cells of Uber's H3
index (average edge 9.4 m, average area 3.1 m²; paper §4.1). This module
provides a self-contained substitute with the properties the paper relies
on:

* 16 resolutions (0–15) whose average edge lengths match H3's aperture-7
  ladder (each resolution shrinks edges by √7).
* ``encode``/``decode`` that quantise a lat/lon to the containing cell and
  return the cell centre — the paper "assume[s] all hotspots are located at
  the centre of their hex".
* Parent/child traversal, neighbours and k-rings.
* A *pentagon distortion* flag: H3 places 12 pentagons per resolution at
  icosahedron vertices, and PoC witness validity rejects "pentagonally
  distorted" geometry (§8.2.1). We flag cells near the same 12 vertices.

Geometry is computed on a pointy-top axial hex lattice over a global
equirectangular projection. Like real H3 cells (min 1.9 m² / max 3.7 m² at
res 12), our cells vary in ground-truth size with latitude; the paper notes
this variation is irrelevant at the hundreds-of-metres scales analysed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from repro.errors import GeoError
from repro.geo.sphere import EARTH_RADIUS_KM, LatLon, validate_lat_lon

__all__ = [
    "MIN_RESOLUTION",
    "MAX_RESOLUTION",
    "HOTSPOT_RESOLUTION",
    "RESOLUTION_TABLE",
    "ResolutionInfo",
    "HexCell",
    "HexGrid",
    "encode_cell_uncached",
    "pentagon_distorted_uncached",
]

MIN_RESOLUTION: int = 0
MAX_RESOLUTION: int = 15

#: Hotspot locations are asserted at res 12 (paper §4.1).
HOTSPOT_RESOLUTION: int = 12

#: H3's average res-0 edge length in km; finer levels divide by √7 (aperture 7).
_EDGE_R0_KM: float = 1107.712591

#: km per degree of latitude on the sphere (also of longitude at the equator).
_KM_PER_DEG: float = math.pi * EARTH_RADIUS_KM / 180.0

#: Icosahedron vertex latitudes/longitudes (the 12 pentagon sites in H3's
#: layout, to within the fidelity our distortion flag needs).
_ICOSA_VERTICES: Tuple[Tuple[float, float], ...] = (
    (90.0, 0.0),
    (-90.0, 0.0),
    (26.57, -180.0),
    (26.57, -108.0),
    (26.57, -36.0),
    (26.57, 36.0),
    (26.57, 108.0),
    (-26.57, -144.0),
    (-26.57, -72.0),
    (-26.57, 0.0),
    (-26.57, 72.0),
    (-26.57, 144.0),
)


@dataclass(frozen=True)
class ResolutionInfo:
    """Average geometric properties of a grid resolution."""

    resolution: int
    edge_km: float
    area_km2: float

    @property
    def edge_m(self) -> float:
        """Average edge length in metres."""
        return self.edge_km * 1000.0

    @property
    def area_m2(self) -> float:
        """Average cell area in square metres."""
        return self.area_km2 * 1_000_000.0


def _build_resolution_table() -> Dict[int, ResolutionInfo]:
    table = {}
    for res in range(MIN_RESOLUTION, MAX_RESOLUTION + 1):
        edge = _EDGE_R0_KM / (math.sqrt(7.0) ** res)
        # Regular hexagon area = (3√3 / 2) · edge².
        area = 1.5 * math.sqrt(3.0) * edge * edge
        table[res] = ResolutionInfo(res, edge, area)
    return table


#: Average edge length and area per resolution; res 12 edge ≈ 9.4 m.
RESOLUTION_TABLE: Dict[int, ResolutionInfo] = _build_resolution_table()

#: Axial-coordinate offsets of the six hex neighbours (pointy-top).
_AXIAL_DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)


def _check_resolution(resolution: int) -> None:
    if not (MIN_RESOLUTION <= resolution <= MAX_RESOLUTION):
        raise GeoError(
            f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
            f"got {resolution}"
        )


def _cube_round(qf: float, rf: float) -> Tuple[int, int]:
    """Round fractional axial coordinates to the nearest hex centre."""
    sf = -qf - rf
    q = round(qf)
    r = round(rf)
    s = round(sf)
    dq = abs(q - qf)
    dr = abs(r - rf)
    ds = abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    return int(q), int(r)


@dataclass(frozen=True)
class HexCell:
    """One cell of the hierarchical hex grid.

    Instances are value objects: equal cells compare and hash equal, so
    they can key dictionaries exactly as H3 indexes key the Helium ledger.
    """

    resolution: int
    q: int
    r: int

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)

    # -- geometry ---------------------------------------------------------

    @property
    def edge_km(self) -> float:
        """Average edge length of cells at this resolution."""
        return RESOLUTION_TABLE[self.resolution].edge_km

    def center(self) -> LatLon:
        """Cell centre as a lat/lon point (clamped to valid range)."""
        size = self.edge_km
        x_km = size * math.sqrt(3.0) * (self.q + self.r / 2.0)
        y_km = size * 1.5 * self.r
        lat = max(-90.0, min(90.0, y_km / _KM_PER_DEG))
        lon = x_km / _KM_PER_DEG
        lon = (lon + 540.0) % 360.0 - 180.0
        return LatLon(lat, lon)

    def boundary(self) -> List[LatLon]:
        """The six cell vertices, counter-clockwise."""
        size = self.edge_km
        cx = size * math.sqrt(3.0) * (self.q + self.r / 2.0)
        cy = size * 1.5 * self.r
        points = []
        for i in range(6):
            angle = math.radians(60.0 * i - 30.0)
            x_km = cx + size * math.cos(angle)
            y_km = cy + size * math.sin(angle)
            lat = max(-90.0, min(90.0, y_km / _KM_PER_DEG))
            lon = (x_km / _KM_PER_DEG + 540.0) % 360.0 - 180.0
            points.append(LatLon(lat, lon))
        return points

    # -- identity ---------------------------------------------------------

    @property
    def token(self) -> str:
        """Compact printable identifier, e.g. ``'c-12-8819-22041'``."""
        return f"c-{self.resolution}-{self.q}-{self.r}"

    @classmethod
    def from_token(cls, token: str) -> "HexCell":
        """Parse a token produced by :attr:`token`."""
        parts = token.split("-")
        # A leading "c" plus three signed integers; minus signs introduce
        # empty strings when split, so re-join and parse defensively.
        if not token.startswith("c-"):
            raise GeoError(f"not a hex cell token: {token!r}")
        body = token[2:]
        try:
            res_str, q_str, r_str = _split_signed(body)
            return cls(int(res_str), int(q_str), int(r_str))
        except ValueError as exc:
            raise GeoError(f"malformed hex cell token: {token!r}") from exc

    # -- topology ---------------------------------------------------------

    def neighbors(self) -> List["HexCell"]:
        """The six adjacent cells at the same resolution."""
        return [
            HexCell(self.resolution, self.q + dq, self.r + dr)
            for dq, dr in _AXIAL_DIRECTIONS
        ]

    def k_ring(self, k: int) -> List["HexCell"]:
        """All cells within grid distance ``k`` (inclusive of self)."""
        if k < 0:
            raise GeoError(f"k must be non-negative, got {k}")
        cells = []
        for dq in range(-k, k + 1):
            lo = max(-k, -dq - k)
            hi = min(k, -dq + k)
            for dr in range(lo, hi + 1):
                cells.append(HexCell(self.resolution, self.q + dq, self.r + dr))
        return cells

    def grid_distance(self, other: "HexCell") -> int:
        """Hex-lattice distance (number of cell steps) to ``other``."""
        if other.resolution != self.resolution:
            raise GeoError(
                "grid distance requires equal resolutions: "
                f"{self.resolution} vs {other.resolution}"
            )
        dq = self.q - other.q
        dr = self.r - other.r
        return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

    # -- hierarchy --------------------------------------------------------

    def parent(self, resolution: int | None = None) -> "HexCell":
        """The containing cell at a coarser resolution (default: one up)."""
        target = self.resolution - 1 if resolution is None else resolution
        _check_resolution(target)
        if target > self.resolution:
            raise GeoError(
                f"parent resolution {target} is finer than cell "
                f"resolution {self.resolution}"
            )
        cell = self
        while cell.resolution > target:
            cell = HexGrid.encode_cell(cell.center(), cell.resolution - 1)
        return cell

    def children(self, resolution: int | None = None) -> List["HexCell"]:
        """The cells one resolution finer whose parent is this cell.

        Like H3's aperture-7 hierarchy this returns approximately seven
        cells per step.
        """
        target = self.resolution + 1 if resolution is None else resolution
        _check_resolution(target)
        if target < self.resolution:
            raise GeoError(
                f"child resolution {target} is coarser than cell "
                f"resolution {self.resolution}"
            )
        cells = [self]
        for _ in range(target - self.resolution):
            next_cells = []
            seen = set()
            for cell in cells:
                fine_res = cell.resolution + 1
                seed = HexGrid.encode_cell(cell.center(), fine_res)
                for candidate in seed.k_ring(2):
                    if candidate in seen:
                        continue
                    if candidate.parent(cell.resolution) == cell:
                        seen.add(candidate)
                        next_cells.append(candidate)
            cells = next_cells
        return cells

    # -- H3 artifact emulation ---------------------------------------------

    def is_pentagon_distorted(self) -> bool:
        """True if the cell sits near an icosahedron vertex.

        H3 places 12 pentagons per resolution at icosahedron vertices;
        distance computations across them are distorted, and PoC witness
        validation rejects "pentagonally distorted" witnesses (§8.2.1).

        Cells are value objects, so the answer is memoised per cell —
        witness validation asks this for the same asserted cells on
        every challenge.
        """
        return _pentagon_distorted(self)


def pentagon_distorted_uncached(cell: HexCell) -> bool:
    """The icosahedron-vertex proximity test behind
    :meth:`HexCell.is_pentagon_distorted`, recomputed on every call.

    The memo wraps this function; the scalar validity check
    (:meth:`repro.poc.validity.WitnessValidityChecker.check`) calls it
    directly, and the property tests pin the memo to it.
    """
    center = cell.center()
    threshold_km = max(5.0 * cell.edge_km, 1.0)
    for lat, lon in _ICOSA_VERTICES:
        if center.distance_km(LatLon(lat, lon)) <= threshold_km:
            return True
    return False


_pentagon_distorted = lru_cache(maxsize=65536)(pentagon_distorted_uncached)


def encode_cell_uncached(
    point: LatLon, resolution: int = HOTSPOT_RESOLUTION
) -> HexCell:
    """The axial-rounding math behind :meth:`HexGrid.encode_cell`,
    recomputed on every call.

    :class:`LatLon` and :class:`HexCell` are both frozen value objects,
    so the public path memoises point→cell over this function — the PoC
    engine encodes the same asserted locations on every challenge. The
    scalar twin of the challenge kernel in the test suite calls it
    directly, to keep the original cost as a benchmark baseline.
    """
    _check_resolution(resolution)
    validate_lat_lon(point.lat, point.lon)
    size = RESOLUTION_TABLE[resolution].edge_km
    x_km = point.lon * _KM_PER_DEG
    y_km = point.lat * _KM_PER_DEG
    qf = (math.sqrt(3.0) / 3.0 * x_km - y_km / 3.0) / size
    rf = (2.0 / 3.0 * y_km) / size
    q, r = _cube_round(qf, rf)
    return HexCell(resolution, q, r)


_encode_cell = lru_cache(maxsize=1 << 17)(encode_cell_uncached)


def _split_signed(body: str) -> Tuple[str, str, str]:
    """Split ``'12--3-45'``-style bodies into (res, q, r) handling minus signs."""
    fields: List[str] = []
    i = 0
    for _ in range(2):
        j = body.index("-", i + 1 if body[i] == "-" else i)
        fields.append(body[i:j])
        i = j + 1
    fields.append(body[i:])
    if len(fields) != 3 or not all(fields):
        raise ValueError(f"expected three fields in {body!r}")
    return fields[0], fields[1], fields[2]


class HexGrid:
    """Stateless facade over the hex index.

    The common round trip — quantise a GPS fix to the cell Helium stores,
    then recover the centre used for analysis:

    >>> cell = HexGrid.encode_cell(LatLon(32.8801, -117.2340), 12)
    >>> center = cell.center()
    >>> LatLon(32.8801, -117.2340).distance_km(center) < 0.02
    True
    """

    @staticmethod
    def encode_cell(point: LatLon, resolution: int = HOTSPOT_RESOLUTION) -> HexCell:
        """The cell containing ``point`` at ``resolution`` (memoised)."""
        return _encode_cell(point, resolution)

    @staticmethod
    def decode_center(cell: HexCell) -> LatLon:
        """Centre of ``cell`` (alias of :meth:`HexCell.center`)."""
        return cell.center()

    @staticmethod
    def quantize(point: LatLon, resolution: int = HOTSPOT_RESOLUTION) -> LatLon:
        """Snap ``point`` to the centre of its containing cell.

        This is exactly what the paper does to every hotspot location.
        """
        return HexGrid.encode_cell(point, resolution).center()

    @staticmethod
    def cells_covering_bbox(
        south: float, west: float, north: float, east: float, resolution: int
    ) -> Iterator[HexCell]:
        """Yield the cells whose centres fall inside a lat/lon bounding box.

        Used by the coverage rasteriser; iterates lazily because national-
        scale boxes at fine resolutions contain millions of cells.
        """
        _check_resolution(resolution)
        if north < south:
            raise GeoError(f"north ({north}) < south ({south})")
        if east < west:
            raise GeoError(f"east ({east}) < west ({west})")
        size = RESOLUTION_TABLE[resolution].edge_km
        y_min = south * _KM_PER_DEG
        y_max = north * _KM_PER_DEG
        r_min = int(math.floor((y_min / (1.5 * size)))) - 1
        r_max = int(math.ceil((y_max / (1.5 * size)))) + 1
        x_min = west * _KM_PER_DEG
        x_max = east * _KM_PER_DEG
        for r in range(r_min, r_max + 1):
            q_min = int(math.floor(x_min / (math.sqrt(3.0) * size) - r / 2.0)) - 1
            q_max = int(math.ceil(x_max / (math.sqrt(3.0) * size) - r / 2.0)) + 1
            for q in range(q_min, q_max + 1):
                cell = HexCell(resolution, q, r)
                center = cell.center()
                if south <= center.lat <= north and west <= center.lon <= east:
                    yield cell
