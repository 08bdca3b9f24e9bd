"""Incentive-derived coverage models (§8.2.1).

"As Helium lacks clear, radio-oriented coverage maps, we develop and test
coverage models based on network incentives." The progression:

1. :class:`ExplorerDotMap` — what explorer.helium.com shows: dots, not
   coverage (Figure 12a). Provides counts, deliberately no area.
2. :class:`DiskModel` — HIP 15 implies a hotspot covers a 300 m radius;
   0.09295 % of the contiguous US (Figure 12b).
3. :class:`HullModel` — convex hulls around each challengee and its
   valid witnesses (Figure 12c); optionally dropping witnesses beyond a
   25 km plausibility cutoff (Figure 12d, 0.5723 %).
4. :class:`RevisedModel` — hulls plus radial coverage at each hull
   vertex (radius = vertex→challengee distance) grown by the inverse-
   FSPL RSSI term d = 10^((w−s)/20) (Figure 12e, 3.3032 %).

Union areas are computed with an unbiased within-shape sampling
estimator: for shape i, the fraction of its own uniform samples whose
lowest-index covering shape is i, times its area, sums to the union area
— exact in expectation and cheap even for thousands of overlapping
shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, GeoError
from repro.geo.geodesy import (
    LatLon,
    destination,
    destination_many,
    haversine_km_many,
    latlon_arrays,
)
from repro.geo.landmass import Landmass
from repro.geo.polygon import (
    Polygon,
    convex_hull,
    disk_area_km2,
    ring_contains,
    ring_contains_many,
)
from repro.radio.propagation import FSPL_SENSITIVITY_DBM, fspl_range_growth_m

__all__ = [
    "WitnessGeometry",
    "build_witness_geometry",
    "Shape",
    "Disk",
    "HullShape",
    "CoverageEstimate",
    "CoverageModel",
    "ExplorerDotMap",
    "DiskModel",
    "HullModel",
    "RevisedModel",
    "PredictionScore",
    "prediction_accuracy",
]


# --------------------------------------------------------------------------
# Witness geometry extraction
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class WitnessGeometry:
    """One challenge reduced to the geometry the coverage models use.

    The witness columns are parallel, one entry per chain-valid
    witness: ``locations[i]`` heard the challengee ``distances_km[i]``
    away at ``rssi_dbm[i]``.
    """

    challengee: LatLon
    locations: Tuple[LatLon, ...]
    distances_km: np.ndarray
    rssi_dbm: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WitnessGeometry):
            return NotImplemented
        return (
            self.challengee == other.challengee
            and self.locations == other.locations
            and np.array_equal(self.distances_km, other.distances_km)
            and np.array_equal(self.rssi_dbm, other.rssi_dbm)
        )


def build_witness_geometry(
    receipts: Iterable[Tuple[str, Sequence[Tuple[str, float]]]],
    locate,
    max_witness_km: Optional[float] = None,
) -> List[WitnessGeometry]:
    """Convert PoC receipts into witness geometries.

    Each distinct location token is located once, so every geometry
    that names it shares one :class:`LatLon` (at ``paper``, 112,815
    witness reports name 5,548 tokens); a receipt's distances and RSSI
    values are kept as float arrays.

    Args:
        receipts: ``(challengee location token, [(witness location
            token, RSSI dBm), …])`` per receipt, its chain-valid witness
            reports only, as
            :meth:`~repro.etl.store.EtlStore.valid_witness_receipts`
            yields them.
        locate: callable mapping a hex token to :class:`LatLon` (usually
            ``HexCell.from_token(...).center()``; injected so analyses can
            substitute historical ledgers), or to None for a location to
            skip.
        max_witness_km: optional plausibility cutoff — witnesses farther
            than this from the challengee are dropped (the paper's 25 km
            refinement).
    """
    located: Dict[str, Optional[LatLon]] = {}

    def lookup(token: str) -> Optional[LatLon]:
        try:
            return located[token]
        except KeyError:
            location = located[token] = locate(token)
            return location

    geometries: List[WitnessGeometry] = []
    for challengee_token, reports in receipts:
        challengee = lookup(challengee_token)
        if challengee is None:
            continue
        locations: List[LatLon] = []
        distances: List[float] = []
        rssis: List[float] = []
        for witness_token, rssi_dbm in reports:
            location = lookup(witness_token)
            if location is None:
                continue
            distance = challengee.distance_km(location)
            if max_witness_km is not None and distance > max_witness_km:
                continue
            locations.append(location)
            distances.append(distance)
            rssis.append(rssi_dbm)
        geometries.append(WitnessGeometry(
            challengee, tuple(locations),
            np.array(distances, dtype=float), np.array(rssis, dtype=float),
        ))
    return geometries


# --------------------------------------------------------------------------
# Shapes
# --------------------------------------------------------------------------


class Shape:
    """A covered region: supports contains/area/sample/extent."""

    __slots__ = ()

    def contains(self, point: LatLon) -> bool:
        raise NotImplementedError

    def area_km2(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> LatLon:
        """A uniform point inside the shape."""
        raise NotImplementedError

    def sample_many(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` uniform interior points as parallel lat/lon arrays.

        Subclasses override with batch draws that consume the RNG stream
        bitwise-identically to ``n`` sequential :meth:`sample` calls;
        this fallback just loops.
        """
        lats = np.empty(n)
        lons = np.empty(n)
        for i in range(n):
            point = self.sample(rng)
            lats[i] = point.lat
            lons[i] = point.lon
        return lats, lons

    def contains_many(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`contains` over parallel lat/lon arrays."""
        return np.fromiter(
            (
                self.contains(LatLon(float(lat), float(lon)))
                for lat, lon in zip(lats, lons)
            ),
            dtype=bool,
            count=len(lats),
        )

    @property
    def centroid(self) -> LatLon:
        raise NotImplementedError

    @property
    def extent_km(self) -> float:
        """Max distance from centroid to any covered point."""
        raise NotImplementedError

    def bbox(self) -> Tuple[float, float, float, float]:
        """(south, west, north, east) bounding box of the shape."""
        center = self.centroid
        pad_lat = self.extent_km / 110.574
        cos_lat = max(math.cos(math.radians(center.lat)), 0.05)
        pad_lon = self.extent_km / (111.320 * cos_lat)
        return (
            center.lat - pad_lat,
            center.lon - pad_lon,
            center.lat + pad_lat,
            center.lon + pad_lon,
        )


class _ShapeBinIndex:
    """Bbox-binned index: point query touches exactly one bin.

    A bin's candidates are the shapes whose bounding box overlaps it, in
    ascending index order, so a point lookup is a single dict access
    plus exact contains tests — independent of the largest shape's
    extent (a global-radius search over thousands of overlapping hulls
    would be quadratic in practice).

    Each shape keeps only its inclusive bin range, as four int64 arrays;
    a bin's candidate array is built when a query first lands in it and
    memoised. Memory follows the bins queried, not the area the shapes
    span: at paper scale the no-cutoff hulls (Fig. 12c) span 7.4M bin
    entries, of which queries touch about 71k.
    """

    def __init__(self, shapes: Sequence[Shape], bin_deg: float = 0.25) -> None:
        self.bin_deg = bin_deg
        ranges = np.empty((4, len(shapes)), dtype=np.int64)
        for index, shape in enumerate(shapes):
            south, west, north, east = shape.bbox()
            # math.floor raises on a NaN or infinite bound, where a
            # numpy cast would silently yield a wrong bin.
            ranges[:, index] = (
                math.floor(south / bin_deg),
                math.floor(north / bin_deg),
                math.floor(west / bin_deg),
                math.floor(east / bin_deg),
            )
        self._lat_lo, self._lat_hi, self._lon_lo, self._lon_hi = ranges
        self._bins: Dict[Tuple[int, int], np.ndarray] = {}

    def bins(self, keys: Iterable[Tuple[int, int]]) -> List[np.ndarray]:
        """Candidate shape indices (ascending) for each ``(lat_bin,
        lon_bin)`` key. Unseen bins are built one latitude row at a
        time: the shapes spanning the row are found once, then narrowed
        per bin."""
        keys = [(lat_bin, lon_bin) for lat_bin, lon_bin in keys]
        missing: Dict[int, List[int]] = {}
        for lat_bin, lon_bin in keys:
            if (lat_bin, lon_bin) not in self._bins:
                missing.setdefault(lat_bin, []).append(lon_bin)
        for lat_bin, lon_bins in missing.items():
            row = np.flatnonzero(
                (self._lat_lo <= lat_bin) & (lat_bin <= self._lat_hi)
            )
            row_lo = self._lon_lo[row]
            row_hi = self._lon_hi[row]
            for lon_bin in lon_bins:
                self._bins[(lat_bin, lon_bin)] = row[
                    (row_lo <= lon_bin) & (lon_bin <= row_hi)
                ]
        return [self._bins[key] for key in keys]

    def candidates(self, point: LatLon) -> List[int]:
        """Shape indices whose bbox bin contains ``point``."""
        key = (
            math.floor(point.lat / self.bin_deg),
            math.floor(point.lon / self.bin_deg),
        )
        return self.bins([key])[0].tolist()


@dataclass(frozen=True)
class Disk(Shape):
    """A great-circle disk."""

    center: LatLon
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise GeoError(f"disk radius must be positive: {self.radius_km}")

    def contains(self, point: LatLon) -> bool:
        return self.center.distance_km(point) <= self.radius_km

    def area_km2(self) -> float:
        return disk_area_km2(self.radius_km)

    def sample(self, rng: np.random.Generator) -> LatLon:
        radius = self.radius_km * math.sqrt(float(rng.random()))
        return destination(self.center, float(rng.uniform(0, 360)), radius)

    def sample_many(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        # One draw of 2n uniforms consumes the stream exactly like n
        # sequential (radius, bearing) scalar draws: uniform(0, 360) is
        # bitwise 360 * random().
        u = rng.random(2 * n)
        radii = self.radius_km * np.sqrt(u[0::2])
        bearings = 360.0 * u[1::2]
        return destination_many(
            self.center.lat, self.center.lon, bearings, radii
        )

    def contains_many(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        distances = haversine_km_many(
            self.center.lat, self.center.lon, lats, lons
        )
        return distances <= self.radius_km

    @property
    def centroid(self) -> LatLon:
        return self.center

    @property
    def extent_km(self) -> float:
        return self.radius_km


class HullShape(Shape):
    """A convex hull, sampled via fan triangulation.

    The ring is one ``(2, n)`` array of vertex latitudes and
    longitudes; fan triangle ``i`` is vertices ``0``, ``i + 1`` and
    ``i + 2``, and ``_cum[i]`` is the area of triangles ``0..i``. With
    the area and the extent, that is all a hull holds: the centroid is
    computed from the ring when read.
    """

    __slots__ = ("_ring", "_cum", "_area", "_extent")

    def __init__(self, polygon: Polygon) -> None:
        vertices = polygon.vertices
        anchor = vertices[0]
        self._ring = np.array(
            [[v.lat for v in vertices], [v.lon for v in vertices]]
        )
        self._cum = np.cumsum([
            _triangle_area_km2(anchor, b, c)
            for b, c in zip(vertices[1:-1], vertices[2:])
        ])
        self._area = polygon.area_km2()
        self._extent = polygon.max_radius_km()

    def contains(self, point: LatLon) -> bool:
        return ring_contains(*self._ring.tolist(), point.lat, point.lon)

    def area_km2(self) -> float:
        return self._area

    def sample(self, rng: np.random.Generator) -> LatLon:
        lats, lons = self.sample_many(rng, 1)
        return LatLon(float(lats[0]), float(lons[0]))

    def sample_many(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Each point consumes (roll, u, v), so one draw of 3n uniforms
        # sliced by stride is n sequential draws of three.
        total = float(self._cum[-1])
        if total <= 0:
            center = self.centroid
            return np.full(n, center.lat), np.full(n, center.lon)
        draws = rng.random(3 * n)
        rolls = draws[0::3] * total
        chosen = np.minimum(
            np.searchsorted(self._cum, rolls, side="left"), len(self._cum) - 1
        )
        u, v = draws[1::3], draws[2::3]
        reflect = u + v > 1.0
        u = np.where(reflect, 1.0 - u, u)
        v = np.where(reflect, 1.0 - v, v)
        ring_lats, ring_lons = self._ring
        a_lat, a_lon = float(ring_lats[0]), float(ring_lons[0])
        b, c = chosen + 1, chosen + 2
        lats = a_lat + u * (ring_lats[b] - a_lat) + v * (ring_lats[c] - a_lat)
        lons = a_lon + u * (ring_lons[b] - a_lon) + v * (ring_lons[c] - a_lon)
        return lats, lons

    def contains_many(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        return ring_contains_many(*self._ring.tolist(), lats, lons)

    @property
    def centroid(self) -> LatLon:
        """Arithmetic mean of the vertices, as :meth:`Polygon.centroid`."""
        lats, lons = self._ring.tolist()
        return LatLon(sum(lats) / len(lats), sum(lons) / len(lons))

    @property
    def extent_km(self) -> float:
        return self._extent


def _triangle_area_km2(a: LatLon, b: LatLon, c: LatLon) -> float:
    """Planar triangle area on the local tangent plane (km²)."""
    from repro.geo.geodesy import local_project_km

    (x1, y1), (x2, y2), (x3, y3) = local_project_km([a, b, c], a)
    return abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2.0


# --------------------------------------------------------------------------
# Models
# --------------------------------------------------------------------------


@dataclass
class CoverageEstimate:
    """Result of evaluating one coverage model against a landmass."""

    model: str
    n_shapes: int
    union_area_km2: float
    landmass_fraction: float
    #: Fraction descaled to the real fleet size (≈ linear in the sparse
    #: regime; None when no scale factor was supplied).
    descaled_fraction: Optional[float] = None
    #: Area contribution by shape class (hull / radial / rssi), Fig 12e.
    breakdown_km2: Dict[str, float] = field(default_factory=dict)


class CoverageModel:
    """Base: a set of shapes plus union-area machinery."""

    name = "base"

    def __init__(self, shapes: Sequence[Shape], tags: Optional[Sequence[str]] = None):
        self.shapes: List[Shape] = list(shapes)
        self.tags: List[str] = list(tags) if tags is not None else ["shape"] * len(self.shapes)
        if len(self.tags) != len(self.shapes):
            raise AnalysisError("tags must align with shapes")
        self._index = _ShapeBinIndex(self.shapes)

    # -- point queries ------------------------------------------------------

    def covering_shapes(self, point: LatLon) -> List[int]:
        """Indices of shapes containing ``point``, ascending."""
        if not self.shapes:
            return []
        return sorted(
            i for i in self._index.candidates(point)
            if self.shapes[i].contains(point)
        )

    def first_covering(self, point: LatLon) -> Optional[int]:
        """Lowest index of a covering shape, or None (fast path).

        Bin candidate lists are built in ascending index order, so the
        first containing candidate is the answer — under heavy overlap
        this terminates after a handful of tests.
        """
        for i in self._index.candidates(point):
            if self.shapes[i].contains(point):
                return i
        return None

    def covers(self, point: LatLon) -> bool:
        """Whether the model predicts coverage at ``point``."""
        return bool(self.covering_shapes(point))

    def first_covering_many(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`first_covering` over parallel lat/lon arrays.

        Points are routed to their grid bin's candidate shapes, then the
        candidate shapes are swept in ascending index order — one batch
        ``contains_many`` per shape over every point still unresolved in
        that shape's bins, retiring points as soon as a cover is found.
        One argsort groups the points by bin and one more groups the
        (shape, bin) candidate pairs by shape, so the sweep holds a few
        flat index arrays. Returns the covering shape index per point,
        −1 when uncovered.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        owners = np.full(lats.shape, -1, dtype=np.int64)
        if not self.shapes or lats.size == 0:
            return owners
        bin_deg = self._index.bin_deg
        lat_bins = np.floor(lats / bin_deg).astype(np.int64)
        lon_bins = np.floor(lons / bin_deg).astype(np.int64)
        # One key per point, ordered as (lat bin, lon bin).
        lon_lo = int(lon_bins.min())
        width = int(lon_bins.max()) - lon_lo + 1
        keys = lat_bins * width + (lon_bins - lon_lo)
        del lat_bins, lon_bins
        by_bin = np.argsort(keys, kind="stable")
        keys = keys[by_bin]
        bin_starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        bin_ends = np.r_[bin_starts[1:], keys.size]
        bin_keys = keys[bin_starts].tolist()
        del keys
        candidates = self._index.bins(
            (key // width, key % width + lon_lo) for key in bin_keys
        )
        # Invert bin→candidates into shape→bins so each shape is tested
        # once, over one batch of its bins' points.
        pair_shapes = np.concatenate(candidates)
        if pair_shapes.size == 0:
            return owners
        pair_bins = np.repeat(
            np.arange(len(candidates)), [len(c) for c in candidates]
        )
        by_shape = np.argsort(pair_shapes, kind="stable")
        pair_shapes = pair_shapes[by_shape]
        pair_bins = pair_bins[by_shape]
        runs = np.flatnonzero(
            np.r_[True, pair_shapes[1:] != pair_shapes[:-1], True]
        ).tolist()
        unowned = np.ones(lats.shape, dtype=bool)
        for start, end in zip(runs[:-1], runs[1:]):
            pts = np.concatenate([
                by_bin[bin_starts[b]:bin_ends[b]]
                for b in pair_bins[start:end].tolist()
            ])
            pts = pts[unowned[pts]]
            if pts.size == 0:
                continue
            shape_index = int(pair_shapes[start])
            hit = self.shapes[shape_index].contains_many(
                lats[pts], lons[pts]
            )
            if hit.any():
                covered = pts[hit]
                owners[covered] = shape_index
                unowned[covered] = False
        return owners

    # -- union area ----------------------------------------------------------

    @staticmethod
    def _samples(
        shapes: Sequence[Shape], rng: np.random.Generator, per_shape: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``per_shape`` uniform points from each shape in turn, drawn
        into two preallocated arrays (shape ``i``'s are rows
        ``i * per_shape`` onwards)."""
        lats = np.empty(len(shapes) * per_shape)
        lons = np.empty(len(shapes) * per_shape)
        for i, shape in enumerate(shapes):
            rows = slice(i * per_shape, (i + 1) * per_shape)
            lats[rows], lons[rows] = shape.sample_many(rng, per_shape)
        return lats, lons

    def union_area_km2(
        self,
        rng: np.random.Generator,
        samples_per_shape: int = 24,
    ) -> Tuple[float, Dict[str, float]]:
        """Unbiased union area and per-tag breakdown.

        For each shape, uniform interior samples are credited to the
        *lowest-index* covering shape; the shape's area times its
        credited fraction contributes to the union. Summed over shapes
        this is exactly the area of the union, in expectation.

        Each shape's samples are drawn in one batch (stream-compatible
        with the scalar reference); ownership for every sample across
        all shapes is then resolved with one batched first-covering
        query.
        """
        n_shapes = len(self.shapes)
        if n_shapes == 0:
            return 0.0, {}
        all_lats, all_lons = self._samples(
            self.shapes, rng, samples_per_shape
        )
        owners = self.first_covering_many(all_lats, all_lons)
        source = np.repeat(np.arange(n_shapes), samples_per_shape)
        credited_mask = (owners == -1) | (owners == source)
        credited = np.bincount(
            source[credited_mask], minlength=n_shapes
        )
        total = 0.0
        by_tag: Dict[str, float] = {}
        for i, shape in enumerate(self.shapes):
            contribution = (
                shape.area_km2() * int(credited[i]) / samples_per_shape
            )
            total += contribution
            tag = self.tags[i]
            by_tag[tag] = by_tag.get(tag, 0.0) + contribution
        return total, by_tag

    def landmass_fraction(
        self,
        landmass: Landmass,
        rng: np.random.Generator,
        samples_per_shape: int = 24,
        scale_factor: Optional[float] = None,
    ) -> CoverageEstimate:
        """Fraction of ``landmass`` covered, with overseas area excluded.

        Shapes centred outside the landmass are skipped (consuming no
        randomness); samples landing off-landmass are not credited. The
        centroid gate, the landmass mask over every sample, and the
        first-covering ownership query each run as one batched pass.
        """
        n_shapes = len(self.shapes)
        total = 0.0
        by_tag: Dict[str, float] = {}
        if n_shapes == 0:
            fraction = 0.0
        else:
            cen_lats, cen_lons = latlon_arrays(s.centroid for s in self.shapes)
            kept = np.flatnonzero(landmass.contains_many(cen_lats, cen_lons))
            if kept.size:
                all_lats, all_lons = self._samples(
                    [self.shapes[i] for i in kept.tolist()],
                    rng,
                    samples_per_shape,
                )
                on_land = landmass.contains_many(all_lats, all_lons)
                all_lats, all_lons = all_lats[on_land], all_lons[on_land]
                # Sample j came from shape kept[j // samples_per_shape].
                land_source = kept[
                    np.flatnonzero(on_land) // samples_per_shape
                ]
                del on_land
                owners = self.first_covering_many(all_lats, all_lons)
                credited_mask = (owners == -1) | (owners == land_source)
                credited = np.bincount(
                    land_source[credited_mask], minlength=n_shapes
                )
                for i in kept:
                    contribution = (
                        self.shapes[i].area_km2()
                        * int(credited[i])
                        / samples_per_shape
                    )
                    total += contribution
                    tag = self.tags[i]
                    by_tag[tag] = by_tag.get(tag, 0.0) + contribution
            fraction = total / landmass.area_km2
        descaled = None
        if scale_factor is not None and scale_factor > 0:
            descaled = min(fraction / scale_factor, 1.0)
        return CoverageEstimate(
            model=self.name,
            n_shapes=len(self.shapes),
            union_area_km2=total,
            landmass_fraction=fraction,
            descaled_fraction=descaled,
            breakdown_km2=by_tag,
        )



@dataclass(frozen=True)
class PredictionScore:
    """A coverage model scored against field ground truth (§8.2.2)."""

    model: str
    packets: int
    predicted_covered: int
    #: P(received | model says covered) — the paper's "in-radius" score.
    covered_received_fraction: float
    #: P(missed | model says uncovered) — the "out-of-radius" score.
    uncovered_missed_fraction: float
    #: Plain accuracy: fraction of packets whose outcome the model got right.
    accuracy: float


def prediction_accuracy(model: CoverageModel, records) -> PredictionScore:
    """Score any coverage model against walk/stationary ground truth.

    Generalises the paper's HIP-15 scoring ("Predicting reception when
    within 300 m of a hotspot is accurate 55.5 % of the time...") to the
    whole model family: for each transmitted packet, compare the model's
    covered/uncovered verdict at the transmit location against whether
    the cloud actually received it.

    Args:
        model: any :class:`CoverageModel`.
        records: :class:`~repro.lorawan.network.TransmissionRecord`s.
    """
    if not records:
        raise AnalysisError("no transmission records to score against")
    covered_received = covered_total = 0
    uncovered_missed = uncovered_total = 0
    for record in records:
        covered = model.covers(record.device_location)
        if covered:
            covered_total += 1
            covered_received += record.delivered_to_cloud
        else:
            uncovered_total += 1
            uncovered_missed += not record.delivered_to_cloud
    correct = covered_received + uncovered_missed
    return PredictionScore(
        model=model.name,
        packets=len(records),
        predicted_covered=covered_total,
        covered_received_fraction=(
            covered_received / covered_total if covered_total else 0.0
        ),
        uncovered_missed_fraction=(
            uncovered_missed / uncovered_total if uncovered_total else 0.0
        ),
        accuracy=correct / len(records),
    )


class ExplorerDotMap:
    """Figure 12a: the explorer's dot map — hotspot counts, no area.

    The paper's criticism is that dots "always render at the same size",
    so the class deliberately offers no area method.
    """

    def __init__(self, online: Sequence[LatLon], offline: Sequence[LatLon]):
        self.online = list(online)
        self.offline = list(offline)

    @property
    def n_online(self) -> int:
        """Green dots."""
        return len(self.online)

    @property
    def n_offline(self) -> int:
        """Red dots."""
        return len(self.offline)


class DiskModel(CoverageModel):
    """Figure 12b: HIP-15-implied 300 m disks around each hotspot."""

    name = "disk-300m"

    def __init__(self, hotspots: Sequence[LatLon], radius_km: float = 0.3):
        shapes = [Disk(h, radius_km) for h in hotspots]
        super().__init__(shapes, ["disk"] * len(shapes))
        self.radius_km = radius_km


def _dedup_hulls(
    geometries: Sequence[WitnessGeometry],
    max_witness_km: Optional[float],
) -> List[HullShape]:
    """Build hull shapes, collapsing repeated point sets.

    The same challengee is challenged many times with the same witnesses;
    identical point sets give identical hulls, so deduplication changes
    nothing about the union while cutting shape count dramatically.

    A point set's key is its distinct points rounded to 5 decimals,
    sorted and packed as float64 bytes, so two keys are equal exactly
    when the sets are (``+ 0.0`` folds −0.0 into 0.0). At ``paper`` the
    9,286 no-cutoff keys take ~2 MB as bytes, ~16 MB as frozensets of
    tuples.
    """
    shapes: List[HullShape] = []
    seen = set()
    for geometry in geometries:
        points = [geometry.challengee]
        if max_witness_km is None:
            points.extend(geometry.locations)
        else:
            points.extend(compress(
                geometry.locations,
                (geometry.distances_km <= max_witness_km).tolist(),
            ))
        distinct = sorted({
            (round(p.lat, 5) + 0.0, round(p.lon, 5) + 0.0) for p in points
        })
        if len(distinct) < 3:
            continue
        key = np.array(distinct).tobytes()
        if key in seen:
            continue
        seen.add(key)
        try:
            shapes.append(HullShape(convex_hull(points)))
        except GeoError:
            continue  # collinear witnesses: degenerate hull
    return shapes


class HullModel(CoverageModel):
    """Figures 12c/12d: convex hulls of challengee + valid witnesses.

    Challenges with fewer than three distinct points contribute nothing
    (a lone witness pair has no interior); repeated identical point sets
    are collapsed (same union, far fewer shapes).
    """

    name = "witness-hulls"

    def __init__(
        self,
        geometries: Sequence[WitnessGeometry],
        max_witness_km: Optional[float] = None,
    ):
        shapes = _dedup_hulls(geometries, max_witness_km)
        super().__init__(list(shapes), ["hull"] * len(shapes))
        self.max_witness_km = max_witness_km
        if max_witness_km is not None:
            self.name = f"witness-hulls-{int(max_witness_km)}km"


class RevisedModel(CoverageModel):
    """Figure 12e: hulls + vertex radial disks + RSSI growth.

    Every witness inside the cutoff contributes a disk of radius equal to
    its distance from the challengee (radial term, the paper's yellow)
    grown by the inverse-FSPL RSSI term (red trim):
    d = 10^((w − s)/20) metres.

    Two union-preserving reductions keep the shape count tractable:
    repeated hull point sets are collapsed, and concentric disks at one
    witness location union to the single largest disk — so the model
    keeps one grown disk per witness site (tagged ``radial``). The RSSI
    trim's standalone area (tiny: +20 m at the median RSSI) is reported
    analytically in :attr:`rssi_ring_area_km2`.
    """

    name = "revised"

    def __init__(
        self,
        geometries: Sequence[WitnessGeometry],
        max_witness_km: float = 25.0,
        sensitivity_dbm: float = FSPL_SENSITIVITY_DBM,
    ):
        hulls = _dedup_hulls(geometries, max_witness_km)
        shapes: List[Shape] = list(hulls)
        tags: List[str] = ["hull"] * len(hulls)

        # One disk per witness site: the max grown radius seen there.
        best_radius: Dict[Tuple[float, float], Tuple[LatLon, float]] = {}
        rssi_ring_area = 0.0
        for geometry in geometries:
            for location, distance, rssi in zip(
                geometry.locations,
                geometry.distances_km.tolist(),
                geometry.rssi_dbm.tolist(),
            ):
                if distance > max_witness_km:
                    continue
                radial = max(distance, 0.05)
                growth_km = fspl_range_growth_m(rssi, sensitivity_dbm) / 1000.0
                grown = radial + max(growth_km, 0.0)
                rssi_ring_area += disk_area_km2(grown) - disk_area_km2(radial)
                key = (round(location.lat, 5), round(location.lon, 5))
                current = best_radius.get(key)
                if current is None or grown > current[1]:
                    best_radius[key] = (location, grown)
        for location, radius in best_radius.values():
            shapes.append(Disk(location, radius))
            tags.append("radial")
        super().__init__(shapes, tags)
        self.max_witness_km = max_witness_km
        self.sensitivity_dbm = sensitivity_dbm
        #: Analytic (overlap-ignoring) area of the RSSI growth rings.
        self.rssi_ring_area_km2 = rssi_ring_area
