"""Coverage-model tests."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.coverage import (
    Disk,
    DiskModel,
    ExplorerDotMap,
    HullModel,
    HullShape,
    RevisedModel,
    WitnessGeometry,
    build_witness_geometry,
)
from repro.chain.blockchain import Blockchain
from repro.chain.transactions import AddGateway, PocReceipts, WitnessReport
from repro.etl import EtlStore, ingest_chain
from repro.geo.geodesy import LatLon, destination
from repro.geo.hexgrid import HexGrid
from repro.errors import GeoError
from repro.geo.landmass import CONTIGUOUS_US
from repro.geo.polygon import convex_hull

from tests.reference_twins import (
    PolygonHullShape,
    build_witness_geometry_reference,
)

CENTER = LatLon(39.0, -98.0)  # middle of the US


def _witnessed(challengee, witnesses):
    """A geometry from ``(location, distance km, RSSI dBm)`` triples."""
    locations, distances, rssis = zip(*witnesses)
    return WitnessGeometry(
        challengee, locations, np.array(distances), np.array(rssis)
    )


def _geometry(witness_distances, rssi=-108.0):
    return _witnessed(CENTER, [
        (destination(CENTER, 360.0 / len(witness_distances) * i, d), d, rssi)
        for i, d in enumerate(witness_distances)
    ])


class TestShapes:
    def test_disk_contains_and_area(self):
        disk = Disk(CENTER, 10.0)
        assert disk.contains(destination(CENTER, 45.0, 9.9))
        assert not disk.contains(destination(CENTER, 45.0, 10.1))
        assert disk.area_km2() == pytest.approx(math.pi * 100.0, rel=1e-3)

    def test_disk_sampling_uniform(self, rng):
        disk = Disk(CENTER, 10.0)
        samples = [disk.sample(rng) for _ in range(2000)]
        assert all(disk.contains(s) for s in samples)
        # Radial CDF of uniform disk: P(r <= R/2) = 1/4.
        inner = sum(1 for s in samples if CENTER.distance_km(s) <= 5.0)
        assert inner / 2000 == pytest.approx(0.25, abs=0.04)

    def test_hull_sampling_inside(self, rng):
        hull = HullShape(convex_hull([
            CENTER,
            destination(CENTER, 0.0, 20.0),
            destination(CENTER, 90.0, 20.0),
            destination(CENTER, 200.0, 15.0),
        ]))
        for _ in range(300):
            sample = hull.sample(rng)
            # Samples land inside (or within float noise of the border).
            assert hull.contains(sample) or hull.centroid.distance_km(
                sample
            ) <= hull.extent_km * 1.01


class TestUnionEstimator:
    def test_disjoint_disks_sum(self, rng):
        model = DiskModel(
            [destination(CENTER, 90.0, 30.0 * i) for i in range(5)],
            radius_km=1.0,
        )
        union, by_tag = model.union_area_km2(rng, samples_per_shape=32)
        assert union == pytest.approx(5 * math.pi, rel=0.05)
        assert by_tag["disk"] == pytest.approx(union)

    def test_identical_disks_counted_once(self, rng):
        locations = [CENTER] * 10  # ten hotspots in one spot
        model = DiskModel(locations, radius_km=2.0)
        union, _ = model.union_area_km2(rng, samples_per_shape=32)
        assert union == pytest.approx(math.pi * 4.0, rel=0.05)

    def test_partial_overlap_between_single_and_sum(self, rng):
        close = [CENTER, destination(CENTER, 90.0, 1.0)]  # 1 km apart, r=1
        model = DiskModel(close, radius_km=1.0)
        union, _ = model.union_area_km2(rng, samples_per_shape=200)
        single = math.pi
        assert single < union < 2 * single


class TestModels:
    def test_explorer_dots_have_no_area(self):
        dots = ExplorerDotMap([CENTER], [])
        assert dots.n_online == 1 and dots.n_offline == 0
        assert not hasattr(dots, "landmass_fraction")

    def test_disk_model_fraction(self, rng):
        hotspots = [destination(CENTER, 10.0 * i, 50.0 * (i % 7)) for i in range(40)]
        model = DiskModel(hotspots)
        estimate = model.landmass_fraction(CONTIGUOUS_US, rng)
        expected = len(set((round(h.lat, 3), round(h.lon, 3)) for h in hotspots))
        # Tiny disks barely overlap: fraction ≈ n·π·0.09 / area.
        assert estimate.landmass_fraction == pytest.approx(
            expected * math.pi * 0.09 / CONTIGUOUS_US.area_km2, rel=0.35
        )

    def test_hull_model_needs_three_points(self, rng):
        geometries = [_geometry([5.0])]  # challengee + 1 witness = 2 points
        model = HullModel(geometries)
        assert model.shapes == []

    def test_hull_cutoff_shrinks_coverage(self, rng):
        geometries = [_geometry([3.0, 8.0, 80.0])]
        full = HullModel(geometries)
        cut = HullModel(geometries, max_witness_km=25.0)
        assert cut.shapes[0].area_km2() < full.shapes[0].area_km2()

    def test_hull_dedup(self):
        geometries = [_geometry([3.0, 8.0, 12.0])] * 50
        model = HullModel(geometries)
        assert len(model.shapes) == 1

    def test_revised_has_hulls_and_disks(self):
        geometries = [_geometry([3.0, 8.0, 12.0])]
        model = RevisedModel(geometries)
        assert "hull" in model.tags and "radial" in model.tags
        assert model.rssi_ring_area_km2 > 0.0

    def test_revised_disk_dedup_keeps_max(self):
        # Same witness location seen at two radii → one disk, max radius.
        witness_location = destination(CENTER, 0.0, 5.0)
        g1 = _witnessed(CENTER, [(witness_location, 5.0, -108.0)])
        far_challengee = destination(witness_location, 0.0, 9.0)
        g2 = _witnessed(far_challengee, [(witness_location, 9.0, -108.0)])
        model = RevisedModel([g1, g2])
        disks = [s for s, t in zip(model.shapes, model.tags) if t == "radial"]
        assert len(disks) == 1
        assert disks[0].radius_km == pytest.approx(9.0 + 0.02, abs=0.01)

    def test_ordering_disk_hull_revised(self, rng):
        geometries = [
            _geometry([2.0, 5.0, 9.0]),
            _witnessed(
                destination(CENTER, 45.0, 100.0),
                [
                    (destination(CENTER, 45.0 + 20 * i, 100.0 + 4.0 * i), 6.0, -110.0)
                    for i in range(3)
                ],
            ),
        ]
        hotspots = [CENTER, destination(CENTER, 45.0, 100.0)]
        disk = DiskModel(hotspots).landmass_fraction(CONTIGUOUS_US, rng)
        hulls = HullModel(geometries, 25.0).landmass_fraction(CONTIGUOUS_US, rng)
        revised = RevisedModel(geometries).landmass_fraction(CONTIGUOUS_US, rng)
        assert (disk.landmass_fraction < hulls.landmass_fraction
                < revised.landmass_fraction)

    def test_covers_point_queries(self):
        model = DiskModel([CENTER], radius_km=1.0)
        assert model.covers(destination(CENTER, 0.0, 0.5))
        assert not model.covers(destination(CENTER, 0.0, 5.0))


class TestWitnessGeometryExtraction:
    def _receipt(self, witness_valid=True):
        """One receipt on a chain, read back from its ETL replica."""
        cell = HexGrid.encode_cell(CENTER)
        witness_cell = HexGrid.encode_cell(destination(CENTER, 0.0, 5.0))
        chain = Blockchain()
        chain.submit(AddGateway(gateway="hs_e", owner="wal_e"))
        chain.mint_block()
        chain.submit(PocReceipts(
            challenger="hs_c",
            challengee="hs_e",
            challengee_location_token=cell.token,
            witnesses=(WitnessReport(
                witness="hs_w", rssi_dbm=-105.0, snr_db=5.0,
                frequency_mhz=904.6,
                reported_location_token=witness_cell.token,
                is_valid=witness_valid,
            ),),
        ))
        chain.mint_block()
        store = EtlStore()
        ingest_chain(chain, store)
        return next(store.valid_witness_receipts())

    def _locate(self, token):
        from repro.geo.hexgrid import HexCell

        point = HexCell.from_token(token).center()
        return None if point.is_null_island() else point

    def test_valid_witness_extracted(self):
        geometries = build_witness_geometry([self._receipt()], self._locate)
        assert len(geometries) == 1
        (geometry,) = geometries
        assert len(geometry.locations) == 1
        assert geometry.distances_km.tolist() == [
            pytest.approx(5.0, abs=0.1)
        ]
        assert geometry.rssi_dbm.tolist() == [-105.0]

    def test_invalid_witness_dropped(self):
        geometries = build_witness_geometry(
            [self._receipt(witness_valid=False)], self._locate
        )
        assert geometries[0].locations == ()
        assert geometries[0].distances_km.size == 0

    def test_cutoff_applied(self):
        geometries = build_witness_geometry(
            [self._receipt()], self._locate, max_witness_km=2.0
        )
        assert geometries[0].locations == ()
        assert geometries[0].rssi_dbm.size == 0


class TestCompactHullShape:
    """The array-backed hull against :class:`PolygonHullShape`, the
    object-per-point form it replaced: equal bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=25.0, max_value=49.0),
        st.floats(min_value=-124.0, max_value=-67.0),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=360.0),
                st.floats(min_value=0.01, max_value=800.0),
            ),
            min_size=2, max_size=12,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_polygon_twin(self, lat, lon, offsets, seed):
        center = LatLon(lat, lon)
        try:
            polygon = convex_hull(
                [center] + [destination(center, b, d) for b, d in offsets]
            )
        except GeoError:
            assume(False)
        hull, twin = HullShape(polygon), PolygonHullShape(polygon)
        assert hull.area_km2() == twin.area_km2()
        assert hull.centroid == twin.centroid
        assert hull.extent_km == twin.extent_km
        assert hull.bbox() == twin.bbox()

        # Vertices and edge midpoints (the boundary), plus points
        # around the hull's box.
        ring = polygon.vertices
        rng = np.random.default_rng(seed)
        south, west, north, east = hull.bbox()
        lats = np.concatenate([
            [v.lat for v in ring],
            [(a.lat + b.lat) / 2 for a, b in zip(ring, ring[1:] + ring[:1])],
            rng.uniform(south, north, 200),
        ])
        lons = np.concatenate([
            [v.lon for v in ring],
            [(a.lon + b.lon) / 2 for a, b in zip(ring, ring[1:] + ring[:1])],
            rng.uniform(west, east, 200),
        ])
        inside = hull.contains_many(lats, lons)
        assert inside.tolist() == twin.contains_many(lats, lons).tolist()
        assert [
            hull.contains(LatLon(a, b)) for a, b in zip(lats, lons)
        ] == inside.tolist()

        draws, twin_draws = (
            np.random.default_rng(seed), np.random.default_rng(seed)
        )
        for _ in range(3):
            assert hull.sample(draws) == twin.sample(twin_draws)
            (a_lats, a_lons), (b_lats, b_lons) = (
                hull.sample_many(draws, 24),
                twin.sample_many(twin_draws, 24),
            )
            assert a_lats.tobytes() == b_lats.tobytes()
            assert a_lons.tobytes() == b_lons.tobytes()

    def test_holds_arrays_not_points(self):
        hull = HullShape(convex_hull([
            destination(CENTER, 40.0 * i, 5.0 + i) for i in range(9)
        ]))
        assert not hasattr(hull, "__dict__")
        assert {type(getattr(hull, name)) for name in hull.__slots__} <= {
            np.ndarray, float,
        }


class TestInternedWitnessGeometry:
    """``build_witness_geometry`` against the twin that locates every
    report anew and keeps ``(location, distance, RSSI)`` triples."""

    #: Twelve sites around CENTER, plus a token that locates to None.
    SITES = {
        f"t{i}": destination(CENTER, 30.0 * i, 0.5 + 3.0 * i)
        for i in range(12)
    }

    def _locate(self, calls):
        def locate(token):
            calls[token] += 1
            site = self.SITES.get(token)
            # A fresh object per call, as HexCell.center() returns.
            return None if site is None else LatLon(site.lat, site.lon)
        return locate

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(SITES) + ["null"]),
                st.lists(
                    st.tuples(
                        st.sampled_from(sorted(SITES) + ["null"]),
                        st.floats(min_value=-140.0, max_value=-40.0),
                    ),
                    max_size=8,
                ),
            ),
            max_size=30,
        ),
        st.sampled_from([None, 25.0, 8.0]),
    )
    def test_matches_locate_every_report_twin(self, receipts, cutoff):
        calls = Counter()
        geometries = build_witness_geometry(
            receipts, self._locate(calls), max_witness_km=cutoff
        )
        expected = build_witness_geometry_reference(
            receipts, self._locate(Counter()), max_witness_km=cutoff
        )
        assert len(geometries) == len(expected)
        for geometry, (challengee, witnesses) in zip(geometries, expected):
            assert geometry.challengee == challengee
            assert geometry.locations == tuple(w[0] for w in witnesses)
            assert geometry.distances_km.dtype == np.float64
            assert geometry.distances_km.tolist() == [w[1] for w in witnesses]
            assert geometry.rssi_dbm.tolist() == [w[2] for w in witnesses]
        # Each token is located once, so each location is one object.
        assert set(calls.values()) <= {1}
        objects = {
            id(location) for geometry in geometries
            for location in (geometry.challengee, *geometry.locations)
        }
        values = {
            location for geometry in geometries
            for location in (geometry.challengee, *geometry.locations)
        }
        assert len(objects) == len(values)

    def test_distances_come_from_the_scalar_kernel(self):
        # numpy's haversine differs from the scalar one in the last bit
        # for ~1 pair in 2,000; 14,280 pairs show any such swap.
        rng = np.random.default_rng(5)
        sites = {
            f"s{i}": LatLon(float(lat), float(lon))
            for i, (lat, lon) in enumerate(zip(
                rng.uniform(25.0, 49.0, 120), rng.uniform(-124.0, -67.0, 120)
            ))
        }
        receipts = [
            (token, [(other, -100.0) for other in sites if other != token])
            for token in sites
        ]
        geometries = build_witness_geometry(receipts, sites.get)
        expected = build_witness_geometry_reference(receipts, sites.get)
        for geometry, (_, witnesses) in zip(geometries, expected):
            assert geometry.distances_km.tolist() == [w[1] for w in witnesses]
