"""Spatial index correctness tests (brute force comparison)."""

import pytest

from repro.errors import GeoError
from repro.geo.geodesy import LatLon, destination
from repro.geo.spatialindex import SpatialIndex

from tests.reference_twins import within_radius_reference


def _random_points(rng, n, center=LatLon(40.0, -100.0), spread_km=300.0):
    return [
        destination(center, float(rng.uniform(0, 360)),
                    float(rng.uniform(0, spread_km)))
        for _ in range(n)
    ]


class TestSpatialIndex:
    def test_within_radius_matches_brute_force(self, rng):
        points = _random_points(rng, 300)
        index = SpatialIndex()
        for i, point in enumerate(points):
            index.insert(point, i)
        query = LatLon(40.5, -100.5)
        for radius in (10.0, 50.0, 200.0):
            expected = {
                i for i, p in enumerate(points)
                if query.distance_km(p) <= radius
            }
            got = {item for _, item in index.within_radius(query, radius)}
            assert got == expected

    def test_empty_index(self):
        index = SpatialIndex()
        assert index.within_radius(LatLon(0, 1), 100.0) == []
        assert len(index) == 0

    def test_count_within_radius(self, rng):
        index = SpatialIndex()
        center = LatLon(40.0, -100.0)
        for i in range(10):
            index.insert(destination(center, 36.0 * i, 1.0), i)
        assert index.count_within_radius(center, 2.0) == 10
        assert index.count_within_radius(center, 0.5) == 0

    def test_nearest(self, rng):
        points = _random_points(rng, 100)
        index = SpatialIndex()
        for i, point in enumerate(points):
            index.insert(point, i)
        query = LatLon(40.2, -100.2)
        _, nearest = index.nearest(query)
        best = min(range(len(points)), key=lambda i: query.distance_km(points[i]))
        assert nearest == best

    def test_nearest_raises_when_empty_region(self):
        index = SpatialIndex()
        index.insert(LatLon(0.0, 0.0), "far")
        with pytest.raises(GeoError):
            index.nearest(LatLon(60.0, 100.0), max_radius_km=10.0)

    def test_negative_radius_rejected(self):
        index = SpatialIndex()
        with pytest.raises(GeoError):
            index.within_radius(LatLon(0, 1), -1.0)

    def test_invalid_cell_size_rejected(self):
        with pytest.raises(GeoError):
            SpatialIndex(cell_deg=0.0)

    def test_insert_many(self, rng):
        points = _random_points(rng, 50)
        index = SpatialIndex()
        index.insert_many((p, i) for i, p in enumerate(points))
        assert len(index) == 50

    def test_reference_matches_vectorised(self, rng):
        points = _random_points(rng, 200)
        index = SpatialIndex()
        for i, point in enumerate(points):
            index.insert(point, i)
        for radius in (10.0, 80.0, 250.0):
            query = LatLon(40.3, -100.7)
            fast = {item for _, item in index.within_radius(query, radius)}
            ref = {
                item
                for _, item in within_radius_reference(index, query, radius)
            }
            assert fast == ref

    def test_antimeridian_neighbours_found(self, rng):
        # Points scattered across the date line: a query on one side must
        # still find neighbours on the other (lon bins wrap modulo 360°).
        points = _random_points(rng, 200, center=LatLon(52.0, 179.9),
                                spread_km=120.0)
        index = SpatialIndex()
        for i, point in enumerate(points):
            index.insert(point, i)
        # Points land on both sides of ±180°.
        assert any(p.lon > 150.0 for p in points)
        assert any(p.lon < -150.0 for p in points)
        for query in (LatLon(52.0, 179.95), LatLon(52.0, -179.95)):
            for radius in (25.0, 80.0, 150.0):
                expected = {
                    i for i, p in enumerate(points)
                    if query.distance_km(p) <= radius
                }
                got = {item for _, item in index.within_radius(query, radius)}
                assert got == expected
                assert expected, "test must exercise non-empty neighbourhoods"

    def test_antimeridian_nearest(self, rng):
        index = SpatialIndex()
        west = LatLon(10.0, 179.8)   # just west of the line
        east = LatLon(10.0, -179.9)  # just east of the line
        index.insert(west, "west")
        index.insert(east, "east")
        query = LatLon(10.0, -179.99)
        _, item = index.nearest(query)
        assert item == "east"
        # Both sit within a small radius of the query despite the lon sign flip.
        got = {item for _, item in index.within_radius(query, 50.0)}
        assert got == {"west", "east"}
