"""Hex-grid tests: H3-compatible semantics."""

import tracemalloc

import pytest

from repro.errors import GeoError
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import (
    HOTSPOT_RESOLUTION,
    HexCell,
    HexGrid,
    RESOLUTION_TABLE,
)


class TestResolutionTable:
    def test_res12_edge_matches_h3(self):
        # Paper §4.1: "average edge length of 9.4 m" at res 12.
        assert RESOLUTION_TABLE[12].edge_m == pytest.approx(9.4, abs=0.1)

    def test_aperture_seven_ladder(self):
        for res in range(15):
            ratio = RESOLUTION_TABLE[res].edge_km / RESOLUTION_TABLE[res + 1].edge_km
            assert ratio == pytest.approx(7 ** 0.5, rel=1e-9)

    def test_area_is_hexagonal(self):
        info = RESOLUTION_TABLE[12]
        expected = 1.5 * (3 ** 0.5) * info.edge_km ** 2
        assert info.area_km2 == pytest.approx(expected)


class TestEncodeDecode:
    def test_quantisation_error_bounded_by_edge(self):
        point = LatLon(32.8801, -117.2340)
        for res in (8, 10, 12):
            center = HexGrid.quantize(point, res)
            # Max distance from any point to its cell centre is one edge.
            assert point.distance_km(center) <= RESOLUTION_TABLE[res].edge_km * 1.01

    def test_encode_is_stable_at_center(self):
        cell = HexGrid.encode_cell(LatLon(40.0, -100.0), 12)
        assert HexGrid.encode_cell(cell.center(), 12) == cell

    def test_different_points_same_cell(self):
        a = LatLon(32.88010, -117.23400)
        b = LatLon(32.88011, -117.23401)  # ~1.5 m apart
        assert HexGrid.encode_cell(a, 12) == HexGrid.encode_cell(b, 12)

    def test_resolution_validation(self):
        with pytest.raises(GeoError):
            HexGrid.encode_cell(LatLon(0, 1), 16)
        with pytest.raises(GeoError):
            HexCell(-1, 0, 0)

    def test_default_resolution_is_hotspot_resolution(self):
        cell = HexGrid.encode_cell(LatLon(10, 10))
        assert cell.resolution == HOTSPOT_RESOLUTION == 12


class TestTokens:
    def test_round_trip(self):
        cell = HexGrid.encode_cell(LatLon(-33.86, 151.21), 12)
        assert HexCell.from_token(cell.token) == cell

    def test_round_trip_negative_coords(self):
        cell = HexCell(12, -5, -9)
        assert HexCell.from_token(cell.token) == cell

    def test_malformed_tokens_rejected(self):
        for bad in ("", "x-1-2-3", "c-12-3", "c-a-b-c"):
            with pytest.raises(GeoError):
                HexCell.from_token(bad)


class TestTopology:
    def test_six_neighbors(self):
        cell = HexCell(10, 5, -3)
        neighbors = cell.neighbors()
        assert len(neighbors) == 6
        assert len(set(neighbors)) == 6
        assert all(cell.grid_distance(n) == 1 for n in neighbors)

    def test_k_ring_size(self):
        cell = HexCell(8, 0, 0)
        # |k-ring| = 1 + 3k(k+1)
        for k in range(4):
            assert len(cell.k_ring(k)) == 1 + 3 * k * (k + 1)

    def test_k_ring_negative_rejected(self):
        with pytest.raises(GeoError):
            HexCell(8, 0, 0).k_ring(-1)

    def test_grid_distance_triangle_inequality(self):
        a = HexCell(9, 0, 0)
        b = HexCell(9, 4, -2)
        c = HexCell(9, -1, 5)
        assert a.grid_distance(c) <= a.grid_distance(b) + b.grid_distance(c)

    def test_grid_distance_requires_same_resolution(self):
        with pytest.raises(GeoError):
            HexCell(9, 0, 0).grid_distance(HexCell(10, 0, 0))

    def test_boundary_has_six_vertices_around_center(self):
        # Ground-truth vertex distances vary with latitude (documented
        # equirectangular distortion, like H3's own min/max area spread):
        # the east-west component is compressed by cos(lat).
        import math

        cell = HexGrid.encode_cell(LatLon(45.0, 7.0), 9)
        boundary = cell.boundary()
        assert len(boundary) == 6
        center = cell.center()
        low = cell.edge_km * math.cos(math.radians(abs(center.lat))) * 0.95
        high = cell.edge_km * 1.05
        for vertex in boundary:
            assert low <= center.distance_km(vertex) <= high


class TestHierarchy:
    def test_parent_contains_child_center(self):
        cell = HexGrid.encode_cell(LatLon(37.77, -122.42), 12)
        parent = cell.parent()
        assert parent.resolution == 11
        # Parent cell must be the encoding of the child center at res 11.
        assert HexGrid.encode_cell(cell.center(), 11) == parent

    def test_children_roughly_seven(self):
        cell = HexGrid.encode_cell(LatLon(37.77, -122.42), 10)
        children = cell.children()
        assert 5 <= len(children) <= 9  # aperture-7-like
        assert all(c.parent(10) == cell for c in children)

    def test_parent_to_coarser_resolution(self):
        cell = HexGrid.encode_cell(LatLon(37.77, -122.42), 12)
        grandparent = cell.parent(10)
        assert grandparent.resolution == 10

    def test_parent_finer_than_cell_rejected(self):
        with pytest.raises(GeoError):
            HexCell(10, 0, 0).parent(12)


class TestPentagonDistortion:
    def test_cells_near_icosa_vertex_flagged(self):
        cell = HexGrid.encode_cell(LatLon(26.57, 36.0), 8)
        assert cell.is_pentagon_distorted()

    def test_ordinary_cells_not_flagged(self):
        cell = HexGrid.encode_cell(LatLon(40.0, -100.0), 12)
        assert not cell.is_pentagon_distorted()


class TestNoMemo:
    def test_encoding_keeps_no_point_or_cell(self):
        """Encoding and the pentagon test compute; neither keeps a
        point or a cell alive after it returns."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(100_000):
                point = LatLon(-50.0 + i * 1e-3, -170.0 + (i % 997) * 0.3)
                HexGrid.encode_cell(point).is_pentagon_distorted()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 256 * 1024


class TestBboxCover:
    def test_covers_contains_interior_cells(self):
        cells = list(HexGrid.cells_covering_bbox(32.0, -117.5, 32.3, -117.2, 6))
        assert cells
        for cell in cells:
            center = cell.center()
            assert 32.0 <= center.lat <= 32.3
            assert -117.5 <= center.lon <= -117.2

    def test_invalid_bbox_rejected(self):
        with pytest.raises(GeoError):
            list(HexGrid.cells_covering_bbox(33.0, -117.0, 32.0, -116.0, 6))
