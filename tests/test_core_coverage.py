"""Coverage-model tests."""

import math

import pytest

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
from repro.geo.landmass import CONTIGUOUS_US
from repro.geo.polygon import convex_hull

CENTER = LatLon(39.0, -98.0)  # middle of the US


def _geometry(witness_distances, rssi=-108.0):
    witnesses = tuple(
        (destination(CENTER, 360.0 / len(witness_distances) * i, d), d, rssi)
        for i, d in enumerate(witness_distances)
    )
    return WitnessGeometry(challengee=CENTER, witnesses=witnesses)


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
            assert hull.polygon.contains(sample) or hull.centroid.distance_km(
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
        g1 = WitnessGeometry(CENTER, ((witness_location, 5.0, -108.0),))
        far_challengee = destination(witness_location, 0.0, 9.0)
        g2 = WitnessGeometry(far_challengee, ((witness_location, 9.0, -108.0),))
        model = RevisedModel([g1, g2])
        disks = [s for s, t in zip(model.shapes, model.tags) if t == "radial"]
        assert len(disks) == 1
        assert disks[0].radius_km == pytest.approx(9.0 + 0.02, abs=0.01)

    def test_ordering_disk_hull_revised(self, rng):
        geometries = [
            _geometry([2.0, 5.0, 9.0]),
            WitnessGeometry(
                destination(CENTER, 45.0, 100.0),
                tuple(
                    (destination(CENTER, 45.0 + 20 * i, 100.0 + 4.0 * i), 6.0, -110.0)
                    for i in range(3)
                ),
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
        assert len(geometries[0].witnesses) == 1
        _, distance, rssi = geometries[0].witnesses[0]
        assert distance == pytest.approx(5.0, abs=0.1)
        assert rssi == -105.0

    def test_invalid_witness_dropped(self):
        geometries = build_witness_geometry(
            [self._receipt(witness_valid=False)], self._locate
        )
        assert geometries[0].witnesses == ()

    def test_cutoff_applied(self):
        geometries = build_witness_geometry(
            [self._receipt()], self._locate, max_witness_km=2.0
        )
        assert geometries[0].witnesses == ()
