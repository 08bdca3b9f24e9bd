"""Hex-density analysis tests."""

import pytest

from repro.core.analysis.density import (
    crowding_stats,
    hex_density,
    spatial_gini,
)
from repro.errors import AnalysisError


class TestHexDensity:
    def test_counts_conserve_hotspots(self, small_store):
        stats = hex_density(small_store)
        located = sum(
            1 for _, _, token in small_store.hotspot_rows()
            if token is not None
        )
        # (0,0) artifacts are excluded from the aggregation.
        assert stats.total_hotspots <= located
        assert stats.total_hotspots > located * 0.95
        assert stats.occupied_cells <= stats.total_hotspots

    def test_top_cells_ordered(self, small_store):
        stats = hex_density(small_store, top_n=5)
        counts = [c for _, c in stats.top_cells]
        assert counts == sorted(counts, reverse=True)
        assert stats.max_cell_count == counts[0]

    def test_coarser_resolution_fewer_cells(self, small_store):
        fine = hex_density(small_store, resolution=9)
        coarse = hex_density(small_store, resolution=5)
        assert coarse.occupied_cells < fine.occupied_cells

    def test_tokens_parse_back(self, small_store):
        from repro.geo.hexgrid import HexCell

        stats = hex_density(small_store)
        for token, _ in stats.top_cells:
            assert HexCell.from_token(token).resolution == stats.resolution


class TestCrowding:
    def test_fractions_bounded_and_sensible(self, small_store):
        stats = crowding_stats(small_store)
        assert 0.0 <= stats.crowded_fraction <= 1.0
        assert 0.0 <= stats.isolated_fraction <= 1.0
        # Density-true cities pack hotspots: some crowding must exist,
        # and so must isolated rural hotspots.
        assert stats.crowded_hotspots > 0
        assert stats.isolated_hotspots > 0
        assert stats.crowded_hotspots + stats.isolated_hotspots < stats.total_hotspots

    def test_wider_exclusion_more_crowding(self, small_store):
        narrow = crowding_stats(small_store, exclusion_km=0.15)
        wide = crowding_stats(small_store, exclusion_km=0.6)
        assert wide.crowded_hotspots >= narrow.crowded_hotspots


class TestSpatialGini:
    def test_in_unit_interval(self, small_store):
        gini = spatial_gini(small_store)
        assert 0.0 <= gini <= 1.0

    def test_concentration_detected_at_city_scale(self, small_store):
        # Deployment is population-driven: at city-scale cells (res 5,
        # ~8.5 km edge) the occupied-cell distribution is unequal, while
        # at street-scale cells most occupied cells hold one hotspot.
        assert spatial_gini(small_store, resolution=5) > 0.25
        assert (spatial_gini(small_store, resolution=9)
                < spatial_gini(small_store, resolution=5))


class TestEmptyChain:
    def test_no_hotspots_rejected(self):
        from repro.chain.blockchain import Blockchain
        from repro.etl import EtlStore, ingest_chain

        store = EtlStore()
        ingest_chain(Blockchain(), store)
        with pytest.raises(AnalysisError):
            hex_density(store)
