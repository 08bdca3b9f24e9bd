"""Chain-analysis tests over the shared small scenario."""

import pytest

from repro.core.analysis.chainstats import chain_stats
from repro.core.analysis.growth import growth_curves, snapshot
from repro.core.analysis.moves import (
    collect_move_records,
    long_moves,
    move_distance_cdf,
    move_interval_blocks,
    move_stats,
    null_island_stats,
)
from repro.core.analysis.ownership import classify_owners, owner_fleet_map, ownership_stats
from repro.core.analysis.resale import resale_stats, top_traders, transfers_over_time
from repro.core.analysis.traffic import channel_share, spam_episode, traffic_series
from repro.errors import AnalysisError


class TestChainStats:
    def test_census_sums(self, small_store):
        stats = chain_stats(small_store)
        assert stats.total_transactions == sum(stats.counts_by_kind.values())
        assert stats.poc_transactions == (
            stats.counts_by_kind["poc_request"]
            + stats.counts_by_kind["poc_receipts"]
        )

    def test_descaled_share_near_paper(self, small_result, small_store):
        stats = chain_stats(
            small_store,
            poc_thinning_factor=small_result.config.poc_thinning_factor,
        )
        assert stats.poc_share_descaled == pytest.approx(0.992, abs=0.02)

    def test_bad_thinning_rejected(self, small_store):
        with pytest.raises(AnalysisError):
            chain_stats(small_store, poc_thinning_factor=0.0)


class TestMoves:
    def test_never_move_fraction(self, small_result, small_store):
        stats = move_stats(small_store)
        # Truncated 180-day window: above the configured 71.9 %.
        assert 0.70 <= stats.never_moved_fraction <= 0.95
        assert stats.n_hotspots == len(small_result.world.hotspots)

    def test_records_have_positive_intervals(self, small_store):
        records = collect_move_records(small_store)
        assert records
        assert all(r.interval_blocks > 0 for r in records)

    def test_distance_cdf_bimodal(self, small_store):
        records = collect_move_records(small_store)
        distances = move_distance_cdf(records, exclude_null_island=True)
        assert (distances <= 50.0).mean() > 0.5      # short mode dominates
        assert (distances > 500.0).sum() > 0         # long mode exists

    def test_long_moves_subset(self, small_store):
        records = collect_move_records(small_store)
        long = long_moves(records)
        assert all(r.distance_km > 500.0 for r in long)

    def test_interval_cdf_anchors(self, small_store):
        records = collect_move_records(small_store)
        stats = move_interval_blocks(records)
        assert 0 < stats.within_day_fraction < stats.within_week_fraction
        assert stats.within_week_fraction < stats.within_month_fraction <= 1.0

    def test_null_island_bookkeeping(self, small_store):
        stats = null_island_stats(small_store)
        assert stats.first_time_null_asserts <= stats.total_null_asserts
        # Most (0,0) asserts are first-time GPS failures (§4.1: 89 %).
        if stats.total_null_asserts >= 5:
            assert stats.first_time_fraction > 0.5


class TestGrowth:
    def test_final_connected_matches_world(self, small_result, small_store):
        curves = growth_curves(small_store, small_result.growth_log)
        assert curves.cumulative_connected[-1] == len(small_result.world.hotspots)

    def test_online_below_connected(self, small_result, small_store):
        curves = growth_curves(small_store, small_result.growth_log)
        final = snapshot(curves, len(curves.days) - 1)
        assert 0 < final.online < final.connected
        assert final.online == final.online_us + final.online_international

    def test_growth_accelerates(self, small_result, small_store):
        curves = growth_curves(small_store, small_result.growth_log)
        n = len(curves.days)
        first_half = curves.cumulative_connected[n // 2]
        assert first_half < curves.cumulative_connected[-1] / 2

    def test_snapshot_bounds(self, small_result, small_store):
        curves = growth_curves(small_store, small_result.growth_log)
        with pytest.raises(AnalysisError):
            snapshot(curves, len(curves.days))


class TestOwnership:
    def test_distribution_shape(self, small_store):
        stats = ownership_stats(small_store)
        assert stats.one_hotspot_fraction == pytest.approx(0.621, abs=0.08)
        assert stats.at_most_three_fraction == pytest.approx(0.837, abs=0.08)
        assert stats.max_owned >= 10  # the whale

    def test_owner_counts_sum_to_fleet(self, small_result, small_store):
        stats = ownership_stats(small_store)
        assert stats.n_hotspots == len(small_result.world.hotspots)

    def test_classification_finds_both_classes(self, small_store):
        profiles = classify_owners(small_store)
        classes = {p.inferred_class for p in profiles}
        assert "application" in classes   # the commercial archetypes
        assert "mining" in classes        # pools/whale

    def test_commercial_archetypes_detected(self, small_result, small_store):
        # The engine's commercial owners ferry data and hold HNT.
        commercial_wallets = {
            o.wallet for o in small_result.world.owners.values()
            if o.archetype == "commercial"
        }
        profiles = {p.owner: p for p in classify_owners(small_store)}
        detected = [
            profiles[w].inferred_class
            for w in commercial_wallets
            if w in profiles and profiles[w].hotspots >= 3
        ]
        assert detected and all(c == "application" for c in detected)

    def test_fleet_map(self, small_store):
        stats = ownership_stats(small_store)
        biggest = max(
            small_store.owner_counts().items(),
            key=lambda kv: kv[1],
        )[0]
        fleet = owner_fleet_map(small_store, biggest)
        assert len(fleet) == stats.max_owned

    def test_unknown_owner_rejected(self, small_store):
        with pytest.raises(AnalysisError):
            owner_fleet_map(small_store, "wal_nobody")


class TestResale:
    def test_headline_shares(self, small_store):
        stats = resale_stats(small_store)
        assert stats.zero_dc_fraction == pytest.approx(0.958, abs=0.05)
        assert stats.transferred_fraction_of_fleet == pytest.approx(0.086, abs=0.05)
        assert stats.at_most_two_transfers_fraction > 0.75

    def test_timeline_starts_after_market_opens(self, small_result, small_store):
        timeline = transfers_over_time(small_store, bucket_days=10)
        first_day = timeline[0][0]
        assert first_day >= small_result.config.resale_start_day - 10

    def test_top_traders_ordered(self, small_store):
        traders = top_traders(small_store, top_n=20)
        totals = [t.total for t in traders]
        assert totals == sorted(totals, reverse=True)


class TestTraffic:
    def test_console_share(self, small_store):
        share = channel_share(small_store)
        # Paper: 81.18 %. The compressed small timeline gives third-party
        # routers less time to open channels, so the band is wide.
        assert share.console_share == pytest.approx(0.8118, abs=0.08)
        assert len(share.ouis_seen) == 10

    def test_series_covers_run(self, small_result, small_store):
        series = traffic_series(small_store)
        assert len(series.days) >= small_result.config.n_days - 2

    def test_spam_spike_found_at_dc_launch(self, small_result, small_store):
        series = traffic_series(small_store)
        spike = spam_episode(series)
        config = small_result.config
        assert (config.dc_payments_live_day - 3
                <= spike.peak_day
                <= config.spam_decay_end_day + 3)
        assert spike.spike_multiplier > 4.0
        assert spike.decayed_by_day is not None
