"""Tests for the outage-impact and reward-economics analyses."""

import pytest

from repro.core.analysis.outage import isp_outage_impact, worst_city_outages
from repro.core.analysis.rewards import (
    hotspot_earnings,
    payback_analysis,
    speculation_ratio,
)
from repro.errors import AnalysisError


def _maps(small_result):
    peer_city = {
        g: h.city.name for g, h in small_result.world.hotspots.items()
    }
    peer_location = {
        g: h.asserted_location
        for g, h in small_result.world.hotspots.items()
        if h.asserted_location is not None
    }
    return peer_city, peer_location


class TestOutageImpact:
    def test_national_outage(self, small_result):
        peer_city, peer_location = _maps(small_result)
        impact = isp_outage_impact(
            small_result.peerbook, small_result.world.isps,
            peer_city, peer_location, org="Spectrum",
        )
        assert impact.hotspots_in_scope > 0
        assert 0.0 <= impact.down_fraction <= 1.0
        assert impact.hotspots_down > 0
        # Relay fate-sharing: some NATed peers hang off Spectrum relays.
        assert impact.relayed_collateral >= 0

    def test_city_scoped_outage(self, small_result):
        peer_city, peer_location = _maps(small_result)
        # Find a city where Spectrum actually hosts hotspots.
        from repro.core.analysis.outage import _annotate_orgs

        orgs = _annotate_orgs(small_result.peerbook, small_result.world.isps)
        city = next(
            (peer_city[p] for p, o in orgs.items() if o == "Spectrum"), None
        )
        if city is None:
            pytest.skip("no Spectrum hotspots this seed")
        impact = isp_outage_impact(
            small_result.peerbook, small_result.world.isps,
            peer_city, peer_location, org="Spectrum", city=city,
        )
        assert impact.city == city
        assert impact.hotspots_down >= 1
        assert impact.coverage_disks_lost_fraction > 0.0

    def test_unknown_scope_rejected(self, small_result):
        peer_city, peer_location = _maps(small_result)
        with pytest.raises(AnalysisError):
            isp_outage_impact(
                small_result.peerbook, small_result.world.isps,
                peer_city, peer_location, org="Spectrum", city="Atlantis",
            )

    def test_worst_city_ranking(self, small_result):
        peer_city, peer_location = _maps(small_result)
        impacts = worst_city_outages(
            small_result.peerbook, small_result.world.isps,
            peer_city, peer_location, min_hotspots=3, top_n=5,
        )
        assert impacts
        fractions = [i.down_fraction for i in impacts]
        assert fractions == sorted(fractions, reverse=True)
        # The LA-Spectrum pattern: some city loses most of its hotspots
        # to one ISP (paper: 87 %).
        assert fractions[0] > 0.5


class TestRewardEconomics:
    def test_earnings_distribution(self, small_store):
        stats = hotspot_earnings(small_store)
        assert stats.n_hotspots > 0
        assert stats.median_hnt <= stats.p90_hnt <= stats.max_hnt
        assert stats.total_hnt > 0
        assert "poc_witness" in stats.by_reward_type_hnt

    def test_payback_footnote1(self, small_store):
        # At May-2021 prices, "hotspots pay for themselves in a few
        # weeks" — the median payback should be days-to-months.
        stats = payback_analysis(
            small_store, hnt_price_usd=15.0, hotspot_cost_usd=400.0
        )
        assert stats.paid_back_fraction > 0.2
        assert stats.p25_payback_days <= stats.median_payback_days
        assert stats.median_payback_days < 150.0

    def test_payback_at_dust_prices_never_happens(self, small_store):
        stats = payback_analysis(
            small_store, hnt_price_usd=0.0001, hotspot_cost_usd=400.0
        )
        assert stats.paid_back_fraction < 0.05

    def test_invalid_inputs_rejected(self, small_store):
        with pytest.raises(AnalysisError):
            payback_analysis(small_store, hnt_price_usd=0.0)

    def test_speculation_ratio(self, small_store):
        ratio = speculation_ratio(small_store)
        # "Helium is largely speculative today with more hotspot
        # activity than user activity" — coverage rewards dominate.
        assert ratio > 0.5
