"""Incentive-forensics and witness-distribution analysis tests."""

import pytest

from repro.core.analysis.incentives import (
    cheater_rewards,
    find_rssi_anomalies,
    find_silent_movers,
)
from repro.core.analysis.witnesses import (
    validity_breakdown,
    witness_distance_cdf,
    witness_rssi_cdf,
)
from repro.errors import AnalysisError
from repro.poc.cheats import GossipClique, RssiLiar, SilentMover


class TestSilentMovers:
    def test_detector_finds_injected_cheats(self, small_result, small_store):
        # min_events=2: the small scenario injects only a handful of
        # silent movers, while same-day assert/challenge block races
        # produce single-event transients that must be filtered.
        findings = find_silent_movers(small_store, min_events=2)
        truth = {
            g for g, h in small_result.world.hotspots.items()
            if isinstance(h.cheat, (SilentMover, GossipClique))
        }
        flagged = {f.gateway for f in findings}
        # Some injected location-impossible cheats are caught...
        assert flagged & truth
        # ...with non-trivial precision (the time-aware replay prevents
        # honest movers from being flagged wholesale).
        precision = len(flagged & truth) / len(flagged)
        assert precision > 0.1

    def test_findings_sorted_by_contradiction(self, small_store):
        findings = find_silent_movers(small_store, min_events=2)
        distances = [f.contradiction_km for f in findings]
        assert distances == sorted(distances, reverse=True)
        for finding in findings:
            assert finding.contradiction_km > 200.0
            assert finding.name  # three-word display name

    def test_cheats_still_rewarded(self, small_store):
        findings = find_silent_movers(small_store, min_events=2)
        # The §7.1 takeaway: flagged cheats keep earning.
        assert any(f.still_rewarded for f in findings)


class TestRssiAnomalies:
    def test_absurd_values_found_and_rejected(self, small_store):
        anomalies = find_rssi_anomalies(small_store)
        assert anomalies  # RssiLiars inject them
        assert anomalies[0].rssi_dbm == pytest.approx(1_041_313_293.0)
        assert not any(a.passed_validity for a in anomalies)

    def test_anomalies_trace_to_liars(self, small_result, small_store):
        anomalies = find_rssi_anomalies(small_store)
        liars = {
            g for g, h in small_result.world.hotspots.items()
            if isinstance(h.cheat, RssiLiar)
        }
        assert {a.witness for a in anomalies} <= liars


class TestCheaterRewards:
    def test_totals_nonnegative(self, small_result, small_store):
        gateways = [
            g for g, h in small_result.world.hotspots.items()
            if h.cheat is not None
        ][:10]
        rewards = cheater_rewards(small_store, gateways)
        assert set(rewards) == set(gateways)
        assert all(v >= 0 for v in rewards.values())

    def test_empty_input_rejected(self, small_store):
        with pytest.raises(AnalysisError):
            cheater_rewards(small_store, [])


class TestWitnessDistributions:
    def test_distance_cdf_shape(self, small_store):
        stats = witness_distance_cdf(small_store)
        assert 0.3 < stats.median_km < 15.0
        assert stats.median_km < stats.p95_km <= stats.max_km
        # HIP 15 excludes witnesses under 300 m.
        assert min(stats.distances_km) >= 0.29

    def test_rssi_cdf_in_physical_band(self, small_store):
        stats = witness_rssi_cdf(small_store)
        assert -139.0 <= stats.p5_dbm <= stats.median_dbm <= stats.p95_dbm
        assert stats.p95_dbm < 0.0  # no absurd values among the valid

    def test_rssi_includes_absurd_when_unfiltered(self, small_store):
        stats = witness_rssi_cdf(small_store, valid_only=False)
        assert stats.rssis_dbm[-1] > 1e6  # the liar's billion-dBm claim

    def test_window_restriction(self, small_store):
        end = small_store.checkpoint_height
        windowed = witness_rssi_cdf(
            small_store, start_height=end - 20 * 1440, end_height=end
        )
        full = witness_rssi_cdf(small_store)
        assert len(windowed.rssis_dbm) < len(full.rssis_dbm)

    def test_validity_breakdown(self, small_store):
        breakdown = validity_breakdown(small_store)
        assert breakdown["valid"] > 0
        # The HIP-15 proximity rule fires somewhere in a dense city.
        assert breakdown.get("too_close", 0) > 0


class TestWitnessesPerChallenge:
    def test_distribution_shape(self, small_store):
        from repro.core.analysis.witnesses import witnesses_per_challenge

        stats = witnesses_per_challenge(small_store)
        assert stats.challenges > 0
        assert sum(c for _, c in stats.histogram) == stats.challenges
        assert 0.0 <= stats.zero_witness_fraction < 1.0
        assert stats.median_witnesses <= stats.max_witnesses
        # Dense cities give most challenges several witnesses; rural
        # challenges give the zero-witness sparse population (§2.3).
        assert stats.median_witnesses >= 1.0
        assert stats.zero_witness_fraction > 0.0


class TestPredictionAccuracy:
    def test_scores_any_model(self, small_result):
        from repro.core.coverage import DiskModel, prediction_accuracy
        from repro.lorawan.network import TransmissionRecord
        from repro.geo.geodesy import destination

        hotspot = next(iter(small_result.world.online_hotspots()))
        model = DiskModel([hotspot.actual_location], radius_km=0.3)
        inside = hotspot.actual_location
        outside = destination(inside, 0.0, 5.0)
        records = [
            TransmissionRecord(0, 0.0, inside, delivered_to_cloud=True),
            TransmissionRecord(1, 1.0, inside, delivered_to_cloud=False),
            TransmissionRecord(2, 2.0, outside, delivered_to_cloud=False),
            TransmissionRecord(3, 3.0, outside, delivered_to_cloud=True),
        ]
        score = prediction_accuracy(model, records)
        assert score.packets == 4
        assert score.predicted_covered == 2
        assert score.covered_received_fraction == 0.5
        assert score.uncovered_missed_fraction == 0.5
        assert score.accuracy == 0.5

    def test_empty_records_rejected(self, small_result):
        from repro.core.coverage import DiskModel, prediction_accuracy
        from repro.errors import AnalysisError
        from repro.geo.geodesy import LatLon

        with pytest.raises(AnalysisError):
            prediction_accuracy(DiskModel([LatLon(0, 1)]), [])
