"""Tests for the generative-model components (growth, owners, moves, ...)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.growth import build_adoption_schedule
from repro.simulation.moves import MovePlanner, sample_move_gap_days
from repro.simulation.resale import ResalePlanner
from repro.scenarios import resolve
from repro.simulation.scenario import ScenarioConfig
from repro.simulation.traffic import TrafficModel


@pytest.fixture()
def config() -> ScenarioConfig:
    return resolve("small", seed=3).config


class TestScenario:
    def test_paper_scale_factor(self):
        assert resolve("paper").config.scale_factor == pytest.approx(0.1)

    def test_thinning_factor(self):
        config = resolve("paper").config
        assert config.poc_thinning_factor == pytest.approx(
            3.0 / config.challenges_per_hotspot_day
        )

    def test_validation(self):
        with pytest.raises(SimulationError):
            ScenarioConfig(n_days=5)
        with pytest.raises(SimulationError):
            ScenarioConfig(target_hotspots=10)
        with pytest.raises(SimulationError):
            ScenarioConfig(online_fraction=0.0)


class TestAdoption:
    def test_total_matches_target(self, config, rng):
        schedule = build_adoption_schedule(config, rng)
        assert schedule.total == config.target_hotspots

    def test_growth_is_batchy_and_increasing(self, config, rng):
        schedule = build_adoption_schedule(config, rng)
        cumulative = schedule.cumulative()
        assert cumulative[-1] == config.target_hotspots
        # Later months add more than earlier months (Fig. 5 exponential).
        first_third = cumulative[len(cumulative) // 3]
        assert first_third < config.target_hotspots // 3

    def test_international_share_ramps(self, config, rng):
        schedule = build_adoption_schedule(config, rng)
        launch = config.international_launch_day
        assert all(s == 0.0 for s in schedule.international_share[:launch])
        assert schedule.international_share[-1] > 0.1


class TestMoves:
    def test_gap_distribution_generative_anchors(self, rng):
        # The generative anchors deliberately sit below Fig. 4's measured
        # CDF; right-censoring by the study window lifts the measured
        # values toward the paper's 17.9/35.8/63.2 % (see moves.py).
        gaps = [sample_move_gap_days(rng) for _ in range(8000)]
        arr = np.array(gaps)
        assert (arr <= 1).mean() == pytest.approx(0.12, abs=0.02)
        assert (arr <= 7).mean() == pytest.approx(0.24, abs=0.02)
        assert (arr <= 30).mean() == pytest.approx(0.46, abs=0.02)

    def test_heavy_mover_gaps_compressed(self, rng):
        light = np.array([sample_move_gap_days(rng) for _ in range(4000)])
        heavy = np.array([
            sample_move_gap_days(rng, heavy_mover=True) for _ in range(4000)
        ])
        assert heavy.max() <= 60.0
        assert np.median(heavy) < np.median(light)

    def test_most_hotspots_never_move(self, rng):
        # Use the full-length study window: short windows truncate the
        # geometric move schedule (as they would in reality).
        planner = MovePlanner(resolve("paper").config)
        mover_count = sum(
            1 for _ in range(3000)
            if planner.plan(0, rng, initial_null=False)
        )
        assert mover_count / 3000 == pytest.approx(
            1.0 - resolve("paper").config.never_move_fraction, abs=0.04
        )

    def test_mover_tail_matches_configured_geometric(self, rng):
        # The generative tail is a geometric in extra_move_probability
        # (deliberately fatter than Fig. 2's steady state, to compensate
        # for right-censoring by the study window — see ScenarioConfig).
        config = resolve("paper").config
        q = config.extra_move_probability
        planner = MovePlanner(config)
        mover_counts = []
        for _ in range(4000):
            moves = planner.plan(0, rng, initial_null=False)
            real_moves = [m for m in moves if m.kind != "from_null"]
            if real_moves:
                mover_counts.append(len(real_moves))
        arr = np.array(mover_counts)
        # Right-censoring by the window trims both tails relative to the
        # raw geometric, so assert bands rather than exact moments.
        assert (1.0 - q ** 2) - 0.10 < (arr <= 2).mean() < (1.0 - q ** 2) + 0.15
        assert 0.02 < (arr > 5).mean() <= q ** 5 + 0.05

    def test_null_island_corrected(self, config, rng):
        planner = MovePlanner(config)
        moves = planner.plan(0, rng, initial_null=True)
        assert moves[0].kind == "from_null"

    def test_to_null_always_followed_by_from_null(self, config, rng):
        planner = MovePlanner(config)
        for _ in range(4000):
            moves = planner.plan(0, rng, initial_null=False)
            kinds = [m.kind for m in moves]
            for i, kind in enumerate(kinds):
                if kind == "to_null" and i + 1 < len(kinds):
                    assert kinds[i + 1] == "from_null"

    def test_moves_sorted_and_fractional(self, config, rng):
        planner = MovePlanner(config)
        for _ in range(200):
            moves = planner.plan(5, rng, initial_null=False)
            days = [m.day for m in moves]
            assert days == sorted(days)
            assert all(d >= 5 for d in days)


class TestResale:
    def test_resale_fraction(self, config, rng):
        planner = ResalePlanner(config)
        sold = sum(1 for _ in range(5000) if planner.plan(0, rng))
        assert sold / 5000 == pytest.approx(config.resale_fraction, abs=0.02)

    def test_transfers_start_after_market_opens(self, config, rng):
        planner = ResalePlanner(config)
        for _ in range(500):
            for transfer in planner.plan(0, rng):
                assert transfer.day >= config.resale_start_day

    def test_zero_dc_share(self, config, rng):
        planner = ResalePlanner(config)
        amounts = []
        for _ in range(20000):
            for transfer in planner.plan(0, rng):
                amounts.append(transfer.amount_dc)
        zero = sum(1 for a in amounts if a == 0)
        assert zero / len(amounts) == pytest.approx(
            config.zero_dc_transfer_fraction, abs=0.02
        )

    def test_nonzero_prices_in_ebay_band(self, config, rng):
        from repro import units

        planner = ResalePlanner(config)
        for _ in range(20000):
            for transfer in planner.plan(0, rng):
                if transfer.amount_dc:
                    usd = units.dc_to_usd(transfer.amount_dc)
                    assert 405.0 <= usd <= 6_500.0


class TestTraffic:
    def test_monotone_organic_growth(self, config, rng):
        model = TrafficModel(config)
        early = model.day_traffic(5, rng)
        late = model.day_traffic(config.n_days - 10, rng)
        assert late.console_packets > early.console_packets * 5

    def test_spam_episode_bounds(self, config, rng):
        model = TrafficModel(config)
        before = model.day_traffic(config.dc_payments_live_day - 1, rng)
        during = model.day_traffic(config.hip10_day, rng)
        after = model.day_traffic(config.spam_decay_end_day + 1, rng)
        assert before.spam_packets == 0
        assert during.spam_packets > during.console_packets * 5
        assert after.spam_packets == 0

    def test_third_party_appears_late(self, config, rng):
        model = TrafficModel(config)
        early = model.day_traffic(10, rng)
        late = model.day_traffic(config.n_days - 5, rng)
        assert early.third_party_packets == 0
        assert late.third_party_packets > 0

    def test_day_out_of_range_rejected(self, config, rng):
        model = TrafficModel(config)
        with pytest.raises(SimulationError):
            model.day_traffic(-1, rng)
        with pytest.raises(SimulationError):
            model.day_traffic(config.n_days, rng)

    def test_attribution_conserves_packets(self, config, rng):
        model = TrafficModel(config)
        weights = {f"hs_{i}": float(i + 1) for i in range(60)}
        allocation = model.attribute_packets(10_000, weights, rng)
        assert sum(allocation.values()) == 10_000
        assert len(allocation) <= 40  # capped summary width

    def test_channel_cadence_gives_console_share(self, config):
        model = TrafficModel(config)
        console = model.channels_per_day(third_party=False) * 2
        third = model.channels_per_day(third_party=True) * 2
        share = console / (console + third)
        assert share == pytest.approx(config.console_channel_share, abs=0.01)
