"""Engine-level integration tests over the shared small scenario."""

import pytest

from repro import units
from repro.chain.transactions import (
    AddGateway,
    AssertLocation,
    PocReceipts,
    Rewards,
    StateChannelClose,
    TransferHotspot,
)
from repro.poc.cheats import GossipClique, RssiLiar, SilentMover
from repro.scenarios import resolve
from repro.simulation import SimulationEngine


class TestDeterminism:
    def test_same_seed_same_chain(self):
        config = resolve("small", seed=123).config
        # Trim for speed: determinism shows up in any prefix.
        import dataclasses

        config = dataclasses.replace(config, n_days=40, target_hotspots=120,
                                     dc_payments_live_day=20, hip10_day=25,
                                     spam_decay_end_day=30,
                                     international_launch_day=25,
                                     resale_start_day=32,
                                     march_snapshot_day=35,
                                     whale_start_day=30)
        a = SimulationEngine(config).run()
        b = SimulationEngine(config).run()
        assert a.chain.total_transactions == b.chain.total_transactions
        assert a.chain.tip.hash == b.chain.tip.hash


class TestChainConsistency:
    def test_every_hotspot_on_chain(self, small_result):
        adds = {t.gateway for _, t in
                small_result.chain.iter_transactions(AddGateway)}
        assert adds == set(small_result.world.hotspots)

    def test_every_hotspot_has_location(self, small_result):
        for record in small_result.chain.ledger.hotspots.values():
            assert record.has_location

    def test_ledger_owners_match_world(self, small_result):
        for gateway, hotspot in small_result.world.hotspots.items():
            assert small_result.chain.ledger.hotspots[gateway].owner == hotspot.owner

    def test_assert_nonces_consistent(self, small_result):
        seen = {}
        for _, txn in small_result.chain.iter_transactions(AssertLocation):
            expected = seen.get(txn.gateway, 0) + 1
            assert txn.nonce == expected
            seen[txn.gateway] = txn.nonce

    def test_block_heights_strictly_increase(self, small_result):
        heights = [b.height for b in small_result.chain.blocks]
        assert heights == sorted(set(heights))

    def test_transfers_settled_consistently(self, small_result):
        for _, txn in small_result.chain.iter_transactions(TransferHotspot):
            assert txn.seller != txn.buyer

    def test_rewards_minted_daily(self, small_result):
        rewards = list(small_result.chain.iter_transactions(Rewards))
        assert len(rewards) >= small_result.config.n_days * 0.9

    def test_dc_burned_matches_channel_closings(self, small_result):
        closed = sum(
            t.total_dcs for _, t in
            small_result.chain.iter_transactions(StateChannelClose)
        )
        # Channel spend is included in the ledger's burn total.
        assert small_result.chain.ledger.total_dc_burned >= closed


class TestWorldConsistency:
    def test_cheats_injected(self, small_result):
        kinds = {type(h.cheat) for h in small_result.world.hotspots.values()
                 if h.cheat is not None}
        assert {SilentMover, RssiLiar, GossipClique} <= kinds

    def test_silent_movers_have_stale_asserts(self, small_result):
        movers = [
            h for h in small_result.world.hotspots.values()
            if isinstance(h.cheat, SilentMover)
        ]
        assert movers
        # At least one has diverged actual vs asserted locations.
        assert any(
            h.asserted_location is not None
            and h.actual_location.distance_km(h.asserted_location) > 100.0
            for h in movers
        )

    def test_online_fraction_near_target(self, small_result):
        online = len(small_result.world.online_hotspots())
        total = len(small_result.world.hotspots)
        assert online / total == pytest.approx(
            small_result.config.online_fraction, abs=0.08
        )

    def test_validators_on_cloud_backhaul(self, small_result):
        validators = [
            h for h in small_result.world.hotspots.values() if h.is_validator
        ]
        for validator in validators:
            assert validator.backhaul is not None
            assert validator.backhaul.isp.name in ("Digital Ocean", "Amazon")

    def test_archetype_fleets_deployed_home(self, small_result):
        pools = [
            o for o in small_result.world.owners.values()
            if o.archetype == "pool" and o.hotspot_count > 0
        ]
        assert pools
        for pool in pools:
            fleet = [
                h for h in small_result.world.hotspots.values()
                if h.owner == pool.wallet
            ]
            assert fleet
            in_home = sum(
                1 for h in fleet if h.city.name == pool.home_city.name
            )
            assert in_home >= len(fleet) * 0.5

    def test_peerbook_covers_online_fleet(self, small_result):
        online = {h.gateway for h in small_result.world.online_hotspots()}
        with_addrs = {
            e.peer for e in small_result.peerbook.entries_with_listen_addrs()
        }
        assert with_addrs <= set(small_result.world.hotspots)
        assert len(with_addrs & online) / len(online) > 0.95


class TestPocOnChain:
    def test_receipts_have_witnesses(self, small_result):
        receipts = [
            t for _, t in small_result.chain.iter_transactions(PocReceipts)
        ]
        assert receipts
        witnessed = [r for r in receipts if r.witnesses]
        # Most challenges in a deployed network find witnesses.
        assert len(witnessed) / len(receipts) > 0.5

    def test_requests_pair_with_receipts(self, small_result):
        counts = small_result.chain.count_transactions()
        assert counts["poc_request"] == counts["poc_receipts"]
