"""Explorer query-layer tests."""

import pytest

from repro.core.explorer import Explorer
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def explorer(small_store) -> Explorer:
    return Explorer.from_store(small_store)


class TestHotspotPages:
    def test_page_fields(self, explorer, small_result):
        gateway = next(iter(small_result.chain.ledger.hotspots))
        page = explorer.hotspot(gateway)
        assert page.gateway == gateway
        assert len(page.name.split(" ")) == 3
        assert page.location is not None
        assert page.assert_count >= 1
        assert page.total_rewards_hnt >= 0.0

    def test_lookup_by_name(self, explorer, small_result):
        gateway = next(iter(small_result.chain.ledger.hotspots))
        page = explorer.hotspot(gateway)
        again = explorer.hotspot_by_name(page.name)
        # Names can collide; the index maps each name to one gateway.
        assert again.name == page.name

    def test_lookup_case_insensitive(self, explorer, small_result):
        gateway = next(iter(small_result.chain.ledger.hotspots))
        name = explorer.hotspot(gateway).name
        assert explorer.hotspot_by_name(name.upper()).name == name

    def test_unknown_hotspot_rejected(self, explorer):
        with pytest.raises(AnalysisError):
            explorer.hotspot("hs_ghost")
        with pytest.raises(AnalysisError):
            explorer.hotspot_by_name("No Such Animal")

    def test_witness_lists_populated(self, explorer, small_result):
        # Find a hotspot that appears in some receipt as challengee.
        from repro.chain.transactions import PocReceipts

        for _, receipt in small_result.chain.iter_transactions(PocReceipts):
            if receipt.witnesses:
                page = explorer.hotspot(receipt.challengee)
                assert page.recent_witnessed_by
                witness_page = explorer.hotspot(receipt.witnesses[0].witness)
                assert witness_page.recent_witnesses
                break

    def test_recent_lists_bounded(self, explorer, small_result):
        for gateway in list(small_result.chain.ledger.hotspots)[:50]:
            page = explorer.hotspot(gateway)
            assert len(page.recent_witnesses) <= explorer.recent_limit
            assert len(page.recent_witnessed_by) <= explorer.recent_limit


class TestOwnerPages:
    def test_owner_page(self, explorer, small_result):
        counts = small_result.chain.ledger.owner_counts()
        owner, fleet_size = max(counts.items(), key=lambda kv: kv[1])
        page = explorer.owner(owner)
        assert page.hotspot_count == fleet_size
        assert len(page.hotspots) == fleet_size
        assert page.total_rewards_hnt >= 0.0

    def test_unknown_owner_rejected(self, explorer):
        with pytest.raises(AnalysisError):
            explorer.owner("wal_ghost_wallet")


class TestSearch:
    def test_substring_search(self, explorer, small_result):
        gateway = next(iter(small_result.chain.ledger.hotspots))
        name = explorer.hotspot(gateway).name
        first_word = name.split(" ")[0]
        matches = explorer.search(first_word.lower())
        assert matches
        assert all(first_word.lower() in m[1].lower() for m in matches)

    def test_near_query(self, explorer, small_result):
        hotspot = next(iter(small_result.world.hotspots.values()))
        pages = explorer.hotspots_near(hotspot.actual_location, 10.0, limit=5)
        assert pages
        assert len(pages) <= 5
