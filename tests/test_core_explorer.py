"""Explorer query-layer tests."""

import json
import sqlite3

import pytest

from repro.core.explorer import Explorer
from repro.errors import AnalysisError
from repro.etl.cli import main as etl_main
from repro.serve.server import create_server

from tests.test_serve import LiveServer


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
        # Names can collide; a name answers with one gateway.
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


class TestSharedNames:
    """Two small-scenario hotspots share the name "Mellow Ivory Gecko".
    The explorer, the HTTP tier and the CLI all answer that name with
    the first of them on the ledger, and search lists both."""

    NAME = "Mellow Ivory Gecko"

    @pytest.fixture()
    def sharing(self, small_result):
        gateways = [
            gateway
            for gateway, record in small_result.chain.ledger.hotspots.items()
            if record.name == self.NAME
        ]
        assert len(gateways) == 2
        return gateways

    def test_every_surface_gives_the_first(
        self, explorer, small_store, sharing, tmp_path, capsys
    ):
        first = sharing[0]
        assert small_store.gateway_by_name(self.NAME.upper()) == first
        assert explorer.hotspot_by_name(self.NAME).gateway == first

        path = tmp_path / "store.db"
        copy = sqlite3.connect(path)
        small_store.connection.backup(copy)
        copy.close()
        query = ["query", "--db", str(path), "hotspot", self.NAME]
        assert etl_main(query) == 0
        assert json.loads(capsys.readouterr().out)["gateway"] == first
        live = LiveServer(create_server(str(path), port=0, workers=1))
        try:
            status, _, page = live.get_json("/hotspot/mellow-ivory-gecko")
        finally:
            live.close()
        assert (status, page["gateway"]) == (200, first)

    def test_search_lists_both(self, explorer, small_store, sharing):
        matches = explorer.search(self.NAME.lower())
        assert matches == small_store.search_names(self.NAME.lower())
        assert [gateway for gateway, _ in matches] == sharing

    def test_name_lookup_uses_the_name_index(self, small_store):
        statements = []
        small_store.connection.set_trace_callback(statements.append)
        try:
            small_store.gateway_by_name(self.NAME)
        finally:
            small_store.connection.set_trace_callback(None)
        [statement] = statements
        plan = small_store.connection.execute(
            "EXPLAIN QUERY PLAN " + statement
        ).fetchall()
        assert [row[3] for row in plan] == [
            "SEARCH hotspots USING INDEX idx_hs_name (<expr>=?)"
        ]
