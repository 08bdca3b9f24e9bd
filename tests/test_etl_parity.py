"""Backend parity: the ETL store answers exactly like the object graph.

Three layers of evidence, per the issue's acceptance criteria:

* **Randomized chains** (Hypothesis): any valid chain the builder can
  produce yields identical explorer pages and analysis numbers on both
  backends.
* **Small scenario**: the full simulated scenario the rest of the test
  suite uses, compared page-by-page and analysis-by-analysis.
* **Paper scenario**: the case-study comparison on the full-size chain
  (pages sampled — the whole fleet would dominate suite runtime).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analysis import resale, rewards, witnesses
from repro.core.explorer import Explorer
from repro.errors import AnalysisError
from repro.etl import EtlStore, ingest_chain
from repro.experiments import context
from repro.geo.geodesy import LatLon

from tests.etl_chains import ChainBuilder


def _ingested(chain) -> EtlStore:
    store = EtlStore()
    ingest_chain(chain, store)
    return store


def _maybe(callable_, *args, **kwargs):
    """The result, or the AnalysisError message when the data is absent
    (both backends must fail identically on e.g. transfer-free chains)."""
    try:
        return callable_(*args, **kwargs)
    except AnalysisError as exc:
        return ("raised", str(exc))


def _assert_analysis_parity(chain, store) -> None:
    assert witnesses.witness_distance_cdf(chain) == (
        witnesses.witness_distance_cdf(store)
    )
    assert witnesses.witness_rssi_cdf(chain, valid_only=True) == (
        witnesses.witness_rssi_cdf(store, valid_only=True)
    )
    assert witnesses.witness_rssi_cdf(chain, valid_only=False) == (
        witnesses.witness_rssi_cdf(store, valid_only=False)
    )
    assert _maybe(witnesses.witnesses_per_challenge, chain) == (
        _maybe(witnesses.witnesses_per_challenge, store)
    )
    assert witnesses.validity_breakdown(chain) == (
        witnesses.validity_breakdown(store)
    )
    assert _maybe(rewards.hotspot_earnings, chain) == (
        _maybe(rewards.hotspot_earnings, store)
    )
    assert _maybe(rewards.payback_analysis, chain, 15.0) == (
        _maybe(rewards.payback_analysis, store, 15.0)
    )
    assert _maybe(rewards.speculation_ratio, chain) == (
        _maybe(rewards.speculation_ratio, store)
    )
    assert _maybe(resale.resale_stats, chain) == (
        _maybe(resale.resale_stats, store)
    )
    assert resale.transfers_over_time(chain) == (
        resale.transfers_over_time(store)
    )
    assert resale.top_traders(chain) == resale.top_traders(store)


class TestRandomizedChains:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_explorer_and_analyses_agree(self, seed):
        builder = ChainBuilder(seed=seed, n_hotspots=5)
        builder.grow(12)
        store = _ingested(builder.chain)
        in_memory = Explorer(builder.chain)
        from_store = Explorer.from_store(store)
        for gateway in builder.gateways:
            assert in_memory.hotspot(gateway) == from_store.hotspot(gateway)
        for wallet in builder.owners + ["wal_router"]:
            assert _maybe(in_memory.owner, wallet) == (
                _maybe(from_store.owner, wallet)
            )
        _assert_analysis_parity(builder.chain, store)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_search_and_name_lookup_agree(self, seed):
        builder = ChainBuilder(seed=seed, n_hotspots=4)
        builder.grow(4)
        store = _ingested(builder.chain)
        in_memory = Explorer(builder.chain)
        from_store = Explorer.from_store(store)
        for gateway in builder.gateways:
            name = in_memory.hotspot(gateway).name
            assert from_store.hotspot_by_name(name).gateway == gateway
            needle = name.split()[0].lower()
            assert in_memory.search(needle) == from_store.search(needle)


@pytest.fixture(scope="module")
def small_store(small_result) -> EtlStore:
    return _ingested(small_result.chain)


class TestSmallScenarioParity:
    def test_every_hotspot_page(self, small_result, small_store):
        in_memory = Explorer(small_result.chain)
        from_store = Explorer.from_store(small_store)
        for gateway in small_result.chain.ledger.hotspots:
            assert in_memory.hotspot(gateway) == from_store.hotspot(gateway)

    def test_every_owner_page(self, small_result, small_store):
        in_memory = Explorer(small_result.chain)
        from_store = Explorer.from_store(small_store)
        for wallet in small_result.chain.ledger.wallets:
            assert in_memory.owner(wallet) == from_store.owner(wallet)

    def test_hotspots_near(self, small_result, small_store):
        in_memory = Explorer(small_result.chain)
        from_store = Explorer.from_store(small_store)
        some_located = next(
            record.location_token
            for record in small_result.chain.ledger.hotspots.values()
            if record.location_token is not None
        )
        from repro.geo.hexgrid import HexCell

        center = HexCell.from_token(some_located).center()
        assert in_memory.hotspots_near(center, 30.0) == (
            from_store.hotspots_near(center, 30.0)
        )
        far = LatLon(-45.0, 170.0)
        assert in_memory.hotspots_near(far, 5.0) == (
            from_store.hotspots_near(far, 5.0)
        )

    def test_analyses(self, small_result, small_store):
        _assert_analysis_parity(small_result.chain, small_store)


class TestPaperScenarioParity:
    """The full-size chain, via the shared scenario/store cache."""

    @pytest.fixture(scope="class")
    def paper(self):
        result = context.get_result("paper")
        return result, context.get_store("paper")

    def test_store_is_current(self, paper):
        result, store = paper
        assert store.checkpoint_height == result.chain.height
        assert store.get_meta("tip_hash") == result.chain.tip.hash

    def test_sampled_hotspot_pages(self, paper):
        result, store = paper
        in_memory = Explorer(result.chain)
        from_store = Explorer.from_store(store)
        gateways = list(result.chain.ledger.hotspots)
        sample = random.Random(2021).sample(gateways, 80)
        for gateway in sample:
            assert in_memory.hotspot(gateway) == from_store.hotspot(gateway)

    def test_sampled_owner_pages(self, paper):
        result, store = paper
        in_memory = Explorer(result.chain)
        from_store = Explorer.from_store(store)
        wallets = list(result.chain.ledger.wallets)
        sample = random.Random(2021).sample(wallets, 40)
        for wallet in sample:
            assert in_memory.owner(wallet) == from_store.owner(wallet)

    def test_analyses(self, paper):
        result, store = paper
        _assert_analysis_parity(result.chain, store)

    def test_http_case_study(self, paper, tmp_path):
        """A full explorer.helium.com-style walk over HTTP: look a
        hotspot up by name, follow it to its owner's wallet page."""
        import json
        import sqlite3
        import threading
        import urllib.request
        from urllib.parse import quote

        from repro.etl.server import owner_to_json, page_to_json
        from repro.serve.server import create_server

        result, store = paper
        # The tier serves a file; copy the (possibly in-memory) store.
        db = str(tmp_path / "paper.db")
        copy = sqlite3.connect(db)
        try:
            store.connection.backup(copy)
        finally:
            copy.close()
        server = create_server(db, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"

            def fetch(path):
                with urllib.request.urlopen(base + path, timeout=10) as r:
                    return json.loads(r.read().decode("utf-8"))

            explorer = Explorer(result.chain)
            gateway = next(iter(result.chain.ledger.hotspots))
            page = explorer.hotspot(gateway)

            slug = quote(page.name.replace(" ", "-"))
            assert fetch(f"/hotspot/{slug}") == page_to_json(page)
            assert fetch(f"/hotspot/{gateway}") == page_to_json(page)
            assert fetch(f"/owner/{page.owner}") == owner_to_json(
                explorer.owner(page.owner)
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
