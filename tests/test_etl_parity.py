"""Read-path parity: the ETL store answers exactly like a chain walk.

The analyses and the explorer read only the ETL replica. Their oracles
are the chain walks in ``tests/reference_twins.py``: :class:`ChainRows`
(every row an analysis reads, derived from the chain and its ledger),
``find_silent_movers_reference`` (the §7.1 chain replay) and
:class:`ChainExplorer` (pages from an in-memory index of the chain).
Three layers of evidence:

* **Randomized chains** (Hypothesis): any valid chain the builder can
  produce yields identical explorer pages and analysis numbers from the
  store and from its oracle.
* **Small scenario**: the full simulated scenario the rest of the test
  suite uses, compared page-by-page and analysis-by-analysis.
* **Paper scenario**: the case-study comparison on the full-size chain
  (pages sampled — the whole fleet would dominate suite runtime).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analysis import (
    chainstats,
    density,
    growth,
    incentives,
    moves,
    ownership,
    resale,
    rewards,
    traffic,
    witnesses,
)
from repro.core.coverage import build_witness_geometry
from repro.core.explorer import Explorer
from repro.errors import AnalysisError
from repro.etl import EtlStore, ingest_chain
from repro.experiments import context
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexCell

from tests.etl_chains import ChainBuilder
from tests.reference_twins import (
    ChainExplorer,
    ChainRows,
    find_silent_movers_reference,
)


def _ingested(chain) -> EtlStore:
    store = EtlStore()
    ingest_chain(chain, store)
    return store


def _locate(token):
    location = HexCell.from_token(token).center()
    return None if location.is_null_island() else location


#: Every analysis that reads the chain, as ``(name, call)``; each call
#: takes the store or its chain-walk oracle.
_ANALYSES = [
    ("chain_stats", lambda src: chainstats.chain_stats(src, 10.0)),
    ("growth_curves", growth.growth_curves),
    ("collect_move_records", moves.collect_move_records),
    ("move_stats", moves.move_stats),
    ("null_island_stats", moves.null_island_stats),
    ("ownership_stats", ownership.ownership_stats),
    ("classify_owners", lambda src: ownership.classify_owners(src, min_fleet=1)),
    ("owner_fleet_map", lambda src: [
        ownership.owner_fleet_map(src, owner) for owner in src.owner_counts()
    ]),
    ("hex_density", density.hex_density),
    ("crowding_stats", density.crowding_stats),
    ("spatial_gini", density.spatial_gini),
    ("channel_share", traffic.channel_share),
    ("packets_by_close", traffic.packets_by_close),
    ("traffic_series", traffic.traffic_series),
    ("find_rssi_anomalies", lambda src: incentives.find_rssi_anomalies(src, -90.0)),
    ("cheater_rewards", lambda src: incentives.cheater_rewards(
        src, [gateway for gateway, _, _ in src.hotspot_rows()] + ["hs_none"]
    )),
    ("clique_counts", lambda src: src.witness_counts_among(
        [gateway for gateway, _, _ in src.hotspot_rows()][::2]
    )),
    ("witness_geometry", lambda src: build_witness_geometry(
        src.valid_witness_receipts(), _locate
    )),
    ("witness_distance_cdf", witnesses.witness_distance_cdf),
    ("witness_rssi_cdf", lambda src: witnesses.witness_rssi_cdf(src, valid_only=True)),
    ("witness_rssi_cdf_all", lambda src: witnesses.witness_rssi_cdf(src, valid_only=False)),
    ("witness_rssi_cdf_window", lambda src: witnesses.witness_rssi_cdf(
        src, start_height=src.checkpoint_height // 2,
        end_height=src.checkpoint_height,
    )),
    ("witnesses_per_challenge", witnesses.witnesses_per_challenge),
    ("validity_breakdown", witnesses.validity_breakdown),
    ("hotspot_earnings", rewards.hotspot_earnings),
    ("payback_analysis", lambda src: rewards.payback_analysis(src, 15.0)),
    ("speculation_ratio", rewards.speculation_ratio),
    ("resale_stats", resale.resale_stats),
    ("transfers_over_time", resale.transfers_over_time),
    ("top_traders", resale.top_traders),
]


def _maybe(callable_, *args, **kwargs):
    """The result, or the AnalysisError message when the data is absent
    (both backends must fail identically on e.g. transfer-free chains)."""
    try:
        return callable_(*args, **kwargs)
    except AnalysisError as exc:
        return ("raised", str(exc))


def _assert_analysis_parity(chain, store) -> None:
    oracle = ChainRows(chain)
    for name, analysis in _ANALYSES:
        assert _maybe(analysis, store) == _maybe(analysis, oracle), name
    # The default, and a 1 km bound that turns most witness events into
    # findings (small chains rarely hold a 300 km witness).
    for kwargs in ({}, {"impossible_km": 1.0, "min_events": 1}):
        assert incentives.find_silent_movers(store, **kwargs) == (
            find_silent_movers_reference(chain, **kwargs)
        )


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
        in_memory = ChainExplorer(builder.chain)
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
        in_memory = ChainExplorer(builder.chain)
        from_store = Explorer.from_store(store)
        for gateway in builder.gateways:
            name = in_memory.hotspot(gateway).name
            assert from_store.hotspot_by_name(name).gateway == gateway
            needle = name.split()[0].lower()
            assert in_memory.search(needle) == from_store.search(needle)


class TestSmallScenarioParity:
    def test_every_hotspot_page(self, small_result, small_store):
        in_memory = ChainExplorer(small_result.chain)
        from_store = Explorer.from_store(small_store)
        for gateway in small_result.chain.ledger.hotspots:
            assert in_memory.hotspot(gateway) == from_store.hotspot(gateway)

    def test_every_owner_page(self, small_result, small_store):
        in_memory = ChainExplorer(small_result.chain)
        from_store = Explorer.from_store(small_store)
        for wallet in small_result.chain.ledger.wallets:
            assert in_memory.owner(wallet) == from_store.owner(wallet)

    def test_hotspots_near(self, small_result, small_store):
        in_memory = ChainExplorer(small_result.chain)
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
        in_memory = ChainExplorer(result.chain)
        from_store = Explorer.from_store(store)
        gateways = list(result.chain.ledger.hotspots)
        sample = random.Random(2021).sample(gateways, 80)
        for gateway in sample:
            assert in_memory.hotspot(gateway) == from_store.hotspot(gateway)

    def test_sampled_owner_pages(self, paper):
        result, store = paper
        in_memory = ChainExplorer(result.chain)
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

            explorer = ChainExplorer(result.chain)
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
