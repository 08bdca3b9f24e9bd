"""``python -m repro.etl`` in-process: ingest and query."""

from __future__ import annotations

import json

import pytest

from repro.etl import EtlStore, ingest_chain
from repro.etl.cli import main
from repro.experiments import context

from tests.etl_chains import ChainBuilder
from tests.reference_twins import ChainExplorer


@pytest.fixture(scope="module")
def ingested_db(tmp_path_factory):
    """One small-scenario store ingested through the CLI, plus its chain."""
    db = tmp_path_factory.mktemp("etl-cli") / "etl.db"
    code = main(["ingest", "--db", str(db), "--scenario", "small"])
    assert code == 0
    return db, context.get_result("small")


class TestIngestCommand:
    def test_reports_what_it_loaded(self, ingested_db, capsys):
        db, result = ingested_db
        code = main(["ingest", "--db", str(db), "--scenario", "small"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # The fixture ingested everything already: this run is a no-op
        # resume from the checkpoint.
        assert report["up_to_date"] is True
        assert report["blocks_ingested"] == 0
        assert report["tip_height"] == result.chain.height

    def test_refuses_a_store_of_another_chain(
        self, ingested_db, tmp_path, capsys
    ):
        db = tmp_path / "foreign.db"
        builder = ChainBuilder(seed=5)
        builder.grow(12)
        with EtlStore(db) as store:
            ingest_chain(builder.chain, store)
            digest = store.content_digest()
        code = main(["ingest", "--db", str(db), "--scenario", "small"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        with EtlStore(db, create=False) as store:
            assert store.checkpoint_height == builder.chain.height
            assert store.content_digest() == digest


class TestQueryCommand:
    def test_stats(self, ingested_db, capsys):
        db, result = ingested_db
        assert main(["query", "--db", str(db), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checkpoint_height"] == result.chain.height
        assert payload["tables"]["blocks"] == len(result.chain.blocks)

    def test_hotspot_by_address_and_name(self, ingested_db, capsys):
        db, result = ingested_db
        explorer = ChainExplorer(result.chain)
        gateway = next(iter(result.chain.ledger.hotspots))
        page = explorer.hotspot(gateway)

        assert main(["query", "--db", str(db), "hotspot", gateway]) == 0
        by_address = json.loads(capsys.readouterr().out)
        assert by_address["gateway"] == gateway
        assert by_address["owner"] == page.owner

        assert main(["query", "--db", str(db), "hotspot", page.name]) == 0
        by_name = json.loads(capsys.readouterr().out)
        assert by_name == by_address

    def test_owner(self, ingested_db, capsys):
        db, result = ingested_db
        gateway = next(iter(result.chain.ledger.hotspots))
        wallet = result.chain.ledger.hotspots[gateway].owner
        assert main(["query", "--db", str(db), "owner", wallet]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["owner"] == wallet
        assert any(h["gateway"] == gateway for h in payload["hotspots"])

    def test_search(self, ingested_db, capsys):
        db, result = ingested_db
        gateway = next(iter(result.chain.ledger.hotspots))
        name = result.chain.ledger.hotspots[gateway].name
        # Two words: a single word can collide with >10 names and fall
        # past the query's alphabetical match cap.
        needle = " ".join(name.split()[:2])
        assert main(["query", "--db", str(db), "search", needle]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(m["gateway"] == gateway for m in payload["matches"])

    def test_missing_argument_errors(self, ingested_db, capsys):
        db, _ = ingested_db
        assert main(["query", "--db", str(db), "hotspot"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_database_errors(self, tmp_path, capsys):
        code = main(["query", "--db", str(tmp_path / "absent.db"), "stats"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
