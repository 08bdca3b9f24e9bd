"""Chain serialization round-trip tests."""

import io

import pytest

from repro.chain.serialize import (
    dump_chain,
    load_chain,
    transaction_from_dict,
    transaction_to_dict,
)
from repro.chain.transactions import (
    AddGateway,
    AssertLocation,
    PocReceipts,
    Rewards,
    RewardShare,
    RewardType,
    StateChannelClose,
    StateChannelSummary,
    WitnessReport,
)
from repro.errors import ChainError


class TestTransactionRoundTrip:
    @pytest.mark.parametrize("txn", [
        AddGateway(gateway="hs_1", owner="wal_a"),
        AssertLocation(gateway="hs_1", owner="wal_a",
                       location_token="c-12-3--4", nonce=2, fee_dc=100),
        PocReceipts(
            challenger="hs_c", challengee="hs_e",
            challengee_location_token="c-12-1-1",
            witnesses=(WitnessReport(
                witness="hs_w", rssi_dbm=-105.5, snr_db=4.2,
                frequency_mhz=904.6, reported_location_token="c-12-2-2",
                is_valid=False, invalid_reason="too_close",
            ),),
        ),
        StateChannelClose(
            channel_id="sc1", owner="wal_r", oui=3,
            summaries=(StateChannelSummary("hs_1", 10, 10),),
        ),
        Rewards(
            epoch_start_block=0, epoch_end_block=29,
            shares=(RewardShare("wal_a", "hs_1", 500,
                                RewardType.POC_WITNESS),),
        ),
    ])
    def test_round_trip(self, txn):
        payload = transaction_to_dict(txn)
        rebuilt = transaction_from_dict(payload)
        assert rebuilt == txn
        assert payload["type"] == txn.kind

    def test_unknown_type_rejected(self):
        with pytest.raises(ChainError):
            transaction_from_dict({"type": "alien_txn"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(ChainError):
            transaction_from_dict({"type": "add_gateway", "bogus": 1})


class TestChainRoundTrip:
    def test_full_chain_round_trip(self, small_result):
        buffer = io.StringIO()
        lines = dump_chain(small_result.chain, buffer)
        assert lines == len(small_result.chain.blocks)
        buffer.seek(0)
        rebuilt = load_chain(buffer)
        assert rebuilt.total_transactions == small_result.chain.total_transactions
        assert rebuilt.height == small_result.chain.height
        assert rebuilt.count_transactions() == small_result.chain.count_transactions()
        # Ledger end-state agrees on hotspots and ownership.
        original = small_result.chain.ledger
        for gateway, record in original.hotspots.items():
            twin = rebuilt.ledger.hotspots[gateway]
            assert twin.owner == record.owner
            assert twin.location_token == record.location_token
            assert twin.nonce == record.nonce

    def test_file_round_trip(self, small_result, tmp_path):
        path = tmp_path / "chain.jsonl"
        dump_chain(small_result.chain, path)
        rebuilt = load_chain(path)
        assert rebuilt.height == small_result.chain.height

    def test_tampered_dump_fails_loudly(self, small_result, tmp_path):
        path = tmp_path / "chain.jsonl"
        dump_chain(small_result.chain, path)
        lines = path.read_text().splitlines()
        # Corrupt a transfer: sell a hotspot from a non-owner.
        tampered = [
            line.replace('"type":"transfer_hotspot"', '"type":"alien"')
            if '"type":"transfer_hotspot"' in line else line
            for line in lines
        ]
        if tampered != lines:
            path.write_text("\n".join(tampered))
            with pytest.raises(ChainError):
                load_chain(path)


class TestReloadedChainAnalyses:
    """A dumped-and-reloaded chain supports the full analysis pipeline
    with identical results — the DeWi-ETL property."""

    def test_analyses_identical_after_reload(
        self, small_result, small_store, tmp_path
    ):
        from repro.core.analysis.chainstats import chain_stats
        from repro.core.analysis.moves import move_stats
        from repro.core.analysis.ownership import ownership_stats
        from repro.core.analysis.resale import resale_stats
        from repro.core.analysis.witnesses import witness_distance_cdf
        from repro.etl import EtlStore, ingest_chain

        path = tmp_path / "chain.jsonl"
        dump_chain(small_result.chain, path)
        rebuilt = EtlStore()
        ingest_chain(load_chain(path), rebuilt)

        assert chain_stats(rebuilt) == chain_stats(small_store)
        assert move_stats(rebuilt) == move_stats(small_store)
        assert ownership_stats(rebuilt) == ownership_stats(small_store)
        assert resale_stats(rebuilt) == resale_stats(small_store)
        original = witness_distance_cdf(small_store)
        reloaded = witness_distance_cdf(rebuilt)
        assert reloaded.median_km == original.median_km
        assert reloaded.distances_km == original.distances_km
