"""Incremental ingest: checkpoints, resume ≡ fresh, idempotent replays,
refusal of foreign chains, and the record path's parity with blocks."""

from __future__ import annotations

import hashlib

import pytest

from repro import obs
from repro.chain import serialize
from repro.chain.chainlog import ChainLog
from repro.errors import EtlError
from repro.etl import EtlStore, ingest_chain

from tests.etl_chains import ChainBuilder


def _grown_builder(seed: int = 11, blocks: int = 10) -> ChainBuilder:
    builder = ChainBuilder(seed=seed, n_hotspots=5)
    builder.grow(blocks)
    return builder


class TestCheckpointing:
    def test_checkpoint_tracks_tip(self):
        builder = _grown_builder()
        store = EtlStore()
        report = ingest_chain(builder.chain, store)
        assert store.checkpoint_height == builder.chain.height
        assert store.get_meta("tip_hash") == builder.chain.tip.hash
        assert report.tip_height == builder.chain.height
        assert report.blocks_ingested == len(builder.chain.blocks)
        assert (
            report.transactions_ingested
            == builder.chain.total_transactions
        )

    def test_rerun_is_a_noop(self):
        builder = _grown_builder()
        store = EtlStore()
        ingest_chain(builder.chain, store)
        digest = store.content_digest()
        report = ingest_chain(builder.chain, store)
        assert report.up_to_date
        assert report.blocks_ingested == 0
        assert store.content_digest() == digest


class TestResumeEqualsFresh:
    """The acceptance criterion: resume from a checkpoint converges to
    exactly the content a from-scratch full ingest produces."""

    def test_resume_after_growth_matches_full_ingest(self):
        builder = _grown_builder(seed=21, blocks=8)
        resumed = EtlStore()
        first = ingest_chain(builder.chain, resumed)

        builder.grow(7)  # the chain moves on after the first ingest
        second = ingest_chain(builder.chain, resumed)
        assert second.start_height == first.tip_height + 1
        assert second.blocks_ingested == 7
        assert resumed.checkpoint_height == builder.chain.height

        fresh = EtlStore()
        ingest_chain(builder.chain, fresh)
        assert resumed.content_digest() == fresh.content_digest()

    def test_resume_in_tiny_batches_matches_one_shot(self):
        builder = _grown_builder(seed=22, blocks=9)
        batched = EtlStore()
        one_shot = EtlStore()
        ingest_chain(builder.chain, batched, batch_blocks=1)
        ingest_chain(builder.chain, one_shot, batch_blocks=10_000)
        assert batched.content_digest() == one_shot.content_digest()

    def test_replaying_old_blocks_is_idempotent(self):
        builder = _grown_builder(seed=23)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        digest = store.content_digest()
        # Simulate a crashed run that lost its checkpoint: wind it back
        # and replay already-loaded blocks on top of the existing rows.
        with store.connection:
            store._set_meta("checkpoint_height", "3")
        ingest_chain(builder.chain, store)
        assert store.content_digest() == digest


class TestCheckpointLag:
    def test_a_fresh_ingest_counts_down_the_blocks_left(
        self, small_result, monkeypatch
    ):
        """``etl.ingest.checkpoint_lag`` counts blocks, never heights:
        on a chain whose heights skip (a simulated one) it starts at the
        blocks to load and only falls, to 0."""
        published = []
        gauge = obs.gauge

        def spy(name, value, **labels):
            if name == "etl.ingest.checkpoint_lag":
                published.append(value)
            gauge(name, value, **labels)

        monkeypatch.setattr(obs, "gauge", spy)
        chain = small_result.chain
        assert chain.height > len(chain.blocks)  # heights skip
        report = ingest_chain(chain, EtlStore(), batch_blocks=2000)
        assert report.blocks_ingested == len(chain.blocks)
        assert published[0] == report.blocks_ingested
        assert published[-1] == 0
        assert len(published) > 3  # several batches
        assert all(
            later <= earlier
            for earlier, later in zip(published, published[1:])
        )


class TestLedgerFold:
    def test_state_tables_follow_the_ledger(self):
        builder = _grown_builder(seed=31, blocks=12)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        owners = dict(
            store.connection.execute("SELECT gateway, owner FROM hotspots")
        )
        for gateway, record in builder.chain.ledger.hotspots.items():
            assert owners[gateway] == record.owner
        balances = dict(
            store.connection.execute("SELECT address, hnt_bones FROM wallets")
        )
        for address, state in builder.chain.ledger.wallets.items():
            assert balances[address] == state.hnt_bones

    def test_state_refresh_on_resume(self):
        builder = _grown_builder(seed=32, blocks=6)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        builder.grow(10)  # transfers/asserts in here move ledger state
        ingest_chain(builder.chain, store)
        owners = dict(
            store.connection.execute("SELECT gateway, owner FROM hotspots")
        )
        assert owners == {
            gateway: record.owner
            for gateway, record in builder.chain.ledger.hotspots.items()
        }


class TestForeignChain:
    """A store only takes the chain it already holds a prefix of."""

    def test_chain_with_a_different_block_at_the_checkpoint_is_refused(self):
        store = EtlStore()
        ingest_chain(_grown_builder(seed=1, blocks=12).chain, store)
        checkpoint = store.checkpoint_height
        digest = store.content_digest()
        foreign = _grown_builder(seed=2, blocks=12).chain
        assert foreign.block_at(checkpoint).hash != store.connection.execute(
            "SELECT hash FROM blocks WHERE height=?", (checkpoint,)
        ).fetchone()[0]
        with pytest.raises(EtlError, match="different chain"):
            ingest_chain(foreign, store)
        assert store.checkpoint_height == checkpoint
        assert store.content_digest() == digest

    def test_shorter_chain_is_refused(self):
        store = EtlStore()
        ingest_chain(_grown_builder(seed=3, blocks=12).chain, store)
        assert store.checkpoint_height == 17
        digest = store.content_digest()
        # The same seed grown less: a prefix that ends below the store.
        shorter = _grown_builder(seed=3, blocks=6).chain
        assert shorter.height == 11
        with pytest.raises(EtlError, match="has no block"):
            ingest_chain(shorter, store)
        assert store.checkpoint_height == 17
        assert store.content_digest() == digest


def _evicted_builder(seed: int, blocks: int) -> ChainBuilder:
    builder = ChainBuilder(seed=seed, n_hotspots=5)
    builder.chain.attach_log(ChainLog())
    builder.grow(blocks)
    builder.chain.evict_finalized()
    return builder


def _warm_loaded(chain, tmp_path):
    """``chain`` written to a chain-log file and streamed back, as a warm
    scenario-cache load does: log-backed, only the tip resident."""
    path = tmp_path / "chain.log"
    with open(path, "wb") as handle:
        record, _ = serialize.write_chain_log(chain, handle, hashlib.sha256())
    source, _ = serialize.open_chain_log(path, record)
    return serialize.replay_chain_log(source)


class TestRecordPath:
    """Ingest reads dump records, never ``Block`` objects; the rows it
    writes are the ones the blocks describe."""

    #: ``content_digest`` of ``ChainBuilder(seed=41)`` grown 40 blocks,
    #: as the block-object ingest wrote it before the record path.
    PINNED_DIGEST = (
        "fc277bbb2b055c312d5796a910b0bec58ef9282d04c22db9917f720e9c859a47"
    )

    def test_content_digest_is_pinned(self):
        builder = ChainBuilder(seed=41)
        builder.grow(40)
        store = EtlStore()
        ingest_chain(builder.chain, store, batch_blocks=16)
        assert store.content_digest() == self.PINNED_DIGEST

    @pytest.mark.parametrize("residency", ["resident", "evicted", "warm"])
    def test_block_hashes_equal_the_blocks(self, residency, tmp_path):
        reference = _grown_builder(seed=51, blocks=30).chain
        if residency == "resident":
            chain = reference
        elif residency == "evicted":
            chain = _evicted_builder(seed=51, blocks=30).chain
        else:
            chain = _warm_loaded(reference, tmp_path)
        store = EtlStore()
        ingest_chain(chain, store, batch_blocks=7)
        stored = store.connection.execute(
            "SELECT height, hash FROM blocks ORDER BY height"
        ).fetchall()
        assert stored == [(b.height, b.hash) for b in reference.blocks]
        assert stored == [(b.height, b.hash) for b in chain.blocks]
        assert store.get_meta("tip_hash") == chain.tip.hash

    @pytest.mark.parametrize("residency", ["evicted", "warm"])
    def test_log_backed_ingest_builds_no_block(
        self, residency, tmp_path, monkeypatch
    ):
        chain = _evicted_builder(seed=52, blocks=30).chain
        if residency == "warm":
            chain = _warm_loaded(chain, tmp_path)
        cached = list(chain.blocks._cache)

        def no_blocks(record):
            raise AssertionError("ingest built a Block")

        monkeypatch.setattr(serialize, "block_from_record", no_blocks)
        store = EtlStore()
        ingest_chain(chain, store, batch_blocks=8)
        assert list(chain.blocks._cache) == cached
        assert store.checkpoint_height == chain.height
        counts = store.counts()
        assert counts["blocks"] == len(chain.blocks)
        assert counts["transactions"] == chain.total_transactions
