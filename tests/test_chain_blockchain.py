"""Blockchain (sparse block store) tests."""

import pytest

from repro import units
from repro.chain.blockchain import Blockchain
from repro.chain.chainlog import ChainLog
from repro.chain.transactions import (
    AddGateway,
    AssertLocation,
    PocRequest,
    Transaction,
)
from repro.errors import ChainError, TransactionError


@pytest.fixture()
def chain() -> Blockchain:
    return Blockchain()


class TestMinting:
    def test_genesis_exists(self, chain):
        assert chain.height == 0
        assert chain.tip.unix_time == units.GENESIS_UNIX_TIME

    def test_mint_applies_transactions(self, chain):
        chain.submit(AddGateway(gateway="hs_1", owner="wal_a"))
        block = chain.mint_block()
        assert block.height == 1
        assert len(block) == 1
        assert "hs_1" in chain.ledger.hotspots

    def test_sparse_heights(self, chain):
        chain.submit(AddGateway(gateway="hs_1", owner="wal_a"))
        block = chain.mint_block(5000)
        assert block.height == 5000
        assert len(chain) == 2  # genesis + one block

    def test_nominal_timestamps(self, chain):
        block = chain.mint_block(1440)
        assert block.unix_time == units.GENESIS_UNIX_TIME + 86_400

    def test_height_must_increase(self, chain):
        chain.mint_block(100)
        with pytest.raises(ChainError):
            chain.mint_block(100)
        with pytest.raises(ChainError):
            chain.mint_block(50)

    def test_invalid_txn_aborts_mint(self, chain):
        chain.submit(AssertLocation(
            gateway="hs_ghost", owner="wal_a", location_token="c-12-1-1", nonce=1
        ))
        with pytest.raises(TransactionError):
            chain.mint_block()
        # The invalid transaction stays pending for inspection.
        assert chain.pending_count == 1
        assert chain.height == 0
        dropped = chain.drop_pending()
        assert len(dropped) == 1

    def test_hash_chain_links(self, chain):
        b1 = chain.mint_block(10)
        b2 = chain.mint_block(20)
        assert b2.prev_hash == b1.hash


class TestQueries:
    def _populate(self, chain):
        chain.submit(AddGateway(gateway="hs_1", owner="wal_a"))
        chain.mint_block(10)
        chain.submit(AssertLocation(
            gateway="hs_1", owner="wal_a", location_token="c-12-1-1", nonce=1
        ))
        chain.submit(AddGateway(gateway="hs_2", owner="wal_b"))
        chain.mint_block(20)
        chain.submit(PocRequest(
            challenger="hs_1", secret_hash="s", challengee="hs_2"
        ))
        chain.mint_block(30)

    def test_iter_all(self, chain):
        self._populate(chain)
        assert len(list(chain.iter_transactions())) == 4

    def test_iter_by_kind(self, chain):
        self._populate(chain)
        adds = list(chain.iter_transactions(AddGateway))
        assert len(adds) == 2
        assert all(isinstance(t, AddGateway) for _, t in adds)

    def test_iter_by_height_window(self, chain):
        self._populate(chain)
        window = list(chain.iter_transactions(start_height=15, end_height=25))
        assert len(window) == 2
        assert all(h == 20 for h, _ in window)

    def test_iter_by_kind_tuple_keeps_chain_order(self, chain):
        self._populate(chain)
        mixed = list(chain.iter_transactions((AssertLocation, AddGateway)))
        assert [(h, type(t)) for h, t in mixed] == [
            (10, AddGateway), (20, AssertLocation), (20, AddGateway),
        ]
        # A base class selects every subclass, as isinstance would.
        assert len(list(chain.iter_transactions(Transaction))) == 4
        assert list(chain.iter_transactions(int)) == []

    def test_iter_by_kind_in_height_window(self, chain):
        self._populate(chain)
        window = list(chain.iter_transactions(
            AddGateway, start_height=15, end_height=30
        ))
        assert [(h, t.gateway) for h, t in window] == [(20, "hs_2")]
        assert list(chain.iter_transactions(
            PocRequest, start_height=31
        )) == []

    def test_iter_with_predicate(self, chain):
        self._populate(chain)
        mine = list(chain.iter_transactions(
            AddGateway, predicate=lambda t: t.owner == "wal_b"
        ))
        assert len(mine) == 1

    def test_count_transactions(self, chain):
        self._populate(chain)
        counts = chain.count_transactions()
        assert counts["add_gateway"] == 2
        assert counts["poc_request"] == 1
        assert chain.total_transactions == 4

    def test_block_at(self, chain):
        self._populate(chain)
        assert chain.block_at(20).height == 20
        with pytest.raises(ChainError):
            chain.block_at(15)


class TestBlockSequenceIndexing:
    """``chain.blocks`` indexes like a list, resident or log-backed."""

    @pytest.fixture(params=["resident", "log-backed"])
    def four_blocks(self, request) -> Blockchain:
        chain = Blockchain()
        for height in (10, 20, 30):
            chain.submit(AddGateway(gateway=f"hs_{height}", owner="wal_a"))
            chain.mint_block(height)
        if request.param == "log-backed":
            chain.attach_log(ChainLog())
            assert chain.evict_finalized() == 3
        return chain

    def test_negative_indices_within_range(self, four_blocks):
        blocks = four_blocks.blocks
        assert len(blocks) == 4
        assert [blocks[i].height for i in range(-4, 0)] == [0, 10, 20, 30]

    @pytest.mark.parametrize("index", [-5, -6, -8, 4, 9])
    def test_out_of_range_index_raises(self, four_blocks, index):
        with pytest.raises(IndexError):
            four_blocks.blocks[index]
