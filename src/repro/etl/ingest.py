"""Incremental chain follower: extract-transform-load with checkpoints.

Mirrors how the DeWi ETL tails the real chain: each run picks up from
the last committed height and loads only the new blocks, so appending
blocks to a chain and re-running ingest is cheap, and a crashed ingest
is safely re-runnable. Guarantees:

* **Checkpointed**: one SQLite transaction per batch of blocks; the
  ``checkpoint_height`` metadata row commits atomically with the rows
  it covers. A crash mid-batch rolls the whole batch back.
* **Idempotent**: history rows are keyed by ``(height, seq, …)`` and
  written with ``INSERT OR REPLACE`` — replaying blocks that are
  already in the store converges to the same content.
* **Resumable ≡ fresh**: resuming from a checkpoint and ingesting the
  whole chain from scratch produce stores with identical content
  (:meth:`repro.etl.store.EtlStore.content_digest` asserts this in the
  test suite).

History tables stream block-by-block; the folded state tables
(``hotspots``, ``wallets``) are refreshed from the chain's ledger in
the final transaction, matching the chain/ledger split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

from repro import obs
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.chain.serialize import transaction_to_dict
from repro.chain.transactions import (
    PocReceipts,
    Rewards,
    StateChannelClose,
    TransferHotspot,
)
from repro.etl.store import EtlStore
from repro.geo.hexgrid import HexCell

__all__ = ["IngestReport", "ingest_chain"]

#: Blocks committed per SQLite transaction. Small enough that a crash
#: loses little work, large enough to amortise the commit fsync.
DEFAULT_BATCH_BLOCKS = 512


@dataclass(frozen=True)
class IngestReport:
    """What one ingest run did."""

    start_height: int  # first newly ingested height (checkpoint + 1)
    tip_height: int
    blocks_ingested: int
    transactions_ingested: int

    @property
    def up_to_date(self) -> bool:
        """True when there was nothing new to load."""
        return self.blocks_ingested == 0


def ingest_chain(
    chain: Blockchain,
    store: EtlStore,
    batch_blocks: int = DEFAULT_BATCH_BLOCKS,
) -> IngestReport:
    """Load every block above the store's checkpoint into the store."""
    started = perf_counter()
    checkpoint = store.checkpoint_height
    # Bisect to the tail instead of filtering a full materialised pass:
    # on a log-backed chain the blocks below the checkpoint stay on
    # disk, and blocks materialise one at a time inside each batch.
    start_position = chain.position_after(checkpoint)
    total = len(chain.blocks)
    n_fresh = total - start_position
    obs.gauge("etl.ingest.checkpoint_lag", n_fresh)
    txn_count = 0
    step = max(1, batch_blocks)
    for low in range(start_position, total, step):
        high = min(low + step, total)
        batch_started = perf_counter()
        batch_txns = 0
        with store.connection:  # one transaction per batch
            for position in range(low, high):
                block = chain.blocks[position]
                batch_txns += _load_block(store, block)
            store._set_meta("checkpoint_height", str(block.height))
        txn_count += batch_txns
        obs.observe("etl.ingest.batch_s", perf_counter() - batch_started)
        obs.counter("etl.ingest.blocks", high - low)
        obs.counter("etl.ingest.transactions", batch_txns)
        # Blocks committed but not yet caught up to the chain tip.
        obs.gauge("etl.ingest.checkpoint_lag", chain.height - block.height)
    # Folded ledger state + tip marker, in one final transaction. Always
    # refreshed: the ledger is the chain's current state even when no
    # new history rows landed.
    with store.connection:
        _sync_ledger_state(store, chain)
        store._set_meta("checkpoint_height", str(chain.height))
        store._set_meta("tip_hash", chain.tip.hash)
    obs.gauge("etl.ingest.checkpoint_lag", 0)
    wall_s = perf_counter() - started
    obs.counter("etl.ingest.runs")
    obs.observe("etl.ingest.run_s", wall_s)
    obs.trace_event(
        "etl.ingest",
        db=store.path,
        start_height=checkpoint + 1,
        tip_height=chain.height,
        blocks=n_fresh,
        transactions=txn_count,
        wall_s=round(wall_s, 4),
        blocks_per_s=round(n_fresh / wall_s, 1) if wall_s > 0 else None,
    )
    return IngestReport(
        start_height=checkpoint + 1,
        tip_height=chain.height,
        blocks_ingested=n_fresh,
        transactions_ingested=txn_count,
    )


def _load_block(store: EtlStore, block: Block) -> int:
    execute = store.connection.execute
    execute(
        "INSERT OR REPLACE INTO blocks "
        "(height, unix_time, prev_hash, hash, txn_count) VALUES (?,?,?,?,?)",
        (
            block.height,
            block.unix_time,
            block.prev_hash,
            block.hash,
            len(block.transactions),
        ),
    )
    for seq, txn in enumerate(block.transactions):
        payload = transaction_to_dict(txn)
        execute(
            "INSERT OR REPLACE INTO transactions (height, seq, kind, payload) "
            "VALUES (?,?,?,?)",
            (
                block.height,
                seq,
                txn.kind,
                json.dumps(payload, separators=(",", ":"), sort_keys=True),
            ),
        )
        if isinstance(txn, PocReceipts):
            _load_receipt(store, block.height, seq, txn)
        elif isinstance(txn, Rewards):
            _load_rewards(store, block.height, seq, txn)
        elif isinstance(txn, TransferHotspot):
            execute(
                "INSERT OR REPLACE INTO transfers "
                "(height, seq, gateway, seller, buyer, amount_dc, fee_dc) "
                "VALUES (?,?,?,?,?,?,?)",
                (
                    block.height,
                    seq,
                    txn.gateway,
                    txn.seller,
                    txn.buyer,
                    txn.amount_dc,
                    txn.fee_dc,
                ),
            )
        elif isinstance(txn, StateChannelClose):
            for summary_seq, summary in enumerate(txn.summaries):
                execute(
                    "INSERT OR REPLACE INTO packet_summaries "
                    "(height, seq, summary_seq, channel_id, owner, oui, "
                    "hotspot, num_packets, num_dcs) VALUES (?,?,?,?,?,?,?,?,?)",
                    (
                        block.height,
                        seq,
                        summary_seq,
                        txn.channel_id,
                        txn.owner,
                        txn.oui,
                        summary.hotspot,
                        summary.num_packets,
                        summary.num_dcs,
                    ),
                )
    return len(block.transactions)


def _load_receipt(
    store: EtlStore, height: int, seq: int, receipt: PocReceipts
) -> None:
    """Flatten one PoC receipt: a receipt row plus one row per witness.

    The challengee↔witness distance and null-island flag are computed
    here, with the exact hex-center geometry the in-memory analyses use,
    so distance queries are indexed scans with no trigonometry.
    """
    challengee_loc = HexCell.from_token(receipt.challengee_location_token).center()
    store.connection.execute(
        "INSERT OR REPLACE INTO poc_receipts "
        "(height, seq, challenger, challengee, challengee_location_token, "
        "witness_count, valid_witness_count) VALUES (?,?,?,?,?,?,?)",
        (
            height,
            seq,
            receipt.challenger,
            receipt.challengee,
            receipt.challengee_location_token,
            len(receipt.witnesses),
            len(receipt.valid_witnesses),
        ),
    )
    for witness_seq, report in enumerate(receipt.witnesses):
        witness_loc = HexCell.from_token(report.reported_location_token).center()
        store.connection.execute(
            "INSERT OR REPLACE INTO witnesses "
            "(height, seq, witness_seq, challenger, challengee, "
            "challengee_location, witness, witness_location, rssi_dbm, "
            "snr_db, frequency_mhz, distance_km, null_island, is_valid, "
            "invalid_reason) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (
                height,
                seq,
                witness_seq,
                receipt.challenger,
                receipt.challengee,
                receipt.challengee_location_token,
                report.witness,
                report.reported_location_token,
                report.rssi_dbm,
                report.snr_db,
                report.frequency_mhz,
                challengee_loc.distance_km(witness_loc),
                int(
                    challengee_loc.is_null_island()
                    or witness_loc.is_null_island()
                ),
                int(report.is_valid),
                report.invalid_reason,
            ),
        )


def _load_rewards(
    store: EtlStore, height: int, seq: int, txn: Rewards
) -> None:
    for share_seq, share in enumerate(txn.shares):
        store.connection.execute(
            "INSERT OR REPLACE INTO rewards "
            "(height, seq, share_seq, account, gateway, amount_bones, "
            "reward_type) VALUES (?,?,?,?,?,?,?)",
            (
                height,
                seq,
                share_seq,
                share.account,
                share.gateway,
                share.amount_bones,
                share.reward_type.value,
            ),
        )


def _sync_ledger_state(store: EtlStore, chain: Blockchain) -> None:
    """Refresh the folded state tables from the chain's ledger.

    Wholesale delete + insert in ledger iteration order: rowid then
    preserves insertion order, which the explorer's name index and
    fleet listings rely on for parity with the in-memory dicts.
    """
    execute = store.connection.execute
    execute("DELETE FROM hotspots")
    for gateway, record in chain.ledger.hotspots.items():
        execute(
            "INSERT INTO hotspots (gateway, owner, name, location_token, "
            "nonce, added_block, last_assert_block) VALUES (?,?,?,?,?,?,?)",
            (
                gateway,
                record.owner,
                record.name,
                record.location_token,
                record.nonce,
                record.added_block,
                record.last_assert_block,
            ),
        )
    execute("DELETE FROM wallets")
    for address, state in chain.ledger.wallets.items():
        execute(
            "INSERT INTO wallets (address, hnt_bones, dc) VALUES (?,?,?)",
            (address, state.hnt_bones, state.dc),
        )
