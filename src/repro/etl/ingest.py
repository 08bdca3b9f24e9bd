"""Incremental chain follower: extract-transform-load with checkpoints.

Mirrors how the DeWi ETL tails the real chain: each run picks up from
the last committed height and loads only the new blocks, so appending
blocks to a chain and re-running ingest is cheap, and a crashed ingest
is safely re-runnable. Guarantees:

* **Record path**: like the DeWi ETL parsing a chain dump, each new
  block's dump record (a spilled block's chain-log frame as a byte
  copy, a resident one serialised) is ``json.loads``-ed once and its
  rows are built straight from the entries, by each entry's ``type``
  name; no :class:`~repro.chain.block.Block` or transaction object is
  built. A block's ``hash`` is the next record's ``prev_hash`` and the
  last block's is the chain tip's: every chain links its blocks this
  way (mint takes the tip's hash, loads keep the recorded links).
  Rows go out through one ``executemany`` per table, flushed at a
  bounded row count, so a batch never holds all of its rows at once.
* **Checkpointed**: one SQLite transaction per batch of blocks; the
  ``checkpoint_height`` metadata row commits atomically with the rows
  it covers. A crash mid-batch rolls the whole batch back.
* **Same chain only**: a store with a checkpoint takes a chain only if
  the chain has a block at exactly that height whose hash is the
  stored one. A foreign chain, or one shorter than the store, raises
  :class:`~repro.errors.EtlError` before anything is written.
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
import sqlite3
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple

from repro import obs
from repro.chain.blockchain import Blockchain
from repro.errors import ChainError, EtlError
from repro.etl.store import EtlStore
from repro.geo.hexgrid import HexCell
from repro.geo.sphere import LatLon

__all__ = ["IngestReport", "ingest_chain"]

#: Blocks committed per SQLite transaction. Small enough that a crash
#: loses little work, large enough to amortise the commit fsync.
DEFAULT_BATCH_BLOCKS = 512

#: Buffered rows, over all tables, that trigger an ``executemany``
#: flush inside a batch: enough to amortise the calls, few enough that
#: the buffers stay small next to the batch.
FLUSH_ROWS = 500

_INSERTS = {
    "blocks": "INSERT OR REPLACE INTO blocks "
    "(height, unix_time, prev_hash, hash, txn_count) VALUES (?,?,?,?,?)",
    "transactions": "INSERT OR REPLACE INTO transactions "
    "(height, seq, kind, payload) VALUES (?,?,?,?)",
    "poc_receipts": "INSERT OR REPLACE INTO poc_receipts "
    "(height, seq, challenger, challengee, challengee_location_token, "
    "witness_count, valid_witness_count) VALUES (?,?,?,?,?,?,?)",
    "witnesses": "INSERT OR REPLACE INTO witnesses "
    "(height, seq, witness_seq, challenger, challengee, "
    "challengee_location, witness, witness_location, rssi_dbm, "
    "snr_db, frequency_mhz, distance_km, null_island, is_valid, "
    "invalid_reason) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
    "rewards": "INSERT OR REPLACE INTO rewards "
    "(height, seq, share_seq, account, gateway, amount_bones, "
    "reward_type) VALUES (?,?,?,?,?,?,?)",
    "transfers": "INSERT OR REPLACE INTO transfers "
    "(height, seq, gateway, seller, buyer, amount_dc, fee_dc) "
    "VALUES (?,?,?,?,?,?,?)",
    "packet_summaries": "INSERT OR REPLACE INTO packet_summaries "
    "(height, seq, summary_seq, channel_id, owner, oui, "
    "hotspot, num_packets, num_dcs) VALUES (?,?,?,?,?,?,?,?,?)",
}


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
    """Load every block above the store's checkpoint into the store.

    Raises:
        EtlError: when the store already holds a block at its
            checkpoint that this chain does not (see module docstring).
    """
    started = perf_counter()
    checkpoint = store.checkpoint_height
    start_position = _resume_position(chain, store, checkpoint)
    records = _hashed_records(chain, start_position)
    total = len(chain.blocks)
    n_fresh = total - start_position
    obs.gauge("etl.ingest.checkpoint_lag", n_fresh)
    rows = _RowWriter(store.connection)
    txn_count = 0
    step = max(1, batch_blocks)
    for low in range(start_position, total, step):
        high = min(low + step, total)
        batch_started = perf_counter()
        batch_txns = 0
        with store.connection:  # one transaction per batch
            for record, block_hash in islice(records, high - low):
                batch_txns += rows.add_block(record, block_hash)
            rows.flush()
            height = record["height"]
            store._set_meta("checkpoint_height", str(height))
        txn_count += batch_txns
        obs.observe("etl.ingest.batch_s", perf_counter() - batch_started)
        obs.counter("etl.ingest.blocks", high - low)
        obs.counter("etl.ingest.transactions", batch_txns)
        # Blocks the chain holds past the committed checkpoint.
        obs.gauge("etl.ingest.checkpoint_lag", total - high)
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


def _resume_position(
    chain: Blockchain, store: EtlStore, checkpoint: int
) -> int:
    """The chain position after the store's checkpoint block.

    Raises:
        EtlError: when the chain has no block at the checkpoint height,
            or its block there is not the one the store holds.
    """
    if checkpoint < 0:
        return 0
    try:
        position = chain.position_of(checkpoint)
    except ChainError:
        raise EtlError(
            f"{store.path} is at checkpoint height {checkpoint}, where "
            f"this chain (tip height {chain.height}) has no block"
        ) from None
    _, block_hash = next(_hashed_records(chain, position))
    stored = store.connection.execute(
        "SELECT hash FROM blocks WHERE height=?", (checkpoint,)
    ).fetchone()
    if stored is None or stored[0] != block_hash:
        raise EtlError(
            f"{store.path} holds a different chain: its block at "
            f"checkpoint height {checkpoint} is not this chain's"
        )
    return position + 1


def _hashed_records(
    chain: Blockchain, start: int
) -> Iterator[Tuple[Dict[str, Any], str]]:
    """``(dump record, block hash)`` per block from position ``start``.

    Each record is parsed once; a block's hash is the next record's
    ``prev_hash``, and the last block's is the tip's.
    """
    record = None
    for text in chain.blocks.iter_record_texts(start):
        following = json.loads(text)
        if record is not None:
            yield record, following["prev_hash"]
        record = following
    if record is not None:
        yield record, chain.tip.hash


class _RowWriter:
    """Builds one ingest run's history rows from dump records and
    writes them with one ``executemany`` per table.

    The challengee↔witness distance and null-island flag use the exact
    hex-centre geometry the in-memory analyses use, so distance queries
    are indexed scans with no trigonometry; each token's centre and
    flag are computed once per run.
    """

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._connection = connection
        self._rows: Dict[str, List[tuple]] = {table: [] for table in _INSERTS}
        self._sites: Dict[str, Tuple[LatLon, bool]] = {}

    def add_block(self, record: Dict[str, Any], block_hash: str) -> int:
        """Buffer one block's rows; returns its transaction count."""
        height = record["height"]
        entries = record["transactions"]
        rows = self._rows
        rows["blocks"].append((
            height, record["time"], record["prev_hash"], block_hash,
            len(entries),
        ))
        for seq, entry in enumerate(entries):
            kind = entry["type"]
            rows["transactions"].append((
                height, seq, kind,
                json.dumps(entry, separators=(",", ":"), sort_keys=True),
            ))
            if kind == "poc_receipts":
                self._add_receipt(height, seq, entry)
            elif kind == "rewards":
                rows["rewards"].extend(
                    (height, seq, share_seq, share["account"],
                     share["gateway"], share["amount_bones"],
                     share["reward_type"])
                    for share_seq, share in enumerate(entry["shares"])
                )
            elif kind == "transfer_hotspot":
                rows["transfers"].append((
                    height, seq, entry["gateway"], entry["seller"],
                    entry["buyer"], entry["amount_dc"], entry["fee_dc"],
                ))
            elif kind == "state_channel_close":
                rows["packet_summaries"].extend(
                    (height, seq, summary_seq, entry["channel_id"],
                     entry["owner"], entry["oui"], summary["hotspot"],
                     summary["num_packets"], summary["num_dcs"])
                    for summary_seq, summary in enumerate(entry["summaries"])
                )
        if sum(map(len, rows.values())) >= FLUSH_ROWS:
            self.flush()
        return len(entries)

    def _add_receipt(
        self, height: int, seq: int, entry: Dict[str, Any]
    ) -> None:
        """A receipt row plus one row per witness report."""
        challenger = entry["challenger"]
        challengee = entry["challengee"]
        token = entry["challengee_location_token"]
        witnesses = entry["witnesses"]
        self._rows["poc_receipts"].append((
            height, seq, challenger, challengee, token, len(witnesses),
            sum(1 for report in witnesses if report["is_valid"]),
        ))
        centre, null_island = self._site(token)
        append = self._rows["witnesses"].append
        for witness_seq, report in enumerate(witnesses):
            location = report["reported_location_token"]
            witness_centre, witness_null_island = self._site(location)
            append((
                height, seq, witness_seq, challenger, challengee, token,
                report["witness"], location, report["rssi_dbm"],
                report["snr_db"], report["frequency_mhz"],
                centre.distance_km(witness_centre),
                int(null_island or witness_null_island),
                int(report["is_valid"]), report["invalid_reason"],
            ))

    def _site(self, token: str) -> Tuple[LatLon, bool]:
        """A location token's hex centre and null-island flag."""
        site = self._sites.get(token)
        if site is None:
            centre = HexCell.from_token(token).center()
            site = self._sites[token] = (centre, centre.is_null_island())
        return site

    def flush(self) -> None:
        """Write every buffered row (inside the caller's transaction)."""
        for table, rows in self._rows.items():
            if rows:
                self._connection.executemany(_INSERTS[table], rows)
                rows.clear()


def _sync_ledger_state(store: EtlStore, chain: Blockchain) -> None:
    """Refresh the folded state tables from the chain's ledger.

    Wholesale delete + insert in ledger iteration order: rowid then
    preserves insertion order, which the explorer's name index, fleet
    listings and owner order rely on to match the ledger's dicts.
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
