"""Chain log: framed codec round-trips, eviction parity, torn tails.

The contracts under test are the ones the bounded-RSS chain rests on:

* **Byte identity.** A chain whose finalized prefix was evicted to the
  log dumps byte-for-byte what the fully resident chain dumps, and the
  lazily materialised views expose the same transactions
  (``transaction_to_dict`` parity) and the same block hashes. The
  Hypothesis cases drive arbitrary transaction mixes through
  ``ChainBuilder`` — every family the ETL types out.
* **Codec round-trip.** ``encode_frame`` → ``scan_frames`` returns the
  exact payload bytes, heights, and a verified digest chain, for
  arbitrary payloads.
* **Torn tails.** ``scan_frames``, the one reader of chain-log files,
  rejects a partial final frame (crash mid-append), a frame crossing
  the recorded extent, corruption anywhere and a bad magic — never
  silently skipping a torn tail.
* **Chain-log files.** ``write_chain_log`` returns the extent record
  ``open_chain_log`` needs, and continuing a file after a recorded
  extent writes the bytes a full write would.
* **Typed reads.** The per-kind index makes ``iter_transactions(kind)``
  equal a plain filtered loop over ``chain.blocks`` on every residency:
  a resident JSONL replay, evicted to the log, checkpoint-resumed and
  warm-loaded from a scenario snapshot.
"""

from __future__ import annotations

import hashlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.blockchain import Blockchain
from repro.chain import transactions as txns
from repro.chain.chainlog import (
    CHAINLOG_MAGIC,
    FRAME_HEADER_SIZE,
    ChainLog,
    ChainLogError,
    encode_frame,
    scan_frames,
    seed_digest,
)
from repro.chain.serialize import (
    dump_chain,
    load_chain,
    open_chain_log,
    replay_chain_log,
    transaction_to_dict,
    write_chain_log,
)
from repro.errors import ChainError

from tests.etl_chains import ChainBuilder


def _dump_text(chain: Blockchain) -> str:
    sink = io.StringIO()
    dump_chain(chain, sink)
    return sink.getvalue()


#: Every concrete transaction class.
_KINDS = (
    txns.AddGateway, txns.AssertLocation, txns.TransferHotspot,
    txns.PocRequest, txns.PocReceipts, txns.StateChannelOpen,
    txns.StateChannelClose, txns.Payment, txns.TokenBurn,
    txns.OuiRegistration, txns.Rewards,
)


def _grown(seed: int, blocks: int) -> Blockchain:
    builder = ChainBuilder(seed=seed, n_hotspots=5, n_owners=3)
    builder.grow(blocks=blocks)
    return builder.chain


class TestEvictionParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), blocks=st.integers(1, 24))
    def test_evicted_chain_is_indistinguishable(self, seed, blocks):
        resident = _grown(seed, blocks)
        evicted = _grown(seed, blocks)
        evicted.attach_log(ChainLog())
        n_evicted = evicted.evict_finalized()
        assert n_evicted == len(evicted.blocks) - 1  # tip stays resident

        # Dumps are byte-identical (spilled lines are raw byte copies).
        assert _dump_text(evicted) == _dump_text(resident)

        # Lazy views carry the same transactions and hashes.
        for position in range(len(resident.blocks)):
            a, b = resident.blocks[position], evicted.blocks[position]
            assert a.height == b.height
            assert a.hash == b.hash
            assert (
                [transaction_to_dict(t) for t in a.transactions]
                == [transaction_to_dict(t) for t in b.transactions]
            )

        # Filtered iteration reads through the log identically, for the
        # full scan and for every kind the index holds.
        for kind in (None, *_KINDS):
            assert [
                (h, transaction_to_dict(t))
                for h, t in evicted.iter_transactions(kind)
            ] == [
                (h, transaction_to_dict(t))
                for h, t in resident.iter_transactions(kind)
            ]

    def test_eviction_keeps_growing_chain_consistent(self):
        builder = ChainBuilder(seed=5, n_hotspots=5)
        builder.chain.attach_log(ChainLog())
        for _ in range(6):
            builder.grow(blocks=3)
            builder.chain.evict_finalized()
        twin = ChainBuilder(seed=5, n_hotspots=5)
        for _ in range(6):
            twin.grow(blocks=3)
        assert _dump_text(builder.chain) == _dump_text(twin.chain)


class TestFrameCodec:
    @settings(max_examples=25, deadline=None)
    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=512), max_size=12)
    )
    def test_encode_scan_round_trip(self, payloads):
        tail = seed_digest()
        buffer = io.BytesIO()
        buffer.write(CHAINLOG_MAGIC)
        for height, payload in enumerate(payloads):
            frame, tail = encode_frame(height, payload, tail)
            buffer.write(frame)
        buffer.seek(0)
        scanned = list(scan_frames(buffer))
        assert [p for _, _, p, _ in scanned] == payloads
        assert [h for _, h, _, _ in scanned] == list(range(len(payloads)))
        if scanned:
            assert scanned[-1][3] == tail

    @settings(max_examples=25, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=256), min_size=1, max_size=8
        )
    )
    def test_log_positional_reads(self, payloads):
        log = ChainLog()
        for height, payload in enumerate(payloads):
            log.append(height, payload)
        tail = seed_digest()
        for index, payload in enumerate(payloads):
            frame, tail = encode_frame(index, payload, tail)
            assert log.payload(index) == payload
            assert log.frame_bytes(index) == frame
        assert len(log) == len(payloads)
        assert log.tail_digest == tail
        log.close()

    def test_spliced_frame_breaks_the_chain(self):
        """A frame from another log (valid in isolation) cannot be
        spliced in: its digest chains from the wrong predecessor."""
        frame, _ = encode_frame(1, b"other history", seed_digest())
        buffer = io.BytesIO()
        buffer.write(CHAINLOG_MAGIC)
        own, _ = encode_frame(0, b"mine", seed_digest())
        buffer.write(own)
        buffer.write(frame)  # chained from seed, not from `own`
        buffer.seek(0)
        with pytest.raises(ChainLogError, match="digest chain broken"):
            list(scan_frames(buffer))


@pytest.fixture()
def log_file(tmp_path):
    """A chain-log file with three intact frames; returns (path, payloads)."""
    path = tmp_path / "chain.log"
    payloads = [b'{"height":%d}\n' % i for i in range(3)]
    tail = seed_digest()
    with open(path, "wb") as handle:
        handle.write(CHAINLOG_MAGIC)
        for height, payload in enumerate(payloads):
            frame, tail = encode_frame(height, payload, tail)
            handle.write(frame)
    return path, payloads


def _scan(path, limit_bytes=None):
    """The payloads ``scan_frames`` reads from the file at ``path``."""
    with open(path, "rb") as handle:
        return [p for _, _, p, _ in scan_frames(handle, limit_bytes)]


class TestTornTails:
    def test_clean_reopen(self, log_file):
        path, payloads = log_file
        assert _scan(path) == payloads
        assert _scan(path, path.stat().st_size) == payloads

    @pytest.mark.parametrize("cut", [1, FRAME_HEADER_SIZE - 1,
                                     FRAME_HEADER_SIZE + 2])
    def test_torn_final_frame_rejected_without_recover(self, log_file, cut):
        path, _ = log_file
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - cut)
        # Read to the end, or to the extent a meta recorded before the
        # tear: either way the torn frame raises, it is never dropped.
        for limit in (None, size):
            with pytest.raises(ChainLogError, match="torn frame"):
                _scan(path, limit)

    def test_mid_file_corruption_always_raises(self, log_file):
        path, _ = log_file
        blob = bytearray(path.read_bytes())
        # Flip a byte in the *first* frame's payload: frames after it
        # still look intact, so this is damage, not a torn append.
        blob[len(CHAINLOG_MAGIC) + FRAME_HEADER_SIZE] ^= 0xFF
        path.write_bytes(bytes(blob))
        for limit in (None, len(blob)):
            with pytest.raises(ChainLogError, match="digest chain broken"):
                _scan(path, limit)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not-a-log"
        path.write_bytes(b"GARBAGE!" + os.urandom(64))
        with pytest.raises(ChainLogError, match="bad magic"):
            _scan(path)
        with pytest.raises(ChainLogError, match="bad magic"):
            open_chain_log(path, {
                "chain_blocks": 1, "chain_bytes": 72,
                "chain_sha256": "0" * 64,
            })

    def test_scan_rejects_frame_crossing_recorded_extent(self, log_file):
        path, _ = log_file
        size = path.stat().st_size
        with open(path, "rb") as handle:
            with pytest.raises(ChainLogError, match="crosses the recorded"):
                list(scan_frames(handle, limit_bytes=size - 4))


class TestChainLogFile:
    """``write_chain_log`` returns the extent record ``open_chain_log``
    reads back from the caller's meta."""

    def test_extent_record_round_trips(self, tmp_path):
        chain = _grown(seed=5, blocks=40)
        path = tmp_path / "chain.log"
        with open(path, "wb") as handle:
            record, tail = write_chain_log(chain, handle, hashlib.sha256())
        assert record == {
            "chain_blocks": len(chain.blocks),
            "chain_bytes": path.stat().st_size,
            "chain_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
        source, sha = open_chain_log(path, {"schema": 3, **record})
        assert sha.hexdigest() == record["chain_sha256"]
        assert source.tail_digest == tail
        assert _dump_text(replay_chain_log(source)) == _dump_text(chain)
        for key in record:
            partial = {k: v for k, v in record.items() if k != key}
            with pytest.raises(ChainError, match="not recorded"):
                open_chain_log(path, partial)

    def test_continuing_after_an_extent_equals_a_full_write(self, tmp_path):
        builder = ChainBuilder(seed=6, n_hotspots=5, n_owners=3)
        builder.grow(blocks=20)
        path = tmp_path / "grown.log"
        with open(path, "wb") as handle:
            record, tail = write_chain_log(
                builder.chain, handle, hashlib.sha256()
            )
        builder.grow(blocks=20)
        with open(path, "ab") as handle:
            handle.write(b"bytes a killed append left")
        sha = hashlib.sha256(path.read_bytes()[:record["chain_bytes"]])
        with open(path, "r+b") as handle:
            grown, _ = write_chain_log(
                builder.chain, handle, sha, (record, tail)
            )
        full = tmp_path / "full.log"
        with open(full, "wb") as handle:
            expected, _ = write_chain_log(
                builder.chain, handle, hashlib.sha256()
            )
        assert grown == expected
        assert path.read_bytes() == full.read_bytes()


def _plain_filter(chain, kind=None, start_height=0, end_height=None,
                  predicate=None):
    """``iter_transactions`` spelled as a loop over ``chain.blocks``."""
    stop = chain.height if end_height is None else end_height
    return [
        (block.height, txn)
        for block in chain.blocks
        if start_height <= block.height <= stop
        for txn in block.transactions
        if (kind is None or isinstance(txn, kind))
        and (predicate is None or predicate(txn))
    ]


class TestKindIndex:
    """Typed ``iter_transactions`` scans read the same transactions from
    every residency: resident, log-backed, checkpoint-resumed and
    warm-loaded chains all equal a plain filter over the resident
    replay."""

    @pytest.fixture(scope="class")
    def chains(self, tmp_path_factory):
        from repro.experiments.snapshot import load_result, save_result
        from repro.simulation import SimulationEngine

        from tests.test_engine_hotpath import _trimmed_config

        config = _trimmed_config(seed=31)
        tmp = tmp_path_factory.mktemp("kind-index")
        logged = SimulationEngine(config).run()
        SimulationEngine(config).run(
            stop_after_day=30, checkpoint_dir=tmp / "ckpt"
        )
        save_result(logged, tmp / "snap")
        return {
            # A validating, fully resident replay of the simulated chain.
            "resident": load_chain(io.StringIO(_dump_text(logged.chain))),
            "log-backed": logged.chain,
            "checkpoint-resumed": SimulationEngine.resume(
                tmp / "ckpt"
            ).run().chain,
            "warm-loaded": load_result(tmp / "snap").chain,
        }

    @staticmethod
    def _queries(chain):
        tip = chain.height
        third = tip // 3
        yield {}
        for kind in _KINDS:
            yield {"kind": kind}
        yield {"kind": (txns.AssertLocation, txns.PocReceipts)}
        yield {"kind": txns.Transaction}
        yield {"kind": (txns.Transaction, txns.Rewards)}
        for kind in (None, txns.PocReceipts, txns.StateChannelClose):
            yield {"kind": kind, "start_height": third}
            yield {"kind": kind, "end_height": 2 * third}
            yield {"kind": kind, "start_height": third,
                   "end_height": 2 * third}
            yield {"kind": kind, "start_height": tip + 1}
        yield {"kind": txns.AssertLocation,
               "predicate": lambda t: t.nonce > 1}
        yield {"kind": (txns.Payment, txns.TransferHotspot),
               "predicate": lambda t: getattr(t, "amount_dc", 0) > 0}

    @pytest.mark.parametrize("name", [
        "resident", "log-backed", "checkpoint-resumed", "warm-loaded",
    ])
    def test_typed_scan_equals_plain_filter(self, chains, name):
        chain = chains[name]
        reference = chains["resident"]
        assert [b.height for b in chain.blocks] == [
            b.height for b in reference.blocks
        ]
        for query in self._queries(reference):
            got = list(chain.iter_transactions(**query))
            assert got == _plain_filter(reference, **query), query
            assert got == _plain_filter(chain, **query), query
        # The engine's chains hold every class but token burns.
        kinds = {type(t) for _, t in chain.iter_transactions(
            txns.Transaction
        )}
        assert kinds == set(_KINDS) - {txns.TokenBurn}

    def test_warm_load_keeps_only_the_tip_resident(self, chains):
        chain = chains["warm-loaded"]
        resident = [
            position for position, slot in enumerate(chain.blocks._slots)
            if slot is not None
        ]
        assert resident == [len(chain.blocks) - 1]
        assert chain.tip.hash == chains["resident"].tip.hash

    def test_ingest_of_warm_load_matches_fresh(self, chains):
        """A warm-loaded chain ingests to the store that the simulated
        chain and a validating JSONL replay of it give: every ledger
        balance, DC included, is the same however the chain got into
        memory."""
        from repro.etl import EtlStore, ingest_chain

        digests = []
        for name in ("resident", "log-backed", "warm-loaded"):
            store = EtlStore()
            ingest_chain(chains[name], store, batch_blocks=64)
            digests.append(store.content_digest())
            store.close()
        assert digests[0] == digests[1] == digests[2]
