"""EtlStore lifecycle: schema stamping, checkpoints, failure modes."""

from __future__ import annotations

import sqlite3
import sys
import threading

import pytest

from repro.errors import EtlError
from repro.etl import SCHEMA_VERSION, EtlStore, ingest_chain
from repro.etl import schema
from repro.etl.store import MAX_PAGE_LIMIT, ReadReplicas, clamp_page

from tests.etl_chains import ChainBuilder


class TestFreshStore:
    def test_memory_store_is_virgin(self):
        store = EtlStore()
        assert store.checkpoint_height == -1
        assert store.get_meta("schema_version") == str(SCHEMA_VERSION)
        assert store.get_meta("tip_hash") is None

    def test_all_tables_exist_and_empty(self):
        counts = EtlStore().counts()
        assert set(counts) == set(schema.TABLES)
        assert all(count == 0 for count in counts.values())

    def test_counts_after_ingest(self):
        builder = ChainBuilder(seed=1, n_hotspots=4)
        builder.grow(8)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        counts = store.counts()
        assert counts["blocks"] == len(builder.chain.blocks)
        assert counts["transactions"] == builder.chain.total_transactions
        assert counts["hotspots"] == builder.chain.ledger.hotspot_count
        assert counts["wallets"] == len(builder.chain.ledger.wallets)

    def test_context_manager_closes(self, tmp_path):
        with EtlStore(tmp_path / "etl.db") as store:
            assert store.checkpoint_height == -1
        with pytest.raises(sqlite3.ProgrammingError):
            store.connection.execute("SELECT 1")


class TestPersistence:
    def test_reopen_keeps_content(self, tmp_path):
        builder = ChainBuilder(seed=2, n_hotspots=3)
        builder.grow(5)
        path = tmp_path / "etl.db"
        first = EtlStore(path)
        ingest_chain(builder.chain, first)
        digest = first.content_digest()
        first.close()

        again = EtlStore(path, create=False)
        assert again.checkpoint_height == builder.chain.height
        assert again.content_digest() == digest

    def test_reopen_helper_shares_the_database(self, tmp_path):
        path = tmp_path / "etl.db"
        store = EtlStore(path)
        twin = store.reopen()
        assert twin.get_meta("schema_version") == str(SCHEMA_VERSION)


class TestFailureModes:
    def test_missing_file_without_create(self, tmp_path):
        with pytest.raises(EtlError, match="no ETL store"):
            EtlStore(tmp_path / "nope.db", create=False)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a sqlite database at all" * 40)
        with pytest.raises(EtlError, match="unreadable"):
            EtlStore(path)

    def test_foreign_sqlite_database(self, tmp_path):
        path = tmp_path / "other.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE unrelated (x)")
        connection.commit()
        connection.close()
        with pytest.raises(EtlError, match="not an ETL store"):
            EtlStore(path, create=False)

    def test_stale_schema_version(self, tmp_path):
        path = tmp_path / "old.db"
        store = EtlStore(path)
        with store.connection:
            store._set_meta("schema_version", str(SCHEMA_VERSION + 1))
        store.close()
        with pytest.raises(EtlError, match="schema"):
            EtlStore(path)

    def test_unknown_witness_direction(self):
        with pytest.raises(EtlError, match="direction"):
            EtlStore().witness_events("hs_x", direction="sideways")


class TestContentDigest:
    def test_digest_is_content_only(self, tmp_path):
        builder = ChainBuilder(seed=3, n_hotspots=3)
        builder.grow(4)
        on_disk = EtlStore(tmp_path / "a.db")
        in_memory = EtlStore()
        ingest_chain(builder.chain, on_disk, batch_blocks=2)
        ingest_chain(builder.chain, in_memory, batch_blocks=999)
        assert on_disk.content_digest() == in_memory.content_digest()

    def test_digest_changes_with_content(self):
        builder = ChainBuilder(seed=4, n_hotspots=3)
        builder.grow(3)
        store = EtlStore()
        ingest_chain(builder.chain, store)
        before = store.content_digest()
        builder.grow(2)
        ingest_chain(builder.chain, store)
        assert store.content_digest() != before


class TestWalAndReplicas:
    """The concurrency satellites: WAL at build time, leased read-only
    replicas, and snapshot-consistent reads."""

    def test_file_store_runs_in_wal_with_synchronous_normal(self, tmp_path):
        with EtlStore(tmp_path / "etl.db") as store:
            assert store.journal_mode == "wal"
            assert store.connection.execute(
                "PRAGMA synchronous"
            ).fetchone()[0] == 1  # NORMAL

    def test_memory_store_keeps_its_default_journal(self):
        # WAL needs a file; the in-memory convenience store must not
        # pretend otherwise.
        assert EtlStore().journal_mode == "memory"

    def test_read_only_replica_sees_wal_and_cannot_write(self, tmp_path):
        path = tmp_path / "etl.db"
        EtlStore(path).close()
        replica = EtlStore(path, create=False, read_only=True)
        assert replica.journal_mode == "wal"
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            replica.connection.execute(
                "INSERT OR REPLACE INTO etl_meta (key, value) "
                "VALUES ('x', 'y')"
            )
        replica.close()

    def test_read_only_requires_a_file(self, tmp_path):
        with pytest.raises(EtlError, match="file-backed"):
            EtlStore(read_only=True)
        with pytest.raises(EtlError, match="no ETL store"):
            EtlStore(tmp_path / "absent.db", read_only=True)

    def test_replica_sees_committed_ingest(self, tmp_path):
        path = tmp_path / "etl.db"
        builder = ChainBuilder(seed=6, n_hotspots=3)
        builder.grow(4)
        writer = EtlStore(path)
        replica = writer.reopen(read_only=True)
        assert replica.checkpoint_height == -1
        ingest_chain(builder.chain, writer)
        # No reopen needed: WAL readers see each commit as it lands.
        assert replica.checkpoint_height == builder.chain.height
        writer.close()
        replica.close()

    def test_read_snapshot_pins_one_commit(self, tmp_path):
        path = tmp_path / "etl.db"
        builder = ChainBuilder(seed=7, n_hotspots=3)
        builder.grow(3)
        writer = EtlStore(path)
        ingest_chain(builder.chain, writer)
        replica = writer.reopen(read_only=True)
        with replica.read_snapshot():
            before = replica.checkpoint_height
            builder.grow(2)
            ingest_chain(builder.chain, writer)  # commits mid-snapshot
            assert replica.checkpoint_height == before  # pinned
        assert replica.checkpoint_height == builder.chain.height
        writer.close()
        replica.close()

    def test_sequential_leases_reuse_one_handle(self, tmp_path):
        path = tmp_path / "etl.db"
        EtlStore(path).close()
        replicas = ReadReplicas(path)
        with replicas.lease() as first:
            assert first.read_only
        for _ in range(5):
            with replicas.lease() as again:
                assert again is first
        assert replicas.open_count == 1
        replicas.close_all()
        assert replicas.open_count == 0

    def test_concurrent_leases_never_share_a_handle(self, tmp_path):
        path = tmp_path / "etl.db"
        EtlStore(path).close()
        replicas = ReadReplicas(path)
        both_held = threading.Barrier(2)
        held = []

        def _lease():
            with replicas.lease() as store:
                held.append(store)
                both_held.wait(timeout=10)

        threads = [threading.Thread(target=_lease) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(held) == 2 and held[0] is not held[1]
        assert replicas.open_count == 2
        # Most recently returned first; both stay pooled.
        with replicas.lease() as outer, replicas.lease() as inner:
            assert {id(outer), id(inner)} == {id(h) for h in held}
        assert replicas.open_count == 2
        replicas.close_all()

    def test_leases_stay_exclusive_under_contention(self, tmp_path):
        path = tmp_path / "etl.db"
        EtlStore(path).close()
        replicas = ReadReplicas(path)
        held, clashes = set(), []
        guard = threading.Lock()

        def _hammer():
            for _ in range(100):
                with replicas.lease() as store:
                    with guard:
                        if id(store) in held:
                            clashes.append(id(store))
                        held.add(id(store))
                    store.checkpoint_height  # a query on the leased handle
                    with guard:
                        held.discard(id(store))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=_hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clashes
        assert 1 <= replicas.open_count <= 8
        # Every handle opened came back to the free list exactly once.
        assert sorted(map(id, replicas._free)) == sorted(
            map(id, replicas._opened)
        )
        replicas.close_all()

    def test_lease_that_raised_in_a_snapshot_holds_no_transaction(
        self, tmp_path
    ):
        path = tmp_path / "etl.db"
        builder = ChainBuilder(seed=8, n_hotspots=3)
        builder.grow(3)
        writer = EtlStore(path)
        ingest_chain(builder.chain, writer)
        replicas = ReadReplicas(path)
        with pytest.raises(RuntimeError, match="render failed"):
            with replicas.lease() as store, store.read_snapshot():
                assert store.checkpoint_height == builder.chain.height
                raise RuntimeError("render failed")
        builder.grow(2)
        ingest_chain(builder.chain, writer)
        with replicas.lease() as again:
            assert again is store
            assert not again.connection.in_transaction
            assert again.checkpoint_height == builder.chain.height
        replicas.close_all()
        writer.close()

    def test_read_replicas_reject_missing_database(self, tmp_path):
        with pytest.raises(EtlError, match="no ETL store"):
            ReadReplicas(tmp_path / "absent.db")


@pytest.fixture(scope="module")
def builder():
    """A randomized chain for the paging checks."""
    builder = ChainBuilder(seed=99, n_hotspots=5)
    builder.grow(15)
    return builder


class TestStorePaging:
    def test_clamp_page_validates(self):
        assert clamp_page(10, 5) == (10, 5)
        assert clamp_page(MAX_PAGE_LIMIT + 1) == (MAX_PAGE_LIMIT, 0)
        with pytest.raises(ValueError):
            clamp_page(-1)
        with pytest.raises(ValueError):
            clamp_page(10, -3)
        with pytest.raises(ValueError):
            clamp_page("banana")

    def test_hotspot_page_rows_matches_python_slice(self, builder):
        store = EtlStore()
        ingest_chain(builder.chain, store)
        full = store.hotspot_rows()
        assert store.hotspot_page_rows(2, 1) == full[1:3]
        assert store.hotspot_page_rows(10**9, 0) == full

    def test_witness_events_clamps_limit(self, builder):
        store = EtlStore()
        ingest_chain(builder.chain, store)
        with pytest.raises(ValueError):
            store.witness_events(
                builder.gateways[0], direction="witnessing", limit=-1
            )
