"""`EtlStore`: the typed, queryable replica the analyses run against.

Opens (or creates) the SQLite database declared in
:mod:`repro.etl.schema` and exposes the query surface three consumers
share:

* :class:`repro.core.explorer.Explorer` renders its pages from the
  ``query_*_page`` methods;
* every analysis in :mod:`repro.core.analysis` and every experiment
  reads chain history and ledger state through the row readers below,
  which yield rows in chain order, ``(height, seq, …)``, so an analysis
  folds them exactly as a walk over the chain would. Kinds without a
  typed table (``assert_location``, the state-channel pair) are read
  from ``transactions.payload`` through the ``idx_txn_kind`` index;
* the HTTP tier (:mod:`repro.serve`) serves the same pages, rendered
  by :mod:`repro.etl.server`, plus the coverage-dot view as JSON.

A store handle is cheap; the data lives in the ``.db`` file. A handle
serves one thread at a time — :class:`ReadReplicas` is the pool the
HTTP tier leases from: one ``mode=ro`` connection per request in
flight over a WAL-journalled file, so concurrent readers never queue
behind each other or behind the ingest writer.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, Collection, Dict, Iterator, List, Optional, Set, Tuple, Union,
)
from urllib.parse import quote

from repro import units
from repro.core.explorer import Address, HotspotPage, OwnerPage, WitnessEvent
from repro.errors import EtlError
from repro.etl import schema
from repro.geo.hexgrid import HexCell

__all__ = [
    "MAX_PAGE_LIMIT", "PAGE_CACHE_KIB", "EtlStore", "ReadReplicas",
    "clamp_page",
]

_MEMORY = ":memory:"

#: Page-cache cap of every connection, writer and read-only replicas
#: alike, in KiB (SQLite's default is 2,000 KiB per connection). The
#: file's pages already sit in the OS page cache, so a large private
#: cache per connection only duplicates them; a small one still keeps
#: the hot B-tree interior pages. The writer pays a little time for it:
#: a warm ``paper`` ingest runs ~1 s longer than with the default.
PAGE_CACHE_KIB = 256

#: Hard ceiling on one page of results. Every paginated query surface
#: (HTTP routes and the store's own paging helpers) clamps to this, so
#: no single request can dump an unbounded table.
MAX_PAGE_LIMIT = 1000


def clamp_page(
    limit: int, offset: int = 0, max_limit: int = MAX_PAGE_LIMIT
) -> Tuple[int, int]:
    """Validated ``(limit, offset)`` for a paged query.

    Raises :class:`ValueError` on non-integers or negatives (the HTTP
    layer maps that to a 400); a too-large limit silently clamps to
    ``max_limit``. Offsets stay unbounded upward — paging deep is
    legitimate, dumping an unbounded page is not. Notably ``limit=-1``
    must never reach SQLite, where a negative ``LIMIT`` means
    "no limit".
    """
    limit = int(limit)
    offset = int(offset)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    return min(limit, max_limit), offset


def _derived_name(address: Address) -> str:
    """The three-word name of an address with no ``hotspots`` row.

    The ledger checks only a receipt's challengee, so a witness need
    not be a registered hotspot; its name is then derived from the
    address as the chain derives every hotspot's. ``hotspot_name`` is
    imported on this path only: a registered hotspot's name comes from
    its row, and a module-level import would load ``hashlib`` into the
    serving process.
    """
    from repro.chain.naming import hotspot_name

    return hotspot_name(address)


class EtlStore:
    """One handle onto an ETL database (see module docstring).

    Args:
        path: database file, or ``":memory:"`` for an ephemeral store.
        create: apply the schema to an empty database. When False, an
            empty or missing database raises :class:`EtlError`.
        read_only: open the file through SQLite's ``mode=ro`` URI — the
            handle can never write, which is what the serving tier
            leases to each request. Requires a file-backed store.

    File-backed stores run with ``journal_mode=WAL`` (set on every
    writable open; the mode is persistent), so readers see consistent
    snapshots and never block behind the ingest writer, and
    ``synchronous=NORMAL`` — the WAL-recommended durability point.
    Every handle caps its page cache at :data:`PAGE_CACHE_KIB`.

    Raises:
        EtlError: if the file is not an ETL store, is corrupt, or was
            written by an incompatible schema version.
    """

    def __init__(
        self,
        path: Union[str, Path] = _MEMORY,
        create: bool = True,
        read_only: bool = False,
    ) -> None:
        self.path = str(path)
        self.read_only = read_only
        if read_only and self.path == _MEMORY:
            raise EtlError("read-only replicas need a file-backed store")
        if (read_only or not create) and (
            self.path != _MEMORY and not Path(self.path).exists()
        ):
            raise EtlError(f"no ETL store at {self.path}")
        try:
            if read_only:
                # mode=ro cannot write even by accident; isolation_level
                # None leaves transaction control to read_snapshot().
                # check_same_thread=False: a ReadReplicas handle serves
                # whichever worker leases it, and close_all closes them
                # all from the shutdown thread.
                uri = "file:{}?mode=ro".format(quote(str(Path(self.path).resolve())))
                self.connection = sqlite3.connect(
                    uri, uri=True, check_same_thread=False,
                    isolation_level=None,
                )
            else:
                self.connection = sqlite3.connect(self.path)
                self.connection.execute("PRAGMA synchronous=NORMAL")
            self.connection.execute("PRAGMA busy_timeout=5000")
            self.connection.execute(f"PRAGMA cache_size=-{PAGE_CACHE_KIB}")
            if not read_only and self.path != _MEMORY:
                # Persistent: every later open (including mode=ro
                # replicas) finds the database already in WAL.
                self.connection.execute("PRAGMA journal_mode=WAL")
            existing = self._schema_version()
        except sqlite3.DatabaseError as exc:
            raise EtlError(f"unreadable ETL store {self.path}: {exc}") from exc
        if existing is None:
            if not create or read_only:
                self.connection.close()
                raise EtlError(f"{self.path} is not an ETL store")
            schema.apply_schema(self.connection)
            with self.connection:
                self._set_meta("schema_version", str(schema.SCHEMA_VERSION))
        elif existing != schema.SCHEMA_VERSION:
            self.connection.close()
            raise EtlError(
                f"ETL store {self.path} has schema {existing}, "
                f"expected {schema.SCHEMA_VERSION}"
            )

    @property
    def journal_mode(self) -> str:
        """The active SQLite journal mode (``wal`` for file stores)."""
        return str(
            self.connection.execute("PRAGMA journal_mode").fetchone()[0]
        ).lower()

    def _schema_version(self) -> Optional[int]:
        try:
            row = self.connection.execute(
                "SELECT value FROM etl_meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            return None  # no etl_meta table: empty or foreign database
        return None if row is None else int(row[0])

    def reopen(self, read_only: bool = False) -> "EtlStore":
        """A fresh handle onto the same database (for other threads)."""
        return EtlStore(self.path, create=False, read_only=read_only)

    @contextmanager
    def read_snapshot(self) -> Iterator["EtlStore"]:
        """All reads inside the block see one committed snapshot.

        On a read-only WAL replica this wraps the block in an explicit
        ``BEGIN``/``COMMIT``, so a multi-query page (checkpoint plus the
        rows it covers) can never straddle an ingest commit — the
        property the checkpoint-keyed response cache needs to be exact.
        On a writable or in-memory handle it is a no-op (those callers
        already serialise access themselves).
        """
        if not self.read_only:
            yield self
            return
        self.connection.execute("BEGIN")
        try:
            yield self
        finally:
            self.connection.execute("COMMIT")

    def close(self) -> None:
        """Close the underlying connection."""
        self.connection.close()

    def __enter__(self) -> "EtlStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- meta / checkpoints ------------------------------------------------

    def _set_meta(self, key: str, value: str) -> None:
        self.connection.execute(
            "INSERT OR REPLACE INTO etl_meta (key, value) VALUES (?, ?)",
            (key, value),
        )

    def get_meta(self, key: str) -> Optional[str]:
        """Read one metadata value (``None`` when unset)."""
        row = self.connection.execute(
            "SELECT value FROM etl_meta WHERE key=?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    @property
    def checkpoint_height(self) -> int:
        """Last committed block height; ``-1`` for a virgin store."""
        value = self.get_meta("checkpoint_height")
        return -1 if value is None else int(value)

    def counts(self) -> Dict[str, int]:
        """Row counts per table (diagnostics and the ``stats`` endpoint)."""
        return {
            table: int(
                self.connection.execute(
                    f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed names
                ).fetchone()[0]
            )
            for table in schema.TABLES
        }

    def content_digest(self) -> str:
        """Order-independent digest of every table's content.

        Two stores with identical rows (regardless of how they got
        there — fresh full ingest or checkpointed resume) digest
        equal; the acceptance test for idempotent resume relies on it.
        """
        import hashlib

        digest = hashlib.sha256()
        for table in schema.TABLES:
            digest.update(table.encode())
            cursor = self.connection.execute(
                f"SELECT * FROM {table}"  # noqa: S608 - fixed names
            )
            for row in sorted(repr(r) for r in cursor):
                digest.update(row.encode())
        return digest.hexdigest()

    # -- explorer page queries ---------------------------------------------

    def query_hotspot_page(
        self, gateway: Address, recent_limit: int = 25
    ) -> Optional[HotspotPage]:
        """The explorer page for a hotspot, or ``None`` if unknown."""
        row = self.connection.execute(
            "SELECT owner, name, location_token, nonce, added_block "
            "FROM hotspots WHERE gateway=?",
            (gateway,),
        ).fetchone()
        if row is None:
            return None
        owner, name, token, nonce, added_block = row
        location = None
        if token is not None:
            location = HexCell.from_token(token).center()
        rewards = self.connection.execute(
            "SELECT COALESCE(SUM(amount_bones), 0) FROM rewards WHERE gateway=?",
            (gateway,),
        ).fetchone()[0]
        packets = self.connection.execute(
            "SELECT COALESCE(SUM(num_packets), 0) FROM packet_summaries "
            "WHERE hotspot=?",
            (gateway,),
        ).fetchone()[0]
        transfers = self.connection.execute(
            "SELECT COUNT(*) FROM transfers WHERE gateway=?", (gateway,)
        ).fetchone()[0]
        return HotspotPage(
            gateway=gateway,
            name=name,
            owner=owner,
            location=location,
            location_token=token,
            added_block=int(added_block),
            assert_count=int(nonce),
            total_rewards_hnt=units.bones_to_hnt(int(rewards)),
            packets_ferried=int(packets),
            transfer_count=int(transfers),
            recent_witnesses=self.witness_events(
                gateway, direction="witnessing", limit=recent_limit
            ),
            recent_witnessed_by=self.witness_events(
                gateway, direction="witnessed_by", limit=recent_limit
            ),
        )

    def witness_events(
        self, gateway: Address, direction: str, limit: int = 25
    ) -> List[WitnessEvent]:
        """The most recent witness events touching a hotspot.

        ``direction="witnessing"`` lists challenges this hotspot heard
        (counterparty is the challengee); ``"witnessed_by"`` lists
        reports about this hotspot's own beacons (counterparty is the
        witness). Events come back oldest-first: the newest ``limit``
        of them, in chain order. Counterparty names come from the
        ``hotspots`` table.
        """
        if direction == "witnessing":
            where, counterparty = "witness", "challengee"
        elif direction == "witnessed_by":
            where, counterparty = "challengee", "witness"
        else:
            raise EtlError(f"unknown witness direction {direction!r}")
        limit, _ = clamp_page(limit)
        rows = self.connection.execute(
            f"SELECT w.height, w.{counterparty}, h.name, w.rssi_dbm, "
            "w.distance_km, w.is_valid FROM witnesses w "
            f"LEFT JOIN hotspots h ON h.gateway = w.{counterparty} "
            f"WHERE w.{where}=? "
            "ORDER BY w.height DESC, w.seq DESC, w.witness_seq DESC LIMIT ?",
            (gateway, limit),
        ).fetchall()
        return [
            WitnessEvent(
                block=int(height),
                counterparty=other,
                counterparty_name=(
                    name if name is not None else _derived_name(other)
                ),
                rssi_dbm=float(rssi),
                distance_km=float(distance),
                valid=bool(valid),
            )
            for height, other, name, rssi, distance, valid in reversed(rows)
        ]

    def query_owner_page(self, wallet: Address) -> Optional[OwnerPage]:
        """The explorer page for a wallet, or ``None`` if unknown."""
        fleet = self.connection.execute(
            "SELECT gateway, name FROM hotspots WHERE owner=? ORDER BY rowid",
            (wallet,),
        ).fetchall()
        state = self.connection.execute(
            "SELECT hnt_bones, dc FROM wallets WHERE address=?", (wallet,)
        ).fetchone()
        if not fleet and state is None:
            return None
        rewards = self.connection.execute(
            "SELECT COALESCE(SUM(r.amount_bones), 0) FROM rewards r "
            "JOIN hotspots h ON h.gateway = r.gateway WHERE h.owner=?",
            (wallet,),
        ).fetchone()[0]
        return OwnerPage(
            owner=wallet,
            hotspot_count=len(fleet),
            hotspots=[(gateway, name) for gateway, name in fleet],
            hnt_balance=(
                units.bones_to_hnt(int(state[0])) if state is not None else 0.0
            ),
            dc_balance=int(state[1]) if state is not None else 0,
            total_rewards_hnt=units.bones_to_hnt(int(rewards)),
        )

    def hotspot_rows(self) -> List[Tuple[Address, str, Optional[str]]]:
        """``(gateway, name, location_token)`` in ledger insertion order."""
        return self.connection.execute(
            "SELECT gateway, name, location_token FROM hotspots ORDER BY rowid"
        ).fetchall()

    def hotspot_page_rows(
        self, limit: int = 50, offset: int = 0
    ) -> List[Tuple[Address, str, Optional[str]]]:
        """One clamped page of :meth:`hotspot_rows`, paged in SQL."""
        limit, offset = clamp_page(limit, offset)
        return self.connection.execute(
            "SELECT gateway, name, location_token FROM hotspots "
            "ORDER BY rowid LIMIT ? OFFSET ?",
            (limit, offset),
        ).fetchall()

    def hotspot_cursor_rows(
        self, after_rowid: int = 0, limit: int = 50
    ) -> List[Tuple[int, Address, str, Optional[str]]]:
        """Keyset page: ``(rowid, gateway, name, token)`` after a rowid.

        The serving tier's cursor pagination walks ``rowid`` (ledger
        insertion order, stable across incremental ingests because the
        ledger only appends) instead of ``OFFSET``, so a walk is O(page)
        per request at any depth and never skips or repeats a row that
        existed when the walk started. Fetches one row beyond ``limit``
        so the caller can tell whether a next page exists.
        """
        limit, _ = clamp_page(limit)
        return self.connection.execute(
            "SELECT rowid, gateway, name, location_token FROM hotspots "
            "WHERE rowid > ? ORDER BY rowid LIMIT ?",
            (int(after_rowid), limit + 1),
        ).fetchall()

    def gateway_by_name(self, name: str) -> Optional[Address]:
        """The gateway address for a three-word name (case-insensitive).

        Names are not unique; of hotspots sharing one, the first in
        ledger order (the lowest rowid) answers. Reads the live table,
        through ``idx_hs_name``, so a hotspot that an ingest added after
        the handle opened is still found.
        """
        row = self.connection.execute(
            "SELECT gateway FROM hotspots WHERE lower(name)=? "
            "ORDER BY rowid LIMIT 1",
            (name.lower(),),
        ).fetchone()
        return None if row is None else row[0]

    def search_names(
        self, query: str, limit: int = 10
    ) -> List[Tuple[Address, str]]:
        """Substring search over hotspot names, sorted by name (hotspots
        sharing a name in ledger order)."""
        limit, _ = clamp_page(limit)
        needle = query.lower()
        return self.connection.execute(
            "SELECT gateway, name FROM hotspots "
            "WHERE instr(lower(name), ?) > 0 ORDER BY name, rowid LIMIT ?",
            (needle, limit),
        ).fetchall()

    @property
    def hotspot_count(self) -> int:
        """Number of hotspots on the ledger (state table)."""
        return int(
            self.connection.execute("SELECT COUNT(*) FROM hotspots").fetchone()[0]
        )

    def coverage_dot_rows(self) -> List[Tuple[str, float, float, int]]:
        """``(token, lat, lon, hotspot_count)`` per occupied hex cell."""
        rows = self.connection.execute(
            "SELECT location_token, hotspot_count FROM coverage_dots "
            "ORDER BY location_token"
        ).fetchall()
        dots = []
        for token, count in rows:
            center = HexCell.from_token(token).center()
            dots.append((token, center.lat, center.lon, int(count)))
        return dots

    # -- analysis reads ------------------------------------------------------
    # Row readers yield in chain order, (height, seq, …), so an analysis
    # folds them exactly as a walk over the chain's blocks would.

    def transaction_counts(self) -> Dict[str, int]:
        """Transactions per kind over the whole chain."""
        rows = self.connection.execute(
            "SELECT kind, COUNT(*) FROM transactions GROUP BY kind"
        ).fetchall()
        return {kind: int(count) for kind, count in rows}

    def transaction_heights(self, kind: str) -> List[int]:
        """The height of every transaction of ``kind``, in chain order."""
        rows = self.connection.execute(
            "SELECT height FROM transactions WHERE kind=? ORDER BY height, seq",
            (kind,),
        ).fetchall()
        return [int(r[0]) for r in rows]

    def _payloads(self, kind: str) -> Iterator[Tuple[int, int, Dict[str, Any]]]:
        """``(height, seq, decoded payload)`` per transaction of ``kind``."""
        cursor = self.connection.execute(
            "SELECT height, seq, payload FROM transactions WHERE kind=? "
            "ORDER BY height, seq",
            (kind,),
        )
        for height, seq, payload in cursor:
            yield int(height), int(seq), json.loads(payload)

    def assert_rows(self) -> Iterator[Tuple[int, int, Address, str, int]]:
        """``(height, seq, gateway, location_token, nonce)`` per assert."""
        for height, seq, txn in self._payloads("assert_location"):
            yield height, seq, txn["gateway"], txn["location_token"], txn["nonce"]

    def channel_ouis(self) -> List[int]:
        """The OUI of every state-channel open, then of every close."""
        return [
            txn["oui"]
            for kind in ("state_channel_open", "state_channel_close")
            for _, _, txn in self._payloads(kind)
        ]

    def channel_close_rows(self) -> Iterator[Tuple[int, int, int]]:
        """``(height, oui, packets)`` per state-channel close, packets
        summed over its summaries (0 for a close without any)."""
        for height, _, txn in self._payloads("state_channel_close"):
            yield height, txn["oui"], sum(
                summary["num_packets"] for summary in txn["summaries"]
            )

    def owner_counts(self) -> Dict[Address, int]:
        """Hotspots per owner, owners in order of their first hotspot."""
        rows = self.connection.execute(
            "SELECT owner, COUNT(*) FROM hotspots GROUP BY owner "
            "ORDER BY MIN(rowid)"
        ).fetchall()
        return {owner: int(count) for owner, count in rows}

    def fleet_rows(self, owner: Address) -> List[Tuple[Address, Optional[str]]]:
        """``(gateway, location_token)`` of one owner's hotspots."""
        return self.connection.execute(
            "SELECT gateway, location_token FROM hotspots WHERE owner=? "
            "ORDER BY rowid",
            (owner,),
        ).fetchall()

    def wallet_hnt_bones(self) -> Dict[Address, int]:
        """Current HNT balance of every wallet, in bones."""
        rows = self.connection.execute(
            "SELECT address, hnt_bones FROM wallets"
        ).fetchall()
        return {address: int(bones) for address, bones in rows}

    def packets_by_owner(self) -> Dict[Address, int]:
        """Packets ferried per current owner, over every state-channel
        summary of the owner's hotspots."""
        rows = self.connection.execute(
            "SELECT h.owner, SUM(p.num_packets) FROM packet_summaries p "
            "JOIN hotspots h ON h.gateway = p.hotspot GROUP BY h.owner"
        ).fetchall()
        return {owner: int(packets) for owner, packets in rows}

    def _window(
        self, start_height: int, end_height: Optional[int]
    ) -> Tuple[str, Tuple[int, ...]]:
        if end_height is None:
            return "height >= ?", (start_height,)
        return "height >= ? AND height <= ?", (start_height, end_height)

    def witness_distances(
        self,
        start_height: int = 0,
        end_height: Optional[int] = None,
    ) -> List[float]:
        """Distances of valid, non-null-island witness reports (km)."""
        where, params = self._window(start_height, end_height)
        rows = self.connection.execute(
            "SELECT distance_km FROM witnesses "
            f"WHERE is_valid=1 AND null_island=0 AND {where} "
            "ORDER BY height, seq, witness_seq",
            params,
        ).fetchall()
        return [float(r[0]) for r in rows]

    def witness_rssis(
        self,
        start_height: int = 0,
        end_height: Optional[int] = None,
        valid_only: bool = True,
    ) -> List[float]:
        """RSSI values of witness reports over a block window."""
        where, params = self._window(start_height, end_height)
        valid = "is_valid=1 AND " if valid_only else ""
        rows = self.connection.execute(
            f"SELECT rssi_dbm FROM witnesses WHERE {valid}{where} "
            "ORDER BY height, seq, witness_seq",
            params,
        ).fetchall()
        return [float(r[0]) for r in rows]

    def receipt_valid_witness_counts(self) -> List[int]:
        """Valid-witness count per challenge, including zero-witness ones."""
        rows = self.connection.execute(
            "SELECT valid_witness_count FROM poc_receipts ORDER BY height, seq"
        ).fetchall()
        return [int(r[0]) for r in rows]

    def witness_validity_breakdown(self) -> Dict[str, int]:
        """Witness report counts by validity outcome/reason."""
        breakdown: Dict[str, int] = {"valid": 0}
        rows = self.connection.execute(
            "SELECT is_valid, "
            "CASE WHEN invalid_reason IS NULL OR invalid_reason = '' "
            "THEN 'unspecified' ELSE invalid_reason END, COUNT(*) "
            "FROM witnesses GROUP BY is_valid, invalid_reason"
        ).fetchall()
        for valid, reason, count in rows:
            if valid:
                breakdown["valid"] += int(count)
            else:
                breakdown[reason] = breakdown.get(reason, 0) + int(count)
        return breakdown

    def witness_report_rows(self) -> Iterator[Tuple[str, str, float, float]]:
        """``(challengee_location_token, witness_location_token, rssi_dbm,
        frequency_mhz)`` per witness report, valid or not."""
        cursor = self.connection.execute(
            "SELECT challengee_location, witness_location, rssi_dbm, "
            "frequency_mhz FROM witnesses ORDER BY height, seq, witness_seq"
        )
        for challengee, witness, rssi, frequency in cursor:
            yield challengee, witness, float(rssi), float(frequency)

    def valid_witness_rows(self) -> Iterator[Tuple[int, int, Address, str]]:
        """``(height, seq, witness, challengee_location_token)`` per valid
        witness report."""
        cursor = self.connection.execute(
            "SELECT height, seq, witness, challengee_location FROM witnesses "
            "WHERE is_valid=1 ORDER BY height, seq, witness_seq"
        )
        for height, seq, witness, token in cursor:
            yield int(height), int(seq), witness, token

    def valid_witness_receipts(
        self,
    ) -> Iterator[Tuple[str, List[Tuple[str, float]]]]:
        """``(challengee_location_token, [(witness_location_token,
        rssi_dbm), …])`` per PoC receipt, its valid reports only (a
        receipt without any yields an empty list)."""
        cursor = self.connection.execute(
            "SELECT r.height, r.seq, r.challengee_location_token, "
            "w.witness_location, w.rssi_dbm FROM poc_receipts r "
            "LEFT JOIN witnesses w ON w.height = r.height AND w.seq = r.seq "
            "AND w.is_valid = 1 ORDER BY r.height, r.seq, w.witness_seq"
        )
        key = None
        token = None
        reports: List[Tuple[str, float]] = []
        for height, seq, challengee, witness, rssi in cursor:
            if (height, seq) != key:
                if key is not None:
                    yield token, reports
                key, token, reports = (height, seq), challengee, []
            if witness is not None:
                reports.append((witness, float(rssi)))
        if key is not None:
            yield token, reports

    def rssi_anomaly_rows(
        self, bound_dbm: float
    ) -> List[Tuple[Address, float, Address, bool]]:
        """``(witness, rssi_dbm, challengee, is_valid)`` per witness report
        claiming more than ``bound_dbm``."""
        rows = self.connection.execute(
            "SELECT witness, rssi_dbm, challengee, is_valid FROM witnesses "
            "WHERE rssi_dbm > ? ORDER BY height, seq, witness_seq",
            (bound_dbm,),
        ).fetchall()
        return [
            (witness, float(rssi), challengee, bool(valid))
            for witness, rssi, challengee, valid in rows
        ]

    def witness_counts_among(
        self, members: Collection[Address]
    ) -> Tuple[int, int]:
        """``(reports, valid reports)`` where both the challengee and the
        witness are in ``members``."""
        members = sorted(members)
        if not members:
            return 0, 0
        marks = ",".join("?" * len(members))
        total, valid = self.connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(is_valid), 0) FROM witnesses "
            f"WHERE challengee IN ({marks}) AND witness IN ({marks})",
            (*members, *members),
        ).fetchone()
        return int(total), int(valid)

    def reward_share_rows(
        self,
    ) -> Iterator[Tuple[int, Address, Optional[Address], int, str]]:
        """``(height, account, gateway, amount_bones, reward_type)`` in chain order."""
        cursor = self.connection.execute(
            "SELECT height, account, gateway, amount_bones, reward_type "
            "FROM rewards ORDER BY height, seq, share_seq"
        )
        for height, account, gateway, amount, reward_type in cursor:
            yield int(height), account, gateway, int(amount), reward_type

    def rewards_by_gateway(self) -> Dict[Address, int]:
        """Lifetime reward bones per gateway."""
        rows = self.connection.execute(
            "SELECT gateway, total_bones FROM hotspot_rewards"
        ).fetchall()
        return {gateway: int(total) for gateway, total in rows}

    def rewards_by_type(self) -> Dict[str, int]:
        """Total reward bones per reward class."""
        rows = self.connection.execute(
            "SELECT reward_type, SUM(amount_bones) FROM rewards "
            "GROUP BY reward_type"
        ).fetchall()
        return {reward_type: int(total) for reward_type, total in rows}

    def rewarded_gateways(self, reward_types: Collection[str]) -> Set[Address]:
        """Gateways that earned at least one share of ``reward_types``."""
        types = sorted(reward_types)
        marks = ",".join("?" * len(types))
        rows = self.connection.execute(
            "SELECT DISTINCT gateway FROM rewards "
            f"WHERE gateway IS NOT NULL AND reward_type IN ({marks})",
            types,
        ).fetchall()
        return {r[0] for r in rows}

    def gateway_added_blocks(self) -> Dict[Address, int]:
        """Block at which each hotspot was added (ledger insertion order)."""
        rows = self.connection.execute(
            "SELECT gateway, added_block FROM hotspots ORDER BY rowid"
        ).fetchall()
        return {gateway: int(block) for gateway, block in rows}

    def transfer_rows(
        self,
    ) -> Iterator[Tuple[int, Address, Address, Address, int]]:
        """``(height, gateway, seller, buyer, amount_dc)`` in chain order."""
        cursor = self.connection.execute(
            "SELECT height, gateway, seller, buyer, amount_dc "
            "FROM transfers ORDER BY height, seq"
        )
        for height, gateway, seller, buyer, amount_dc in cursor:
            yield int(height), gateway, seller, buyer, int(amount_dc)


class ReadReplicas:
    """A free list of read-only :class:`EtlStore` handles over one file.

    The connection pool the HTTP tier leases from: :meth:`lease` hands
    out the most recently returned ``mode=ro`` connection onto the WAL
    database and opens a new one only when none is free, so the pool
    holds as many handles as requests were ever in flight at once. A
    lease is exclusive (no two requests share a handle) and takes no
    lock, while the ingest writer commits concurrently.

    >>> replicas = ReadReplicas("/tmp/etl.db")         # doctest: +SKIP
    >>> with replicas.lease() as store:               # doctest: +SKIP
    ...     with store.read_snapshot():
    ...         store.checkpoint_height
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._opened: List[EtlStore] = []
        self._free: List[EtlStore] = []
        # Fail fast (missing file, wrong schema) before any request.
        EtlStore(self.path, create=False, read_only=True).close()

    @property
    def open_count(self) -> int:
        """Handles opened so far and not yet closed."""
        return len(self._opened)

    @contextmanager
    def lease(self) -> Iterator[EtlStore]:
        """One handle, exclusively the caller's for the block.

        Return it with no read transaction open (end any
        :meth:`EtlStore.read_snapshot` inside the block), or its next
        lease reads a stale snapshot.
        """
        # list.pop and list.append are atomic: the request path takes
        # no lock; opening a handle does.
        try:
            store = self._free.pop()
        except IndexError:
            store = EtlStore(self.path, create=False, read_only=True)
            with self._lock:
                self._opened.append(store)
        try:
            yield store
        finally:
            self._free.append(store)

    def close_all(self) -> None:
        """Close every handle opened so far (server shutdown)."""
        with self._lock:
            stores, self._opened, self._free = self._opened, [], []
        for store in stores:
            try:
                store.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
