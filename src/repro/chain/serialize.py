"""Chain serialization: JSONL dump and load, framed chain-log files.

The paper's methodology notes that "anyone can download and parse the
blockchain" (§3); the DeWi database is an ETL of exactly such dumps. This
module provides the equivalent for the simulated chain: a line-per-block
JSON format that round-trips every transaction type, so analyses can run
against dumped chains without re-simulating (and external tools can
consume them).

Persisted chains — day-level checkpoints and scenario-cache entries —
use the framed :mod:`repro.chain.chainlog` layout instead, whose frame
payloads are exactly those JSONL lines. :func:`write_chain_log` writes
one and returns its extent record for the caller's ``meta.json``.
Reading one back takes two steps, so a caller can check a file long
before it needs the chain: :func:`open_chain_log` verifies the file
against that meta and indexes its frames without decoding any, and
:func:`replay_chain_log` decodes them into a log-backed chain.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro import units
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.chain.chainlog import (
    CHAINLOG_MAGIC,
    ChainLog,
    scan_frames,
    seed_digest,
    split_frame,
)
from repro.chain.transactions import (
    AddGateway,
    AssertLocation,
    OuiRegistration,
    Payment,
    PocReceipts,
    PocRequest,
    Rewards,
    RewardShare,
    RewardType,
    StateChannelClose,
    StateChannelOpen,
    StateChannelSummary,
    TokenBurn,
    Transaction,
    TransferHotspot,
    WitnessReport,
)
from repro.chain.varmap import ChainVars
from repro.digest import Sha256, sha256
from repro.errors import ChainError

__all__ = [
    "block_from_record",
    "block_record_text",
    "chain_log_extent",
    "dump_chain",
    "load_chain",
    "open_chain_log",
    "replay_chain_log",
    "transaction_to_dict",
    "transaction_from_dict",
    "write_chain_log",
]

_TXN_TYPES: Dict[str, Type[Transaction]] = {
    "add_gateway": AddGateway,
    "assert_location": AssertLocation,
    "transfer_hotspot": TransferHotspot,
    "poc_request": PocRequest,
    "poc_receipts": PocReceipts,
    "state_channel_open": StateChannelOpen,
    "state_channel_close": StateChannelClose,
    "payment": Payment,
    "token_burn": TokenBurn,
    "oui": OuiRegistration,
    "rewards": Rewards,
}


_FIELD_NAMES: Dict[type, tuple] = {}


def transaction_to_dict(txn: Transaction) -> Dict[str, Any]:
    """Serialise one transaction to a JSON-compatible dict."""
    payload = _dataclass_out(txn)
    payload["type"] = txn.kind
    return payload


def _dataclass_out(obj: Any) -> Dict[str, Any]:
    # Hand-rolled ``dataclasses.asdict`` (same field order, same nested
    # conversion) minus its deep-copy machinery: chain dumps are hot —
    # they run inside every day-level checkpoint save.
    names = _FIELD_NAMES.get(type(obj))
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(obj))
        _FIELD_NAMES[type(obj)] = names
    return {name: _convert_out(getattr(obj, name)) for name in names}


def _convert_out(value: Any) -> Any:
    if isinstance(value, RewardType):
        return value.value
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _convert_out(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_convert_out(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _dataclass_out(value)
    return value


def transaction_from_dict(payload: Dict[str, Any]) -> Transaction:
    """Reconstruct a transaction from :func:`transaction_to_dict` output.

    Raises:
        ChainError: for unknown or malformed payloads.
    """
    kind = payload.get("type")
    txn_type = _TXN_TYPES.get(kind)  # type: ignore[arg-type]
    if txn_type is None:
        raise ChainError(f"unknown transaction type in dump: {kind!r}")
    fields = {k: v for k, v in payload.items() if k != "type"}
    try:
        if txn_type is PocReceipts:
            fields["witnesses"] = tuple(
                WitnessReport(**w) for w in fields.get("witnesses", [])
            )
        elif txn_type in (StateChannelClose,):
            fields["summaries"] = tuple(
                StateChannelSummary(**s) for s in fields.get("summaries", [])
            )
        elif txn_type is Rewards:
            fields["shares"] = tuple(
                RewardShare(
                    account=s["account"],
                    gateway=s.get("gateway"),
                    amount_bones=s["amount_bones"],
                    reward_type=RewardType(s["reward_type"]),
                )
                for s in fields.get("shares", [])
            )
        return txn_type(**fields)
    except (TypeError, KeyError, ValueError) as exc:
        raise ChainError(f"malformed {kind} payload: {exc}") from exc


def block_record_text(block: Block) -> str:
    """One block's exact dump line (compact JSON + newline).

    This is the canonical byte representation everywhere: JSONL dumps
    concatenate these lines, and :mod:`repro.chain.chainlog` frames
    store exactly these bytes as payloads — which is why a log-backed
    chain dumps byte-identically to a resident one.
    """
    record = {
        "height": block.height,
        "time": block.unix_time,
        "prev_hash": block.prev_hash,
        "transactions": [
            transaction_to_dict(t) for t in block.transactions
        ],
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def block_from_record(record: Dict[str, Any]) -> Block:
    """Reconstruct a trusted block view from one dump record.

    The parent hash is taken from the record (the chain that wrote it
    already linked it); the block's own hash recomputes lazily to the
    identical value, since transactions round-trip ``repr``-exactly.
    """
    try:
        height = int(record["height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainError(f"malformed block record: {record!r}") from exc
    return Block(
        height=height,
        unix_time=int(record.get("time", units.block_to_unix_time(height))),
        prev_hash=record.get("prev_hash", ""),
        transactions=tuple(
            transaction_from_dict(p) for p in record.get("transactions", [])
        ),
    )


def dump_chain(
    chain: Blockchain,
    destination: Union[str, Path, IO[str]],
    start: int = 0,
) -> int:
    """Write the chain as JSONL (one block per line). Returns line count.

    The genesis block is included so a load reproduces heights exactly.
    ``start`` skips the first ``start`` materialised blocks — the chain
    is append-only, so incremental writers (day-level checkpoints) reuse
    the bytes they already wrote for that prefix and pass a handle
    opened in append mode for the rest.

    Spilled blocks (chain-log residency) are copied byte-for-byte from
    their frames without materialising the objects.
    """
    def _write(handle: IO[str]) -> int:
        lines = 0
        for text in chain.blocks.iter_record_texts(start):
            handle.write(text)
            lines += 1
        return lines

    if hasattr(destination, "write"):
        return _write(destination)  # type: ignore[arg-type]
    with open(destination, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
        return _write(handle)


def _iter_records(source: Union[str, Path, IO[str]]) -> Iterator[Dict[str, Any]]:
    if hasattr(source, "read"):
        for line in source:  # type: ignore[union-attr]
            if line.strip():
                yield json.loads(line)
        return
    with open(source, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
        for line in handle:
            if line.strip():
                yield json.loads(line)


def load_chain(
    source: Union[str, Path, IO[str]],
    vars: ChainVars = ChainVars(),
) -> Blockchain:
    """Rebuild a chain from a JSONL dump, replaying every transaction.

    Every block goes through the normal mint path, which recomputes
    each parent hash and re-validates everything, so a tampered dump
    fails loudly rather than producing silent corruption.

    Raises:
        ChainError: on malformed records, height disorder, or any
            transaction that no longer validates.
    """
    chain = Blockchain(vars)
    for record in _iter_records(source):
        try:
            height = int(record["height"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ChainError(f"malformed block record: {record!r}") from exc
        if height == 0:
            continue  # genesis is implicit
        txns = [transaction_from_dict(p) for p in record.get("transactions", [])]
        # Replay any DC/HNT credits implicitly: dumps produced by the
        # simulation engine already embed funding via burns/rewards, but
        # fee-bearing transactions need their payers solvent. We credit
        # exactly the fees/stakes required, which preserves burn totals.
        for txn in txns:
            _prefund(chain, txn)
        chain.submit_many(txns)
        chain.mint_block(height)
    return chain


def chain_log_extent(meta: Mapping[str, Any]) -> Tuple[int, int, str]:
    """The ``(blocks, bytes, sha256)`` extent that a
    :func:`write_chain_log` record merged into ``meta`` describes.

    Raises:
        ChainError: when the record is missing or mistyped.
    """
    blocks = meta.get("chain_blocks")
    size = meta.get("chain_bytes")
    sha256 = meta.get("chain_sha256")
    if not (
        isinstance(blocks, int)
        and isinstance(size, int)
        and isinstance(sha256, str)
    ):
        raise ChainError("chain log extent is not recorded")
    return blocks, size, sha256


def write_chain_log(
    chain: Blockchain,
    handle: IO[bytes],
    sha: Sha256,
    after: Optional[Tuple[Mapping[str, Any], bytes]] = None,
) -> Tuple[Dict[str, Any], bytes]:
    """Write ``chain`` as framed chain-log bytes.

    Without ``after`` the file magic goes first. ``after=(meta, tail)``
    continues an existing log (``handle`` open for update on it) whose
    recorded extent is ``meta``'s, whose digest-chain state after its
    last frame is ``tail`` and whose bytes ``sha`` has already hashed:
    anything past that extent (a killed append) is truncated first.
    Spilled blocks are raw frame copies from the chain's own log. Every
    byte written also updates ``sha``.

    Returns ``(record, tail)``: ``record`` is the ``chain_blocks``,
    ``chain_bytes`` and ``chain_sha256`` entry a caller merges into its
    ``meta.json`` for :func:`open_chain_log`, and ``tail`` is the
    digest-chain state after the last frame.
    """
    if after is None:
        handle.write(CHAINLOG_MAGIC)
        sha.update(CHAINLOG_MAGIC)
        start, size, tail = 0, len(CHAINLOG_MAGIC), seed_digest()
    else:
        start, size, _ = chain_log_extent(after[0])
        tail = after[1]
        handle.seek(size)
        handle.truncate()
    for frame, digest in chain.blocks.iter_frames(start, tail):
        handle.write(frame)
        sha.update(frame)
        size += len(frame)
        tail = digest
    record = {
        "chain_blocks": len(chain.blocks),
        "chain_bytes": size,
        "chain_sha256": sha.hexdigest(),
    }
    return record, tail


def open_chain_log(
    path: Union[str, Path], meta: Mapping[str, Any]
) -> Tuple[ChainLog, Sha256]:
    """Verify a :func:`write_chain_log` file and index its frames,
    decoding none of them.

    ``meta`` holds the writer's extent record: the scan reads exactly
    ``chain_bytes`` bytes (a hardlinked checkpoint file may have grown
    past them), verifies every frame's digest link and the SHA-256 of
    those bytes, and requires exactly ``chain_blocks`` frames whose
    heights start at genesis and increase, so a torn, truncated or
    flipped file fails here instead of loading a shorter chain.

    Returns a read-only :class:`ChainLog` over the file and the hash of
    the bytes read. The log keeps the descriptor the scan read through,
    so :func:`replay_chain_log` later decodes exactly the verified
    bytes, however long after.

    Raises:
        ChainError: on a missing extent or any integrity failure.
        OSError: when the file cannot be opened.
    """
    blocks, size, recorded = chain_log_extent(meta)
    fd = os.open(path, os.O_RDONLY)
    log = ChainLog.reader(fd)
    try:
        sha = sha256(CHAINLOG_MAGIC)
        last = -1
        with open(fd, "rb", closefd=False) as handle:
            for frame, height, _, digest in scan_frames(
                handle, limit_bytes=size
            ):
                if last < 0 and height != 0:
                    raise ChainError(
                        f"first chain frame is height {height}, not genesis"
                    )
                if height <= last:
                    raise ChainError(f"chain height goes {last} -> {height}")
                sha.update(frame)
                log.index_frame(len(frame), digest)
                last = height
        if log.size != size or sha.hexdigest() != recorded:
            raise ChainError(
                f"chain log digest mismatch ({sha.hexdigest()[:12]}… != "
                f"recorded {recorded[:12]}…)"
            )
        if len(log) != blocks:
            raise ChainError(
                f"chain log has {len(log)} blocks, meta records {blocks}"
            )
    except BaseException:
        log.close()
        raise
    return log, sha


def replay_chain_log(
    source: ChainLog, vars: ChainVars = ChainVars(), copy: bool = False
) -> Blockchain:
    """The chain an :func:`open_chain_log` log holds, log-backed with
    only its tip resident.

    Each frame is read once through ``source``'s descriptor and its
    block's transactions replay through the ledger (parent hashes are
    the recorded ones); nothing is hashed again. The chain's blocks
    stay in ``source`` — a finished run never appends — unless
    ``copy``: then each frame is also byte-copied into a new anonymous
    :class:`ChainLog` that the chain can grow (a resumed run), and
    ``source`` is closed.

    Raises:
        ChainError: on a malformed block.
    """
    chain = Blockchain(vars)
    log = ChainLog() if copy else source
    try:
        for position in range(len(source)):
            frame = source.frame_bytes(position)
            height, payload, digest = split_frame(frame)
            if copy:
                log.append_frame(frame, digest)
            if position == 0:
                # Genesis is already in place (Blockchain() makes it).
                chain.attach_log(log)
                chain.evict_finalized(keep_tail=0)
                continue
            block = block_from_record(json.loads(payload))
            for txn in block.transactions:
                _prefund(chain, txn)
            for txn in block.transactions:
                chain.ledger.apply(txn, height)
            chain._append_spilled(height)
        if len(source):
            # Pin the tip: the next mint seeds prev_hash from it.
            chain.blocks.keep_resident(len(source) - 1)
    except BaseException:
        if copy:
            log.close()
        raise
    finally:
        if copy:
            source.close()
    return chain


def _prefund(chain: Blockchain, txn: Transaction) -> None:
    """Credit the DC a transaction is about to spend (dump replay aid)."""
    ledger = chain.ledger
    if isinstance(txn, AssertLocation) and txn.fee_dc:
        ledger.credit_dc(txn.payer or txn.owner, txn.fee_dc)
    elif isinstance(txn, AddGateway) and txn.fee_dc:
        ledger.credit_dc(txn.payer or txn.owner, txn.fee_dc)
    elif isinstance(txn, OuiRegistration) and txn.fee_dc:
        ledger.credit_dc(txn.owner, txn.fee_dc)
    elif isinstance(txn, StateChannelOpen):
        ledger.credit_dc(txn.owner, txn.amount_dc)
    elif isinstance(txn, TransferHotspot) and txn.amount_dc:
        ledger.credit_dc(txn.buyer, txn.amount_dc)
