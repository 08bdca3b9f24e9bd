"""The blockchain: an append-only chain of blocks over a validating ledger.

"Most of our analysis stems from an examination of the history of all
transactions on the blockchain" (§3). The analyses read that history
from the chain's ETL replica (:mod:`repro.etl`), which ingests the dump
records :meth:`BlockSequence.iter_record_texts` yields.

The chain is stored **sparsely**: the real network mints a block every
~60 s whether or not anyone transacted, but empty blocks carry no
information, so we only materialise blocks at heights that have
transactions. Height still advances on the nominal 60 s clock
(:func:`repro.units.block_to_unix_time`).

Residency is a second, orthogonal axis: ``chain.blocks`` is a
:class:`BlockSequence` whose finalized prefix may be **spilled** to an
append-to-disk :class:`~repro.chain.chainlog.ChainLog` (frame *i* holds
block position *i*'s exact dump bytes). Spilled blocks materialise
lazily as view objects on access, through a small LRU, so readers see
the same ``Block`` values whether or not the object graph is resident —
only the peak RSS differs. A chain loaded from a framed log file
(checkpoint resume, warm scenario-cache load) is log-backed from the
start: only its tip is resident.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro import units
from repro.chain.block import Block
from repro.chain.chainlog import BLOCK_CACHE_SLOTS, ChainLog, encode_frame
from repro.chain.ledger import Ledger
from repro.chain.transactions import Transaction
from repro.chain.varmap import ChainVars, DEFAULT_VARS
from repro.errors import ChainError

__all__ = ["BlockSequence", "Blockchain"]

T = TypeVar("T", bound=Transaction)


class BlockSequence:
    """List-like block store whose finalized prefix can live on disk.

    Positions ``[0, spilled)`` have a frame in the attached
    :class:`ChainLog`; their slots may be ``None`` (evicted) and
    materialise on access. Positions at and past ``spilled`` are always
    resident. Without an attached log every slot is resident and this
    behaves exactly like the old ``List[Block]``.
    """

    __slots__ = ("_slots", "_log", "_spilled", "_evicted_to", "_cache")

    def __init__(self) -> None:
        self._slots: List[Optional[Block]] = []
        self._log: Optional[ChainLog] = None
        #: Frames present in the log == positions [0, _spilled).
        self._spilled = 0
        #: Positions below this are all evicted (slot is None).
        self._evicted_to = 0
        self._cache: "OrderedDict[int, Block]" = OrderedDict()

    # -- list surface ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def append(self, block: Block) -> None:
        self._slots.append(block)

    def __iter__(self) -> Iterator[Block]:
        for position in range(len(self._slots)):
            yield self[position]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._slots)))]
        if index < 0:
            index += len(self._slots)
            if index < 0:
                raise IndexError("block index out of range")
        block = self._slots[index]
        if block is None:
            block = self._materialize(index)
        return block

    # -- log plumbing ------------------------------------------------------

    @property
    def log(self) -> Optional[ChainLog]:
        return self._log

    def attach_log(self, log: ChainLog) -> None:
        """Attach the append-to-disk log evictions spill into.

        The log must describe this sequence's prefix: empty for a fresh
        attach, or holding a frame for each existing position. A
        framed-log load attaches a log that holds more frames and then
        registers the rest, one :meth:`append_spilled` each.
        """
        if self._log is not None and self._log is not log:
            raise ChainError("chain already has a different log attached")
        if 0 < len(log) < len(self._slots):
            raise ChainError(
                f"log holds {len(log)} frames for {len(self._slots)} blocks"
            )
        self._log = log
        self._spilled = min(len(log), len(self._slots))

    def evict_finalized(self, keep_tail: int = 1) -> int:
        """Spill finalized blocks to the log and drop their objects.

        Keeps the last ``keep_tail`` blocks resident (the tip's hash
        seeds the next mint). Returns the number of slots evicted. A
        no-op without an attached log.
        """
        if self._log is None:
            return 0
        # Import here: serialize imports this module at load time.
        from repro.chain.serialize import block_record_text

        limit = max(len(self._slots) - keep_tail, 0)
        evicted = 0
        for position in range(self._evicted_to, limit):
            block = self._slots[position]
            if position >= self._spilled:
                self._log.append(
                    block.height,
                    block_record_text(block).encode("utf-8"),
                )
                self._spilled = position + 1
            if block is not None:
                self._slots[position] = None
                evicted += 1
        self._evicted_to = max(self._evicted_to, limit)
        return evicted

    def append_spilled(self) -> None:
        """Register the next position, whose frame is already in the
        log (framed-log load)."""
        if self._log is None or len(self._log) <= len(self._slots):
            raise ChainError("append_spilled needs the frame in the log")
        self._slots.append(None)
        self._spilled = len(self._slots)
        self._evicted_to = self._spilled

    def keep_resident(self, position: int) -> Block:
        """Materialise ``position`` and pin it back into its slot (used
        for the tip after a streaming load)."""
        block = self[position]
        self._slots[position] = block
        # Let the next eviction sweep drop it again once it is no
        # longer the tip.
        self._evicted_to = min(self._evicted_to, position)
        return block

    def _materialize(self, position: int) -> Block:
        cached = self._cache.get(position)
        if cached is not None:
            self._cache.move_to_end(position)
            return cached
        if self._log is None or position >= self._spilled:
            raise ChainError(f"block at position {position} unavailable")
        from repro.chain.serialize import block_from_record

        block = block_from_record(
            json.loads(self._log.payload(position))
        )
        self._cache[position] = block
        if len(self._cache) > BLOCK_CACHE_SLOTS:
            self._cache.popitem(last=False)
        return block

    # -- serialization support --------------------------------------------

    def iter_record_texts(self, start: int = 0) -> Iterator[str]:
        """Yield each block's exact JSONL dump line (with newline) from
        position ``start`` — spilled positions as a straight byte copy,
        resident ones serialized; the concatenation is byte-identical
        either way."""
        from repro.chain.serialize import block_record_text

        for position in range(start, len(self._slots)):
            if position < self._spilled and self._slots[position] is None:
                yield self._log.payload(position).decode("utf-8")
            else:
                yield block_record_text(self[position])

    def iter_frames(
        self, start: int, tail_digest: bytes
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(frame_bytes, digest8)`` per block from position
        ``start``, continuing the digest chain from ``tail_digest``
        (which must be the chain state after frame ``start - 1``).
        Spilled positions are raw copies from the log; resident ones
        are encoded fresh — the chaining is deterministic, so both
        produce identical bytes."""
        from repro.chain.serialize import block_record_text

        for position in range(start, len(self._slots)):
            if position < self._spilled:
                frame = self._log.frame_bytes(position)
                digest = frame[12:20]
            else:
                frame, digest = encode_frame(
                    self._slots[position].height,
                    block_record_text(self._slots[position]).encode("utf-8"),
                    tail_digest,
                )
            tail_digest = digest
            yield frame, digest


class Blockchain:
    """Sparse block store plus its folded ledger state.

    Callers stage transactions with :meth:`submit` and commit them with
    :meth:`mint_block`, optionally naming the nominal height at which the
    block lands. Heights must be strictly increasing.
    """

    def __init__(self, vars: ChainVars = DEFAULT_VARS) -> None:
        self.vars = vars
        self.ledger = Ledger(vars)
        self.blocks = BlockSequence()
        self.blocks.append(Block.genesis())
        self._pending: List[Transaction] = []
        #: Height of the block at each position, ascending (positions
        #: are stable: the chain is append-only), for bisecting.
        self._heights = array("Q", [0])

    # -- chain growth ------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the latest materialised block."""
        return self._heights[-1]

    @property
    def tip(self) -> Block:
        """The latest materialised block."""
        return self.blocks[-1]

    def submit(self, txn: Transaction) -> None:
        """Stage a transaction for the next minted block.

        Validation happens at mint time, in order, against the ledger.
        """
        self._pending.append(txn)

    def submit_many(self, txns: Sequence[Transaction]) -> None:
        """Stage several transactions preserving their order."""
        self._pending.extend(txns)

    @property
    def pending_count(self) -> int:
        """Number of staged, not yet minted, transactions."""
        return len(self._pending)

    def mint_block(self, height: Optional[int] = None) -> Block:
        """Commit pending transactions into a block.

        Args:
            height: nominal height of the new block; defaults to the next
                height. Must exceed the current tip height.

        Raises:
            ChainError: on a non-increasing height.
            TransactionError: if a staged transaction is invalid; the
                mint aborts with the invalid transaction still staged so
                tests can inspect it. Transactions staged before it will
                already have been applied — callers that mix valid and
                deliberately-invalid transactions should mint them in
                separate blocks.
        """
        target = self.height + 1 if height is None else height
        if target <= self.height:
            raise ChainError(
                f"block height must increase: tip={self.height}, asked={target}"
            )
        applied: List[Transaction] = []
        for txn in self._pending:
            self.ledger.apply(txn, target)  # raises on invalid input
            applied.append(txn)
        block = Block(
            height=target,
            unix_time=units.block_to_unix_time(target),
            prev_hash=self.tip.hash,
            transactions=tuple(applied),
        )
        self._heights.append(block.height)
        self.blocks.append(block)
        self._pending = []
        return block

    def _append_spilled(self, height: int) -> None:
        """Register a new tip whose frame is already in the attached
        log (a framed-log load)."""
        self._heights.append(height)
        self.blocks.append_spilled()

    def drop_pending(self) -> List[Transaction]:
        """Discard and return staged transactions (test/debug helper)."""
        pending, self._pending = self._pending, []
        return pending

    # -- residency ---------------------------------------------------------

    @property
    def chain_log(self) -> Optional["ChainLog"]:
        """The attached append-to-disk log, if any."""
        return self.blocks.log

    def attach_log(self, log: ChainLog) -> None:
        """Attach an append-to-disk log; finalized blocks spill into it
        on :meth:`evict_finalized` and materialise lazily on access."""
        self.blocks.attach_log(log)

    def evict_finalized(self, keep_tail: int = 1) -> int:
        """Spill finalized blocks to the attached log (no-op without
        one); the chain's observable values are unchanged."""
        return self.blocks.evict_finalized(keep_tail)

    # -- queries -----------------------------------------------------------

    def block_at(self, height: int) -> Block:
        """The materialised block at exactly ``height``."""
        return self.blocks[self.position_of(height)]

    def position_of(self, height: int) -> int:
        """The position of the block at exactly ``height``.

        Raises:
            ChainError: when no block sits at that height.
        """
        heights = self._heights
        position = bisect_left(heights, height)
        if position == len(heights) or heights[position] != height:
            raise ChainError(f"no block at height {height} (tip={self.height})")
        return position

    def iter_transactions(
        self,
        kind: Union[Type[T], Tuple[type, ...], None] = None,
        start_height: int = 0,
        end_height: Optional[int] = None,
        predicate: Optional[Callable[[Transaction], bool]] = None,
    ) -> Iterator[Tuple[int, Transaction]]:
        """Yield ``(height, txn)`` pairs in chain order, filtered.

        A plain scan over :attr:`blocks`: every block in the window is
        visited (and a spilled one decoded). Analyses read the ETL
        replica instead.

        Args:
            kind: restrict to instances of one transaction class or a
                tuple of them (``isinstance`` semantics); ``None`` means
                every transaction.
            start_height: inclusive lower bound.
            end_height: inclusive upper bound (default: the tip).
            predicate: extra filter applied after the kind filter.
        """
        kinds = Transaction if kind is None else kind
        stop = self.height if end_height is None else end_height
        low = bisect_left(self._heights, start_height)
        high = bisect_right(self._heights, stop)
        for position in range(low, high):
            block = self.blocks[position]
            for txn in block.transactions:
                if isinstance(txn, kinds) and (
                    predicate is None or predicate(txn)
                ):
                    yield block.height, txn

    def count_transactions(self) -> Dict[str, int]:
        """Total applied transactions by kind (from the ledger's tally)."""
        return dict(self.ledger.txn_counts)

    @property
    def total_transactions(self) -> int:
        """Total applied transactions of any kind."""
        return sum(self.ledger.txn_counts.values())

    def __len__(self) -> int:
        """Number of materialised (non-empty + genesis) blocks."""
        return len(self.blocks)
