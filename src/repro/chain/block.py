"""Blocks of the simulated chain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro import units
from repro.chain.transactions import Transaction
from repro.digest import sha256
from repro.errors import ChainError

__all__ = ["Block"]


@dataclass(frozen=True)
class Block:
    """One block: height, nominal timestamp, parent hash, transactions.

    Blocks are value objects produced only by :class:`~repro.chain.
    blockchain.Blockchain`, which guarantees height continuity and the
    nominal 60-second cadence the paper's time analyses assume.
    """

    height: int
    unix_time: int
    prev_hash: str
    transactions: Tuple[Transaction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ChainError(f"block height must be non-negative, got {self.height}")

    @property
    def hash(self) -> str:
        """Deterministic block hash over height, time, parent and tx kinds."""
        h = sha256()
        h.update(f"{self.height}:{self.unix_time}:{self.prev_hash}".encode())
        for txn in self.transactions:
            h.update(repr(txn).encode())
        return h.hexdigest()

    @classmethod
    def genesis(cls) -> "Block":
        """The empty genesis block at the paper's 2019-07-29 start date."""
        return cls(height=0, unix_time=units.GENESIS_UNIX_TIME, prev_hash="0" * 64)

    def __len__(self) -> int:
        return len(self.transactions)
