"""Whole-chain statistics (§3).

Headline result: "Out of 59,092,640 total transactions, 58,619,153 are
carried out only to provide proof for the network accuracy and validity.
... approximately 99.2% of all blockchain transactions are PoC
transactions."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import units
from repro.errors import AnalysisError
from repro.etl.store import EtlStore

__all__ = ["ChainStats", "chain_stats"]

_POC_KINDS = ("poc_request", "poc_receipts")


@dataclass(frozen=True)
class ChainStats:
    """Transaction census of one chain."""

    total_transactions: int
    counts_by_kind: Dict[str, int]
    poc_transactions: int
    poc_share: float
    #: Share corrected for PoC thinning (simulations run fewer
    #: challenges than the real chain; see ScenarioConfig).
    poc_share_descaled: Optional[float]
    first_block_time: int
    tip_height: int


def chain_stats(
    store: EtlStore, poc_thinning_factor: Optional[float] = None
) -> ChainStats:
    """Census the chain's transactions.

    Args:
        store: the ETL replica of the chain to census.
        poc_thinning_factor: how many real challenges each simulated one
            represents; when given, a descaled PoC share is computed as
            ``poc·f / (poc·f + non_poc)``.
    """
    counts = store.transaction_counts()
    total = sum(counts.values())
    if total == 0:
        raise AnalysisError("chain has no transactions to census")
    poc = sum(counts.get(kind, 0) for kind in _POC_KINDS)
    descaled = None
    if poc_thinning_factor is not None:
        if poc_thinning_factor <= 0:
            raise AnalysisError(
                f"thinning factor must be positive: {poc_thinning_factor}"
            )
        scaled_poc = poc * poc_thinning_factor
        descaled = scaled_poc / (scaled_poc + (total - poc))
    return ChainStats(
        total_transactions=total,
        counts_by_kind=dict(counts),
        poc_transactions=poc,
        poc_share=poc / total,
        poc_share_descaled=descaled,
        first_block_time=units.block_to_unix_time(0),
        tip_height=store.checkpoint_height,
    )
