"""§3 headline: the chain is overwhelmingly PoC transactions."""

from __future__ import annotations

from repro.core.analysis.chainstats import chain_stats
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """§3: 99.2 % of all transactions are Proof of Coverage."""
    stats = chain_stats(
        store, poc_thinning_factor=result.config.poc_thinning_factor
    )
    report = ExperimentReport(
        experiment_id="headline_s3",
        title="Whole-chain transaction census (§3)",
    )
    report.rows = [
        Row("PoC share of transactions (descaled)", 0.992,
            stats.poc_share_descaled or 0.0,
            note=f"raw (thinned) share {stats.poc_share:.3f}"),
        Row("total transactions", None, stats.total_transactions,
            note="paper: 59,092,640 at full scale & full challenge rate"),
        Row("PoC transactions", None, stats.poc_transactions,
            note="paper: 58,619,153"),
    ]
    report.series["counts_by_kind"] = sorted(stats.counts_by_kind.items())
    report.notes.append(
        f"simulated at 1/{1 / result.config.scale_factor:.0f} fleet scale, "
        f"PoC thinned ×{result.config.poc_thinning_factor:.0f}"
    )
    return report
