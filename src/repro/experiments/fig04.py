"""Figure 4: CDF of block intervals between hotspot relocations."""

from __future__ import annotations

from repro.core.analysis.moves import collect_move_records, move_interval_blocks
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 4: 17.9 % of relocations within a day, 35.8 % within a
    week, 63.2 % within a month."""
    records = collect_move_records(store)
    stats = move_interval_blocks(records)
    report = ExperimentReport(
        experiment_id="fig04",
        title="Block intervals between relocations (Fig. 4)",
    )
    report.rows = [
        Row("within a day", 0.179, stats.within_day_fraction),
        Row("within a week", 0.358, stats.within_week_fraction),
        Row("within a month", 0.632, stats.within_month_fraction),
        Row("beyond a month", 0.368, 1.0 - stats.within_month_fraction),
    ]
    report.series["interval_blocks"] = list(stats.intervals_blocks)
    return report
