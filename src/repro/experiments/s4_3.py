"""§4.3: who owns the hotspots."""

from __future__ import annotations

from repro.core.analysis.ownership import ownership_stats
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """§4.3 ownership distribution against the paper's percentages."""
    stats = ownership_stats(store)
    report = ExperimentReport(
        experiment_id="s4_3",
        title="Hotspot ownership distribution (§4.3)",
    )
    whale_target = int(1903 * result.config.scale_factor)
    report.rows = [
        Row("owners with exactly 1 hotspot", 0.621, stats.one_hotspot_fraction),
        Row("owners with exactly 2", 0.146, stats.two_hotspot_fraction),
        Row("owners with exactly 3", 0.07, stats.three_hotspot_fraction),
        Row("owners with ≤3", 0.837, stats.at_most_three_fraction),
        Row("owners with ≥5", 0.103, stats.five_or_more_fraction),
        Row("max fleet (scaled)", whale_target, stats.max_owned,
            note="paper: 1,903 at full scale"),
        Row("unique owners (descaled)", 9_000,
            stats.n_owners / result.config.scale_factor),
    ]
    report.series["owners_by_count"] = sorted(stats.owners_by_count.items())
    return report
