"""Figure 13: CDF of valid-witness distances."""

from __future__ import annotations

from repro.core.analysis.witnesses import witness_distance_cdf
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 13: the distance distribution that motivates the 25 km cutoff."""
    stats = witness_distance_cdf(store)
    report = ExperimentReport(
        experiment_id="fig13",
        title="Valid-witness distance CDF (Fig. 13)",
    )
    report.rows = [
        Row("median witness distance", None, stats.median_km, unit="km",
            note="paper shows most mass well below 25 km"),
        Row("95th percentile", None, stats.p95_km, unit="km"),
        Row("fraction beyond 25 km", None, stats.beyond_25km_fraction,
            note="these get cut by the paper's refinement"),
        Row("witnesses beyond 60 km", None, stats.beyond_60km_count,
            note="the footnote-16 over-water tail (60–110 km)"),
        Row("max witness distance", None, stats.max_km, unit="km"),
    ]
    report.series["distances_km"] = list(stats.distances_km)
    return report
