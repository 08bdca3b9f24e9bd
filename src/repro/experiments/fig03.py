"""Figure 3: CDF of move distances and the >500 km move map."""

from __future__ import annotations

from repro.core.analysis.moves import (
    collect_move_records,
    long_moves,
    move_distance_cdf,
    null_island_stats,
)
from repro.core.analysis.quantiles import median
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 3: bimodal move distances, export flows, (0,0) artifacts."""
    records = collect_move_records(store)
    distances = move_distance_cdf(records)
    long = long_moves(records, threshold_km=500.0)
    null = null_island_stats(store)

    us_departures = 0
    for record in long:
        if record.from_location.is_null_island() or record.to_location.is_null_island():
            continue
        from_us = -130.0 < record.from_location.lon < -60.0 and record.from_location.lat > 23.0
        to_us = -130.0 < record.to_location.lon < -60.0 and record.to_location.lat > 23.0
        if from_us and not to_us:
            us_departures += 1

    report = ExperimentReport(
        experiment_id="fig03",
        title="Move distance CDF and long-distance flows (Fig. 3)",
    )
    short_share = float((distances <= 50.0).mean())
    report.rows = [
        Row("total relocations", None, len(records)),
        Row("median move distance", None, median(distances), unit="km",
            note="Fig. 3b: short test-then-deploy hops dominate"),
        Row("moves ≤50 km (short mode)", None, short_share,
            note="bimodal: the rest are long-distance flows"),
        Row("moves >500 km", None, len(long)),
        Row("of long moves, US departures", None, us_departures,
            note="the blue US-export flow of Fig. 3c"),
        Row("(0,0) asserts total", 372 * result.config.scale_factor,
            null.total_null_asserts, note="scaled from the paper's 372"),
        Row("(0,0) first-time fraction", 0.89, null.first_time_fraction),
        Row("hotspots still at (0,0) after moving there", 0,
            null.currently_at_null - null.first_time_null_asserts
            if null.currently_at_null > null.first_time_null_asserts else 0,
            note="nobody stays at null island"),
    ]
    report.series["distance_cdf_km"] = [float(d) for d in distances]
    report.series["long_moves"] = [
        (
            (r.from_location.lat, r.from_location.lon),
            (r.to_location.lat, r.to_location.lon),
        )
        for r in long
    ]
    return report
