"""Figure 5: network growth, connected vs online, US vs international."""

from __future__ import annotations

from repro.core.analysis.growth import growth_curves, snapshot
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 5 + §4.2 snapshots, descaled to the real fleet size."""
    curves = growth_curves(store, result.growth_log)
    config = result.config
    scale = config.scale_factor
    final = snapshot(curves, len(curves.days) - 1)
    march = snapshot(curves, min(config.march_snapshot_day, len(curves.days) - 1))

    report = ExperimentReport(
        experiment_id="fig05",
        title="Network growth (Fig. 5, §4.2)",
    )
    report.rows = [
        Row("connected at end (descaled)", 44_000, final.connected / scale),
        Row("online at end (descaled)", 34_000, final.online / scale),
        Row("US online at end (descaled)", 20_000, final.online_us / scale),
        Row("intl online at end (descaled)", 14_000,
            final.online_international / scale),
        Row("connected at March snapshot (descaled)", 20_000,
            march.connected / scale),
        Row("online at March snapshot (descaled)", 16_000,
            march.online / scale),
        Row("final adds/day (descaled)", 1_000,
            curves.final_daily_rate() / scale,
            note="the '1,000 new hotspots per day' claim"),
    ]
    report.series["daily_added"] = list(curves.daily_added)
    report.series["cumulative_connected"] = list(curves.cumulative_connected)
    report.series["online"] = list(curves.online)
    return report
