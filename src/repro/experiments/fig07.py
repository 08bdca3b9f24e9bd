"""Figure 7: the resale market."""

from __future__ import annotations

from repro.core.analysis.resale import resale_stats, top_traders, transfers_over_time
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 7 panels a–c plus §4.3.3 headline shares."""
    stats = resale_stats(store)
    timeline = transfers_over_time(store)
    traders = top_traders(store, top_n=200)

    report = ExperimentReport(
        experiment_id="fig07",
        title="Resale market (Fig. 7, §4.3.3)",
    )
    scale = result.config.scale_factor
    report.rows = [
        Row("fleet fraction ever transferred", 0.086,
            stats.transferred_fraction_of_fleet),
        Row("transferred hotspots with ≤2 transfers", 0.954,
            stats.at_most_two_transfers_fraction),
        Row("transfers carrying 0 DC", 0.958, stats.zero_dc_fraction),
        Row("total transfers (descaled)", 3_819, stats.total_transfers / scale),
        Row("top trader's transfer count", None,
            traders[0].total if traders else 0,
            note="Fig. 7b: a heavy-trader head"),
    ]
    report.series["transfers_per_hotspot"] = sorted(
        stats.transfers_per_hotspot.items()
    )
    report.series["transfers_over_time"] = timeline
    report.series["top_traders"] = [
        (t.bought, t.sold) for t in traders
    ]
    monotone_growth = (
        len(timeline) >= 3 and timeline[-1][1] >= timeline[0][1]
    )
    report.notes.append(
        "transfer volume grows over time: "
        + ("yes (matches Fig. 7c)" if monotone_growth else "no")
    )
    return report
