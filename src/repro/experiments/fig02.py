"""Figure 2: location changes per hotspot."""

from __future__ import annotations

from repro.core.analysis.moves import move_stats
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 2: the moves-per-hotspot histogram and its summary stats.

    The paper's caption figures are internally inconsistent as printed
    (71.9 % never move yet "55.5 % do not move more than two times");
    we report the monotone reading: the unconditional never-move share,
    plus the ≤2 / >5 tail shares *conditional on having moved*.
    """
    stats = move_stats(store)
    report = ExperimentReport(
        experiment_id="fig02",
        title="Location changes per hotspot (Fig. 2)",
    )
    report.rows = [
        Row("never moved", 0.719, stats.never_moved_fraction),
        Row("movers with ≤2 moves", 0.555, stats.movers_at_most_two_fraction,
            note="conditional-on-moving reading of the caption"),
        Row("movers with >5 moves", 0.16, stats.movers_more_than_five_fraction,
            note="conditional-on-moving reading of the caption"),
        Row("max moves by one hotspot", 20, stats.max_moves),
    ]
    report.series["moves_histogram"] = sorted(stats.moves_per_hotspot.items())
    return report
