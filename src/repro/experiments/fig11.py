"""Figure 11: relay→peer distances, actual vs randomised assignment."""

from __future__ import annotations

from repro.core.analysis.relays import relay_distances
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.rng import RngHub
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 11: the random-selection verification experiment."""
    locations = {
        gateway: hotspot.asserted_location
        for gateway, hotspot in result.world.hotspots.items()
        if hotspot.asserted_location is not None
    }
    rng = RngHub(result.config.seed).stream("fig11-trials")
    comparison = relay_distances(result.peerbook, locations, rng, n_trials=5)
    report = ExperimentReport(
        experiment_id="fig11",
        title="Relay→peer distance, actual vs random (Fig. 11)",
    )
    report.rows = [
        Row("actual median distance", None, comparison.actual_median_km,
            unit="km"),
        Row("randomised median distance", None,
            comparison.randomized_median_km, unit="km"),
        Row("KS statistic actual-vs-random", None, comparison.ks_statistic,
            note="small ⇒ selection is random, the paper's conclusion"),
        Row("max observed distance", 18_491.10,
            max(comparison.actual_km), unit="km",
            note="paper's max; ours depends on city draw"),
    ]
    report.series["actual_km"] = sorted(comparison.actual_km)
    report.series["trial_medians_km"] = [
        sorted(trial)[len(trial) // 2] for trial in comparison.randomized_trials_km
    ]
    report.notes.append(
        "conclusion: relay selection is random"
        if comparison.ks_statistic < 0.08
        else "KS statistic unexpectedly large — selection may not be random"
    )
    return report
