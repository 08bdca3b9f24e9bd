"""§7.1 case study: silent movers."""

from __future__ import annotations

from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.core.analysis.incentives import find_silent_movers
from repro.poc.cheats import GossipClique, SilentMover
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Detect silent movers from chain data and score against ground truth.

    The detector is the paper's: find hotspots whose valid-witness events
    are physically impossible given their asserted location. Ground truth
    (which hotspots the simulation actually made silent movers) gives us
    the precision/recall the paper could not compute.
    """
    findings = find_silent_movers(store)
    # Ground truth for "location-impossible witnessing": silent movers
    # plus gossip cliques (their fabricated witnessing is also
    # geographically impossible once a member relocates).
    truth = {
        gateway
        for gateway, hotspot in result.world.hotspots.items()
        if isinstance(hotspot.cheat, (SilentMover, GossipClique))
    }
    flagged = {f.gateway for f in findings}
    true_positives = flagged & truth
    precision = len(true_positives) / len(flagged) if flagged else 0.0
    recall = len(true_positives) / len(truth) if truth else 0.0
    rewarded = [f for f in findings if f.still_rewarded]

    report = ExperimentReport(
        experiment_id="s7_1",
        title="Silent movers (§7.1)",
    )
    report.rows = [
        Row("injected silent movers", None, len(truth)),
        Row("flagged by chain-only detector", None, len(findings)),
        Row("detector precision", None, precision),
        Row("detector recall", None, recall),
        Row("flagged AND still earning rewards", None, len(rewarded),
            note="the Joyful Pink Skunk outcome: cheat pays"),
    ]
    if findings:
        worst = findings[0]
        report.rows.append(Row(
            "largest contradiction", 1_150.0, worst.contradiction_km,
            unit="km",
            note=f"'{worst.name}' (paper: Striped Yellow Bird at ~1,150 km)",
        ))
    report.notes.append(
        "takeaway holds: location is not considered in rewarding, so "
        "silent movers keep earning"
        if rewarded else
        "no rewarded silent movers this run (differs from paper)"
    )
    return report
