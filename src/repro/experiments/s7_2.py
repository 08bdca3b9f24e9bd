"""§7.2 case study: lying witnesses."""

from __future__ import annotations

from repro.core.analysis.incentives import find_rssi_anomalies
from repro.core.analysis.witnesses import validity_breakdown
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.poc.cheats import GossipClique, RssiLiar
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Impossible RSSIs, heuristic evasion, and the gossip-clique yield."""
    anomalies = find_rssi_anomalies(store)
    breakdown = validity_breakdown(store)

    liars = {
        gw for gw, h in result.world.hotspots.items()
        if isinstance(h.cheat, RssiLiar)
    }
    clique_members = {
        gw for gw, h in result.world.hotspots.items()
        if isinstance(h.cheat, GossipClique)
    }
    # How often forged clique reports passed validity (they always
    # should: they are crafted from the public bound).
    clique_total, clique_valid = store.witness_counts_among(clique_members)

    report = ExperimentReport(
        experiment_id="s7_2",
        title="Lying witnesses (§7.2)",
    )
    max_rssi = anomalies[0].rssi_dbm if anomalies else 0.0
    report.rows = [
        Row("impossible-RSSI reports (> +36 dBm EIRP)", None, len(anomalies)),
        Row("max claimed RSSI", 1_041_313_293.0, max_rssi, unit="dBm",
            note="the paper's absurd outlier value"),
        Row("impossible RSSIs passing validity", 0,
            sum(1 for a in anomalies if a.passed_validity),
            note="'easily dismissed' by the heuristics"),
        Row("injected RSSI liars", None, len(liars)),
        Row("gossip-clique members", None, len(clique_members)),
        Row("clique forged-report validity rate", 1.0,
            clique_valid / clique_total if clique_total else 0.0,
            note="forged from the public bound ⇒ always passes (§7.2 takeaway)"),
    ]
    report.series["validity_breakdown"] = sorted(breakdown.items())
    return report
