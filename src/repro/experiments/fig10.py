"""Figure 10 + §6.2: relay prevalence and load."""

from __future__ import annotations

from repro.core.analysis.relays import relay_load_histogram, relay_stats
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 10: peers per relay; §6.2: 55.48 % of the network relayed."""
    stats = relay_stats(result.peerbook)
    histogram = relay_load_histogram(result.peerbook)
    report = ExperimentReport(
        experiment_id="fig10",
        title="Relay prevalence and load (Fig. 10, §6.2)",
    )
    one_or_two = sum(v for k, v in histogram.items() if k <= 2)
    report.rows = [
        Row("relayed fraction of listening peers", 0.5548,
            stats.relayed_fraction),
        Row("listening peers (descaled)", 27_281,
            stats.peers_with_listen_addrs / result.config.scale_factor),
        Row("relays carrying ≤2 peers", None,
            one_or_two / max(stats.relay_nodes, 1),
            note="'most hotspots relay only a few nodes'"),
        Row("max peers on one relay", 46, stats.max_peers_per_relay,
            note="heavy-relay tail; cause unknown in the paper too"),
    ]
    report.series["relay_load_histogram"] = sorted(histogram.items())
    return report
