"""Figure 6 + §4.3.1/.2: profiling bulk owners from chain data alone."""

from __future__ import annotations

from repro.core.analysis.ownership import classify_owners, owner_fleet_map
from repro.errors import AnalysisError
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Identify the owner classes the paper's §4.3 case studies describe.

    Commercial operators (Careband/nowi-like): multi-hotspot fleets that
    ferry data and accumulate HNT. Mining pools (the Denver clusters):
    geographically spread fleets with no data activity and drained
    wallets (they encash).
    """
    profiles = classify_owners(store)
    big = [p for p in profiles if p.hotspots >= 3]
    if not big:
        raise AnalysisError("no multi-hotspot owners to profile")
    applications = [p for p in big if p.inferred_class == "application"]
    mining = [p for p in big if p.inferred_class == "mining"]

    report = ExperimentReport(
        experiment_id="fig06",
        title="Bulk-owner profiling (Fig. 6, §4.3.1–4.3.2)",
    )
    report.rows = [
        Row("multi-hotspot owners profiled", None, len(big)),
        Row("inferred application operators", None, len(applications),
            note="data txns + retained HNT (the Careband/nowi pattern)"),
        Row("inferred mining operations", None, len(mining),
            note="no data txns, encashed wallets (Fig. 6 pattern)"),
    ]
    if mining:
        example = max(mining, key=lambda p: p.hotspots)
        fleet = owner_fleet_map(store, example.owner)
        located = [loc for _, loc in fleet if loc is not None]
        spread_km = 0.0
        if len(located) >= 2:
            spread_km = max(
                located[0].distance_km(other) for other in located[1:]
            )
        report.rows.append(Row(
            "largest mining fleet size", None, example.hotspots,
            note=f"HNT balance {example.hnt_balance:.1f}, spread {spread_km:.0f} km",
        ))
        report.series["example_fleet"] = [
            (loc.lat, loc.lon) for loc in located
        ]
    report.notes.append(
        "class inference from public chain data only, per the paper's method"
    )
    return report
