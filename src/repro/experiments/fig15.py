"""Figure 15 + Tables 2 and 3: the neighbourhood walk tests."""

from __future__ import annotations

from repro.core.analysis.empirical import run_walk
from repro.errors import AnalysisError
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.radio.propagation import Environment
from repro.rng import RngHub
from repro.simulation.engine import SimulationResult


def _walk_sites(result: SimulationResult):
    """Pick an urban and a suburban US walk start by environment class."""
    best = {Environment.URBAN: (None, -1), Environment.SUBURBAN: (None, -1)}
    for hotspot in result.world.online_hotspots():
        if not hotspot.in_us or hotspot.environment not in best:
            continue
        density = result.world.density_near(hotspot.actual_location, 2.0)
        if density > best[hotspot.environment][1]:
            best[hotspot.environment] = (hotspot.actual_location, density)
    urban_site = best[Environment.URBAN][0]
    suburban_site = best[Environment.SUBURBAN][0] or urban_site
    if urban_site is None:
        urban_site = suburban_site
    if urban_site is None:
        raise AnalysisError("no US hotspots for walk siting")
    return urban_site, suburban_site


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Urban and suburban walks, with PRR, ACK tables and HIP-15 scoring."""
    hub = RngHub(result.config.seed)
    urban_site, suburban_site = _walk_sites(result)
    # Device links: the urban walker is deep in street clutter; the
    # suburban walker has milder surroundings (hence the higher PRR).
    # Leg counts approximate the paper's walk lengths (urban ≈ 5 km for
    # 2,393 packets; suburban ≈ 2.2 km for 1,027).
    urban = run_walk(
        result.world, urban_site, hub.stream("walk-urban"),
        environment=Environment.STREET_LEVEL, n_legs=20,
    )
    suburban = run_walk(
        result.world, suburban_site, hub.stream("walk-suburban"),
        environment=Environment.URBAN, n_legs=9,
    )
    urban_fracs = urban.acks.fractions()
    suburban_fracs = suburban.acks.fractions()

    report = ExperimentReport(
        experiment_id="fig15",
        title="Walk tests (Fig. 15, Tables 2–3)",
    )
    report.rows = [
        Row("urban walk PRR", 0.729, urban.prr),
        Row("suburban walk PRR", 0.776, suburban.prr),
        Row("urban correct ACK", 0.462, urban_fracs["correct_ack"]),
        Row("urban correct NACK", 0.412, urban_fracs["correct_nack"]),
        Row("urban incorrect ACK", 0.0, urban_fracs["incorrect_ack"]),
        Row("urban incorrect NACK", 0.126, urban_fracs["incorrect_nack"]),
        Row("suburban correct ACK", 0.570, suburban_fracs["correct_ack"]),
        Row("suburban correct NACK", 0.231, suburban_fracs["correct_nack"]),
        Row("suburban incorrect ACK", 0.0, suburban_fracs["incorrect_ack"]),
        Row("suburban incorrect NACK", 0.200, suburban_fracs["incorrect_nack"]),
        Row("HIP-15 in-radius accuracy", 0.555,
            urban.hip15.inside_received_fraction,
            note="P(received | within 300 m of a hotspot)"),
        Row("HIP-15 out-of-radius accuracy", 0.796,
            urban.hip15.outside_missed_fraction,
            note="P(missed | beyond 300 m)"),
    ]
    report.notes.append(
        f"urban walk sent {urban.packets_sent} packets (paper: 2,393); "
        f"suburban {suburban.packets_sent} (paper: 1,027)"
    )
    return report
