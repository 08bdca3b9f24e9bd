"""§9.1: the Spectrum terms-of-service exposure."""

from __future__ import annotations

from repro.core.analysis.meta import tos_exposure
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """If Spectrum enforced residential-only ToS, how much would fall?"""
    us_peers = {
        gateway
        for gateway, hotspot in result.world.hotspots.items()
        if hotspot.in_us
    }
    exposure = tos_exposure(
        result.peerbook, result.world.isps, us_peers, org="Spectrum"
    )
    report = ExperimentReport(
        experiment_id="s9_1",
        title="ISP terms-of-service exposure (§9.1)",
    )
    report.rows = [
        Row("US hotspots on Spectrum (fraction)", 0.17,
            exposure.us_fraction_at_risk,
            note="'at least 17% of the US hotspots would fall offline'"),
        Row("detectable on port 44158", None, exposure.detectable_on_port,
            note="all direct peers use the unique Helium port"),
    ]
    report.notes.append(
        "Spectrum-hosted hotspots are trivially detectable: unique port "
        "44158 plus a public IP database"
    )
    return report
