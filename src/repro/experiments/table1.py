"""Table 1: top ISPs used for hotspot backhaul."""

from __future__ import annotations

from repro.core.analysis.meta import isp_ranking
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult

#: The paper's Table 1 (org → hotspot count at full scale).
PAPER_TABLE1 = {
    "Spectrum": 2497, "Comcast": 1922, "Verizon": 1590, "Cablevision": 450,
    "AT&T": 338, "Virgin Media": 333, "Cox": 314, "Level 3": 202,
    "Sky UK": 199, "Telefonica": 199, "CenturyLink": 188, "TELUS": 185,
    "RCN": 154, "Frontier": 146, "Google Fiber": 142,
}


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Table 1: the ISP ranking from the annotation pipeline."""
    ranking = isp_ranking(result.peerbook, result.world.isps, top_n=15)
    scale = result.config.scale_factor
    report = ExperimentReport(
        experiment_id="table1",
        title="Top ISPs for hotspot backhaul (Table 1)",
    )
    for rank, (org, count) in enumerate(ranking.rows, start=1):
        paper_count = PAPER_TABLE1.get(org)
        report.rows.append(Row(
            f"#{rank} {org}",
            paper_count,
            count / scale,
            note="descaled hotspot count" if paper_count else "not in paper's top 15",
        ))
    top3 = [org for org, _ in ranking.rows[:3]]
    report.notes.append(
        f"top-3 order: {top3} (paper: Spectrum, Comcast, Verizon)"
    )
    report.series["full_ranking"] = list(ranking.rows)
    return report
