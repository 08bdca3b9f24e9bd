"""Figure 14: CDF of witness RSSI values."""

from __future__ import annotations

from repro import units
from repro.core.analysis.witnesses import witness_rssi_cdf
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.radio.propagation import fspl_range_growth_m
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 14 over the paper's four-day window, plus the +20 m claim.

    The paper computes the CDF over receipts from 2021-05-18 to
    2021-05-22, i.e. the last four days of the study window; we take the
    matching final-four-days block slice.
    """
    end = store.checkpoint_height
    start = max(0, end - 4 * units.BLOCKS_PER_DAY)
    stats = witness_rssi_cdf(store, start_height=start, end_height=end)
    growth_m = fspl_range_growth_m(stats.median_dbm)

    report = ExperimentReport(
        experiment_id="fig14",
        title="Witness RSSI CDF (Fig. 14)",
    )
    report.rows = [
        Row("median witness RSSI", -108.0, stats.median_dbm, unit="dBm"),
        Row("5th percentile", None, stats.p5_dbm, unit="dBm"),
        Row("95th percentile", None, stats.p95_dbm, unit="dBm"),
        Row("radius growth at median RSSI", 20.0, growth_m, unit="m",
            note="d = 10^((w−s)/20), s = −134 dBm"),
    ]
    report.series["rssis_dbm"] = list(stats.rssis_dbm)
    return report
