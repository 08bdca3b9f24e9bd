"""Reproduction entry points: one module per paper table/figure.

Each module exposes ``run(result, store) -> ExperimentReport`` taking a
:class:`~repro.simulation.engine.SimulationResult` (ground truth) and
its ETL replica (:class:`~repro.etl.store.EtlStore`, chain history and
ledger state). The registry maps experiment ids (``fig02`` ...
``table1`` ...) to these functions; ``python -m repro.experiments``
runs them all and prints a comparison against the paper's reported
values.
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentReport,
    Row,
    format_report,
    run_experiment,
)
from repro.experiments.context import get_result, result_store

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "Row",
    "run_experiment",
    "format_report",
    "get_result",
    "result_store",
]
