"""Reproduction entry points: one module per paper table/figure.

Each module exposes ``run(result, store) -> ExperimentReport`` taking a
:class:`~repro.simulation.engine.SimulationResult` (ground truth) and
its ETL replica (:class:`~repro.etl.store.EtlStore`, chain history and
ledger state). The registry maps experiment ids (``fig02`` ...
``table1`` ...) to these functions; ``python -m repro.experiments``
runs them all and prints a comparison against the paper's reported
values.

The re-exported names resolve on first use (:mod:`repro._exports`):
``from repro.experiments.context import get_result`` loads the scenario
cache and the numpy-free checkpoint checks, not the analyses, and a
warm result's chain half loads no numpy.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.experiments.registry": [
        "EXPERIMENTS", "ExperimentReport", "Row", "run_experiment",
        "format_report",
    ],
    "repro.experiments.context": ["get_result", "result_store"],
})
