"""Field experiments: the paper's §8 empirical tests, simulated.

:mod:`repro.field.counter_app` runs the stationary best-case test (a
free-running counter app against nearby hotspots, with firmware-outage
windows); :mod:`repro.field.walks` runs the neighbourhood walk tests
with a GPS-logging device; :mod:`repro.field.reconcile` reproduces the
paper's SD-card-vs-cloud reconciliation: PRR, miss-run structure, the
ACK/NACK validity tables, and HIP-15 prediction accuracy.
"""

from repro.field.counter_app import CounterAppExperiment, CounterAppResult
from repro.field.reconcile import (
    AckTable,
    Hip15Accuracy,
    MissRunStats,
    ReceptionTally,
    ack_table,
    hip15_accuracy,
    miss_run_stats,
    prr,
)
from repro.field.walks import WalkExperiment, WalkResult, WalkTrace, generate_walk

__all__ = [
    "CounterAppExperiment",
    "CounterAppResult",
    "WalkTrace",
    "WalkExperiment",
    "WalkResult",
    "generate_walk",
    "ReceptionTally",
    "prr",
    "miss_run_stats",
    "MissRunStats",
    "ack_table",
    "AckTable",
    "hip15_accuracy",
    "Hip15Accuracy",
]
