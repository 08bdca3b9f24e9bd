"""Multi-process execution layer: experiment runner, seed sweeps, locks.

The simulator is deterministic per seed and every experiment reads one
immutable :class:`~repro.simulation.engine.SimulationResult`, which
makes both axes embarrassingly parallel. Both go through one runner,
:func:`repro.parallel.farm.fan_out`: in-process in the order given at
``jobs <= 1``, on a pool of at most ``jobs`` processes (never more than
it has tasks) otherwise.

* :func:`run_farm` runs the 21 figure/table experiments of one
  scenario. On a pool, workers rehydrate the result from the persistent
  scenario cache (a path crosses the pipe, never the multi-hundred-MB
  result object) and return plain report payloads, so the output is
  byte-identical to the serial path in the same order.
* :func:`run_sweep` runs one task per seed — the seed's experiments in
  order, after its worker loads or cold-builds the seed's scenario
  under :func:`~repro.parallel.locks.build_lock` — and aggregates every
  experiment row across seeds into mean/stddev/CI robustness numbers.

Farm dispatch is longest-first via the static cost table in
:mod:`repro.parallel.costs`; §8.1 splits into four independent
stationary-trial units so its longest task is one trial, not the whole
experiment. A single run's day loop stays serial: parallelising inside
it was measured slower than serial on a 2-vCPU host (DESIGN.md §11).

The worker entry point is a module-level function taking a picklable
task, so the pool works under every multiprocessing start method
(``fork``, ``spawn``, ``forkserver``).

The re-exports resolve lazily: a cold build takes only
:func:`~repro.parallel.locks.build_lock`, so it loads neither the farm
nor ``multiprocessing``, and only a pool imports ``multiprocessing``.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.parallel.costs": ["longest_first", "task_cost"],
    "repro.parallel.farm": ["FarmOutcome", "run_farm"],
    "repro.parallel.locks": ["build_lock"],
    "repro.parallel.sweep": ["format_sweep", "run_sweep"],
})
