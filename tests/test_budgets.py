"""Wall-clock budgets: farm speedup, day-loop hot paths, obs and
checkpoint overhead.

Each test times a fast path against its baseline in this process and
asserts a ratio, so the numbers depend on the host: CI's parallel-e2e
job runs the module, tier-1 skips it. The gate is
``REPRO_PAPER_DIGEST``, because the checkpoint budget needs a
paper-scale build (the other gated paper tests use the same switch).

* **Farm.** ``--jobs 4`` over the whole suite must reach 2.0× serial.
  With at least four usable CPUs the measured ratio counts; on a
  smaller affinity mask four workers time-slice and the wall measures
  contention, so the budget applies to a longest-processing-time-first
  schedule over the measured task walls instead, with s8_1 as the four
  units the farm schedules.
* **Hot paths.** ``update_online`` must beat its reference twin and
  ``ferry_weights`` must beat its twin by more than 2×
  (``tests/reference_twins.py``).
* **Observability.** Metrics recording may cost at most 15 % of a cold
  ``small`` build (best of three interleaved rounds per mode; the design
  budget is 3 %, the bound absorbs shared-runner jitter).
* **Checkpoints.** At ``paper`` scale and a 30-day cadence, the mean
  periodic save must stay under 2 % of the day loop's wall.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.experiments.context as context
from repro import obs
from repro.experiments import s8_1
from repro.experiments.registry import EXPERIMENTS
from repro.parallel import run_farm
from repro.scenarios import resolve
from repro.simulation import SimulationEngine
from repro.simulation.phases.online import update_online
from repro.simulation.phases.traffic import ferry_weights
from repro.simulation.state import WorldState

from tests import reference_twins as reference

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_PAPER_DIGEST"),
    reason="wall-clock budgets with a paper-scale build (~3min); set "
    "REPRO_PAPER_DIGEST=1 (the CI parallel-e2e job does)",
)


def _usable_cpus() -> int:
    """CPUs this process may run on: the honest parallelism budget."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _lpt_makespan(costs, workers: int) -> float:
    """Longest-processing-time-first schedule length on ``workers``
    machines: the schedule :func:`repro.parallel.costs.longest_first`
    approximates, evaluated over measured walls."""
    loads = [0.0] * workers
    for cost in sorted(costs, reverse=True):
        loads[loads.index(min(loads))] += cost
    return max(loads)


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def small_state():
    """A fully run ``small`` WorldState: fleet arrays and maps filled."""
    engine = SimulationEngine(resolve("small", seed=2021).config)
    engine.run()
    return engine.state


def test_farm_jobs4_speedup(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
    monkeypatch.setattr(context, "_CACHE", {})
    ids = EXPERIMENTS.ids()
    # Build the cache entry and import the experiments once.
    run_farm("small", 2021, ["fig02"], jobs=1)

    started = time.perf_counter()
    serial = run_farm("small", 2021, ids, jobs=1)
    serial_s = time.perf_counter() - started

    if _usable_cpus() >= 4:
        parallel_s = _timed(lambda: run_farm("small", 2021, ids, jobs=4))
        speedup, basis = serial_s / parallel_s, "measured"
    else:
        # s8_1 runs as four units at jobs > 1; time each in-process.
        result = context.get_result("small", 2021)
        walls = [o.wall_s for o in serial if o.experiment_id != "s8_1"]
        walls += [
            _timed(lambda unit=unit: s8_1.run_unit(result, unit))
            for unit in s8_1.UNITS
        ]
        speedup, basis = sum(walls) / _lpt_makespan(walls, 4), "lpt_model"
    assert speedup >= 2.0, (basis, round(speedup, 2), round(serial_s, 2))


def test_update_online_beats_reference(small_state):
    rounds = 50

    def fast():
        for _ in range(rounds):
            update_online(small_state, 0)

    def slow():
        for _ in range(rounds):
            reference.update_online_reference(small_state, 0)

    fast()  # warm-up
    fast_s, slow_s = _timed(fast), _timed(slow)
    assert slow_s / fast_s > 1.0, (fast_s, slow_s)


def test_ferry_weights_beat_reference(small_state):
    rng = np.random.default_rng(0)
    rounds = 200
    # The day loop calls ferry_weights right after update_online stamped
    # the fleet's online column for the same day; another day would time
    # the object-walk fallback instead of the hot path.
    day = small_state.fleet.online_day

    def fast():
        for _ in range(rounds):
            ferry_weights(small_state, day, rng)

    def slow():
        for _ in range(rounds):
            reference.ferry_weights_reference(small_state, day, rng)

    fast()  # warm-up
    fast_s, slow_s = _timed(fast), _timed(slow)
    # O(would-ferry set) filter vs O(fleet) rebuild with owner lookups.
    assert slow_s / fast_s > 2.0, (fast_s, slow_s)


def test_obs_overhead():
    def build():
        SimulationEngine(resolve("small", seed=2021).config).run()

    build()  # warm-up
    # Interleave the modes and keep each mode's best round: run-to-run
    # jitter on a build dwarfs the instrumentation cost, and the minimum
    # is the least noisy estimator of it.
    enabled, disabled = [], []
    try:
        for _ in range(3):
            obs.set_enabled(True)
            enabled.append(_timed(build))
            obs.set_enabled(False)
            disabled.append(_timed(build))
    finally:
        obs.set_enabled(True)
    overhead_pct = (min(enabled) - min(disabled)) / min(disabled) * 100.0
    assert overhead_pct < 15.0, (enabled, disabled)


def test_checkpoint_save_overhead(tmp_path, monkeypatch):
    """Saves are incremental (the chain file is extended in place under
    a running hash, never re-read), so the steady-state cost is the ~30
    new days of frames plus the world-state payload."""
    save_times = []
    original_save = WorldState.save

    def timed_save(self, directory):
        save_times.append(_timed(lambda: original_save(self, directory)))

    monkeypatch.setattr(WorldState, "save", timed_save)
    result = SimulationEngine(resolve("paper", seed=2021).config).run(
        checkpoint_every=30, checkpoint_dir=tmp_path / "ckpt"
    )
    day_loop_s = sum(result.day_loop_timings.values())
    mean_save_s = sum(save_times) / len(save_times)
    overhead_pct = mean_save_s / day_loop_s * 100.0
    assert overhead_pct < 2.0, (mean_save_s, day_loop_s, len(save_times))
