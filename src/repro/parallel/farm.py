"""Process-pool experiment farm with cache-based worker rehydration.

``python -m repro.experiments --jobs N`` lands here. The parent
resolves the scenario spec once (registry name, user spec file, or an
already-resolved scenario), materialises its persistent cache entry
(building it if cold), then fans experiment tasks out over a
``multiprocessing`` pool. Each worker receives only ``(snapshot_dir,
scenario_payload, experiment_id, unit)`` — a few hundred bytes, where
the payload is the parent's *serialised resolved spec*
(:meth:`repro.scenarios.ResolvedScenario.payload`), never a name to be
re-looked-up — rehydrates the
:class:`~repro.simulation.engine.SimulationResult` from the snapshot on
first use, opens the entry's ETL replica (``etl.db``, ingested by the
parent before the fan-out) read-only, and memoises both for the rest of
its life, so a worker pays the load cost once no matter how many tasks
it draws. It builds only the result's world half: its analyses read
the chain from the replica, so its chain half is never decoded.
Because spawn workers rebuild from the payload, a spec file edited (or
deleted) mid-run cannot change what they compute.

Scheduling: tasks dispatch **longest-first** using the static cost
table in :mod:`repro.parallel.costs` (seeded from the benchmark's
measured walls), the classic LPT makespan heuristic — so the expensive
work starts immediately instead of straggling at the tail of a
registry-ordered queue. Experiments that decompose into independent
units (``s8_1``'s four stationary trials, see
:mod:`repro.experiments.s8_1`) additionally fan out as one task per
unit when ``jobs > 1``, which is what actually breaks the farm's old
Amdahl ceiling: the 18-second monolith becomes a 9-second longest unit.

Determinism: every experiment (and every unit) seeds its own named
streams from ``RngHub(result.config.seed)`` and never touches global
RNG state, cache rehydration is bit-identical to a cold build (asserted
by the scenario-cache tests), and results are reassembled by
``(experiment_id, unit)`` key rather than arrival order — the farm's
output is byte-identical to the serial path however the workers race.

Portability: the worker entry point is a module-level function and the
task tuples carry only primitives, so the farm is safe under ``spawn``
and ``forkserver`` start methods as well as ``fork`` (exercised by a
forced-``spawn`` test).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import AnalysisError
from repro.experiments.registry import (
    ExperimentReport,
    report_from_payload,
    report_payload,
    run_experiment,
)
from repro.parallel.costs import longest_first

__all__ = ["FarmOutcome", "run_farm"]


@dataclass
class FarmOutcome:
    """One experiment's report plus its worker-side cost.

    For a unit-decomposed experiment the wall/CPU figures are summed
    over its units (total compute, not elapsed time). ``rss_hwm_bytes``
    is the worker's RSS high-water mark at task end (the max over
    units); a worker's earlier tasks count towards it too.
    """

    experiment_id: str
    report: ExperimentReport
    wall_s: float
    cpu_s: float
    rss_hwm_bytes: int


#: Per-worker-process memo of the rehydrated result, keyed by
#: (snapshot_dir, spec digest). Plain module globals — inherited
#: empty under ``spawn``, shared copy-on-write under ``fork``; either
#: way each worker loads the scenario at most once per key.
_WORKER_RESULT = None
_WORKER_KEY: Optional[Tuple[Optional[str], str]] = None


def _worker_result(snapshot_dir: Optional[str], payload: Dict):
    global _WORKER_RESULT, _WORKER_KEY
    key = (snapshot_dir, payload["digest"])
    if _WORKER_KEY != key:
        if snapshot_dir is not None:
            from repro.experiments.context import open_replica
            from repro.experiments.snapshot import load_result

            with obs.timer("farm.rehydrate_s") as timing:
                _WORKER_RESULT = load_result(snapshot_dir)
                open_replica(snapshot_dir, payload["digest"])
                # Tasks read the world half and the replica, never the
                # chain half: build the world now, so the rehydrate
                # wall is all a worker pays before its first task.
                _WORKER_RESULT.state
            obs.counter("farm.rehydrates")
            obs.trace_event(
                "worker.rehydrate", scenario=payload["label"],
                digest=payload["digest"][:12],
                wall_s=round(timing.elapsed, 4),
            )
        else:
            # Cache disabled: fall back to the in-process memo (each
            # worker rebuilds from the serialised spec once; still
            # correct, just not shared).
            from repro.experiments.context import get_result
            from repro.scenarios import from_payload

            _WORKER_RESULT = get_result(from_payload(payload))
        _WORKER_KEY = key
    return _WORKER_RESULT


def _run_one(task: Tuple[Optional[str], Dict, str, Optional[str]]) -> Dict:
    """Worker entry point: rehydrate (memoised), run one task.

    A task is a whole experiment (``unit is None``) or one unit of a
    decomposed experiment; either way the return value is keyed by
    ``(experiment_id, unit)`` so the parent can reassemble
    deterministically.
    """
    snapshot_dir, scenario_payload, experiment_id, unit = task
    result = _worker_result(snapshot_dir, scenario_payload)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if unit is None:
        payload = report_payload(run_experiment(experiment_id, result))
    else:
        from repro.experiments import s8_1

        payload = s8_1.run_unit(result, unit)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    rss_hwm_bytes = obs.peak_rss_bytes()
    obs.counter("farm.tasks")
    obs.observe("farm.task_s", wall_s, experiment=experiment_id)
    obs.trace_event(
        "worker.task", experiment=experiment_id, unit=unit,
        scenario=scenario_payload["label"],
        seed=scenario_payload["config"]["seed"],
        wall_s=round(wall_s, 4), cpu_s=round(cpu_s, 4),
    )
    return {
        "experiment_id": experiment_id,
        "unit": unit,
        "payload": payload,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_hwm_bytes": rss_hwm_bytes,
    }


def _expand(
    ids: Sequence[str], jobs: int
) -> List[Tuple[str, Optional[str]]]:
    """(experiment_id, unit) pairs for the task queue.

    Serial runs keep whole experiments (the registry path is the
    comparison baseline); multi-worker runs decompose ``s8_1`` into its
    four independent units so no single task dominates the makespan.
    """
    pairs: List[Tuple[str, Optional[str]]] = []
    for eid in ids:
        if jobs > 1 and eid == "s8_1":
            from repro.experiments.s8_1 import UNITS

            pairs.extend((eid, unit) for unit in UNITS)
        else:
            pairs.append((eid, None))
    return pairs


def _assemble(
    ids: Sequence[str], raw: List[Dict]
) -> List[FarmOutcome]:
    """Merge task results into per-experiment outcomes, in ``ids`` order."""
    by_key = {(item["experiment_id"], item["unit"]): item for item in raw}
    outcomes = []
    for eid in ids:
        whole = by_key.get((eid, None))
        if whole is not None:
            outcomes.append(FarmOutcome(
                experiment_id=eid,
                report=report_from_payload(whole["payload"]),
                wall_s=whole["wall_s"],
                cpu_s=whole["cpu_s"],
                rss_hwm_bytes=whole["rss_hwm_bytes"],
            ))
            continue
        from repro.experiments import s8_1

        units = {}
        wall_s = 0.0
        cpu_s = 0.0
        rss_hwm_bytes = 0
        for unit in s8_1.UNITS:
            item = by_key.get((eid, unit))
            if item is None:
                raise AnalysisError(
                    f"farm lost unit {unit!r} of experiment {eid!r}"
                )
            units[unit] = item["payload"]
            wall_s += item["wall_s"]
            cpu_s += item["cpu_s"]
            rss_hwm_bytes = max(rss_hwm_bytes, item["rss_hwm_bytes"])
        outcomes.append(FarmOutcome(
            experiment_id=eid,
            report=s8_1.merge_units(units),
            wall_s=wall_s,
            cpu_s=cpu_s,
            rss_hwm_bytes=rss_hwm_bytes,
        ))
    return outcomes


def run_farm(
    scenario,
    seed: Optional[int] = None,
    experiment_ids: Sequence[str] = (),
    jobs: int = 1,
    start_method: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> List[FarmOutcome]:
    """Run experiments for one scenario, fanned over ``jobs`` processes.

    ``scenario`` is anything :func:`repro.scenarios.resolve_any`
    accepts — registry name, spec-file path, or a resolved scenario;
    ``seed=None`` keeps the spec's own seed. Returns outcomes in
    ``experiment_ids`` order regardless of worker scheduling.
    ``jobs <= 1`` runs everything in-process through the exact same
    task path (useful as the comparison baseline). ``start_method``
    overrides the platform default (``"spawn"`` / ``"fork"`` /
    ``"forkserver"``) — mainly for portability tests.
    ``checkpoint_every`` makes the parent's cold scenario build
    resumable (see :func:`repro.experiments.context.get_result`);
    workers only ever rehydrate the finished snapshot.
    """
    from repro.experiments.context import ensure_snapshot
    from repro.scenarios import resolve_any

    resolved = resolve_any(scenario, seed=seed)
    payload = resolved.payload()
    ids = list(experiment_ids)
    entry = ensure_snapshot(resolved, checkpoint_every=checkpoint_every)
    snapshot_dir = None if entry is None else str(entry)
    tasks = [
        (snapshot_dir, payload, eid, unit)
        for eid, unit in longest_first(_expand(ids, jobs))
    ]

    farm_started = time.perf_counter()
    obs.trace_event(
        "farm.start", scenario=resolved.label, seed=resolved.config.seed,
        digest=resolved.digest[:12], jobs=jobs,
        experiments=len(ids), tasks=len(tasks),
    )
    obs.gauge("farm.queue_depth", len(tasks))
    raw = []
    if jobs <= 1:
        for task in tasks:
            raw.append(_run_one(task))
            obs.gauge("farm.queue_depth", len(tasks) - len(raw))
    else:
        context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        with context.Pool(processes=jobs) as pool:
            # Tasks enter the queue longest-first; results stream back
            # in completion order (the queue gauge tracks reality) and
            # are reassembled by key below, so arrival order is
            # irrelevant to the output.
            for item in pool.imap_unordered(_run_one, tasks):
                raw.append(item)
                obs.gauge("farm.queue_depth", len(tasks) - len(raw))
    obs.trace_event(
        "farm.done", scenario=resolved.label, seed=resolved.config.seed,
        jobs=jobs, experiments=len(ids),
        wall_s=round(time.perf_counter() - farm_started, 4),
    )

    return _assemble(ids, raw)
