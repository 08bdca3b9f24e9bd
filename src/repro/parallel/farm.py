"""The experiment runner: one task path, in-process or on a pool.

Every experiment run goes through :func:`fan_out`:
``python -m repro.experiments`` at any ``--jobs`` (:func:`run_farm`)
and the seed sweep (:mod:`repro.parallel.sweep`). A task names a
scenario by its serialised resolved spec
(:meth:`repro.scenarios.ResolvedScenario.payload`, so a spec file
edited mid-run cannot change what a spawn worker computes) and the
``(experiment_id, unit)`` pairs to run on it, in order. Without an
entry path a task calls ``get_result`` on the payload: the process's
memo, the cache entry, or a cold build under the build lock. With one
(pooled farm tasks) a worker loads the entry, opens its ETL replica
read-only, builds the world half up front and memoises both, so it
pays the load once however many tasks it draws; its chain half is
never decoded.

With ``jobs <= 1`` or a single task, the tasks run in the order
given, in-process, without importing ``multiprocessing``; otherwise a
pool of ``min(jobs, len(tasks))`` processes draws them in queue order
and sends each report back as its plain payload. Experiments seed
their own named streams, rehydration is bit-identical to a cold build,
and callers reassemble results by key, so the output is byte-identical
at any ``jobs``, under ``fork``, ``forkserver`` and ``spawn``.
"""

from __future__ import annotations

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

__all__ = ["FarmOutcome", "Task", "fan_out", "run_farm"]

#: ``(experiment_id, unit)``: a whole experiment (``unit is None``) or
#: one unit of a decomposed experiment.
Pair = Tuple[str, Optional[str]]

#: One queue entry: ``(snapshot_dir, scenario payload, checkpoint_every,
#: pairs)`` — the pairs run in order on the scenario, whose cache entry
#: ``snapshot_dir`` names (``None``: go through ``get_result``).
Task = Tuple[Optional[str], Dict, Optional[int], Tuple[Pair, ...]]


@dataclass
class FarmOutcome:
    """One experiment's report plus its worker-side cost.

    For a unit-decomposed experiment the wall/CPU figures are summed
    over its units (total compute, not elapsed time). ``rss_hwm_bytes``
    is the running process's RSS high-water mark at task end (the max
    over units); its earlier tasks count towards it too.
    """

    experiment_id: str
    report: ExperimentReport
    wall_s: float
    cpu_s: float
    rss_hwm_bytes: int


#: Per-worker-process memo of the result rehydrated from an entry path,
#: keyed by (snapshot_dir, spec digest). Plain module globals —
#: inherited empty under ``spawn``, shared copy-on-write under
#: ``fork``; either way each worker loads the scenario at most once per
#: key.
_WORKER_RESULT = None
_WORKER_KEY: Optional[Tuple[str, str]] = None


def _worker_result(
    snapshot_dir: Optional[str], payload: Dict,
    checkpoint_every: Optional[int],
):
    if snapshot_dir is None:
        from repro.experiments.context import get_result
        from repro.scenarios import from_payload

        return get_result(
            from_payload(payload), checkpoint_every=checkpoint_every
        )
    global _WORKER_RESULT, _WORKER_KEY
    key = (snapshot_dir, payload["digest"])
    if _WORKER_KEY != key:
        from repro.experiments.context import open_replica
        from repro.experiments.snapshot import load_result

        with obs.timer("farm.rehydrate_s") as timing:
            _WORKER_RESULT = load_result(snapshot_dir)
            open_replica(snapshot_dir, payload["digest"])
            # Tasks read the world half and the replica, never the
            # chain half: build the world now, so the rehydrate wall is
            # all a worker pays before its first task.
            _WORKER_RESULT.state
        obs.counter("farm.rehydrates")
        obs.trace_event(
            "worker.rehydrate", scenario=payload["label"],
            digest=payload["digest"][:12],
            wall_s=round(timing.elapsed, 4),
        )
        _WORKER_KEY = key
    return _WORKER_RESULT


def _run_one(task: Task) -> List[Dict]:
    """Find the task's result and run its pairs on it, in order.

    Each returned item is keyed by ``(seed, experiment_id, unit)`` so
    the caller can reassemble deterministically.
    """
    snapshot_dir, scenario_payload, checkpoint_every, pairs = task
    result = _worker_result(snapshot_dir, scenario_payload, checkpoint_every)
    seed = scenario_payload["config"]["seed"]
    items = []
    for experiment_id, unit in pairs:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if unit is None:
            report = run_experiment(experiment_id, result)
        else:
            from repro.experiments import s8_1

            report = s8_1.run_unit(result, unit)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        obs.counter("farm.tasks")
        obs.observe("farm.task_s", wall_s, experiment=experiment_id)
        obs.trace_event(
            "worker.task", experiment=experiment_id, unit=unit,
            scenario=scenario_payload["label"], seed=seed,
            wall_s=round(wall_s, 4), cpu_s=round(cpu_s, 4),
        )
        items.append({
            "seed": seed,
            "experiment_id": experiment_id,
            "unit": unit,
            "report": report,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "rss_hwm_bytes": obs.peak_rss_bytes(),
        })
    return items


def _run_pooled(task: Task) -> List[Dict]:
    """Pool entry point: :func:`_run_one`, each whole experiment's
    report as its payload."""
    items = _run_one(task)
    for item in items:
        if item["unit"] is None:
            item["report"] = report_payload(item["report"])
    return items


def fan_out(
    tasks: Sequence[Task],
    jobs: int,
    start_method: Optional[str] = None,
    **fields,
) -> List[Dict]:
    """Run ``tasks`` and return every pair's item, in completion order.

    With ``jobs <= 1`` or one task they run in the order given, in this
    process. Otherwise a pool of ``min(jobs, len(tasks))`` processes,
    started with ``start_method`` (the platform default when ``None``),
    draws them in the order given. ``fields`` label the ``farm.start``
    and ``farm.done`` trace events.
    """
    workers = min(jobs, len(tasks))
    if workers < 2:
        workers = 0
    started = time.perf_counter()
    obs.trace_event(
        "farm.start", jobs=jobs, workers=workers, tasks=len(tasks), **fields
    )
    obs.gauge("farm.queue_depth", len(tasks))
    raw: List[Dict] = []
    if not workers:
        for done, task in enumerate(tasks, 1):
            raw.extend(_run_one(task))
            obs.gauge("farm.queue_depth", len(tasks) - done)
    else:
        import multiprocessing

        context = multiprocessing.get_context(start_method)
        with context.Pool(processes=workers) as pool:
            # Results stream back in completion order (the queue gauge
            # tracks reality); callers reassemble them by key.
            for done, items in enumerate(
                pool.imap_unordered(_run_pooled, tasks), 1
            ):
                for item in items:
                    if item["unit"] is None:
                        item["report"] = report_from_payload(item["report"])
                raw.extend(items)
                obs.gauge("farm.queue_depth", len(tasks) - done)
    obs.trace_event(
        "farm.done", jobs=jobs, wall_s=round(time.perf_counter() - started, 4),
        **fields,
    )
    return raw


def _expand(ids: Sequence[str]) -> List[Pair]:
    """Pool pairs: ``s8_1`` splits into its four independent units so
    no single task dominates the makespan."""
    pairs: List[Pair] = []
    for eid in ids:
        if eid == "s8_1":
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
                report=whole["report"],
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
            units[unit] = item["report"]
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
    With ``jobs <= 1``, or a single task after ``s8_1``'s unit split,
    each experiment runs in that order, in-process, on ``get_result``'s
    memoised result. Otherwise the cache entry and its replica are
    materialised first, then one task per experiment or ``s8_1`` unit
    is queued, longest-first. ``start_method`` overrides the platform
    default (``"spawn"`` / ``"fork"`` / ``"forkserver"``) — mainly for
    portability tests.
    ``checkpoint_every`` makes a cold scenario build resumable (see
    :func:`repro.experiments.context.get_result`); pool workers only
    ever rehydrate the finished entry.
    """
    from repro.scenarios import resolve_any

    resolved = resolve_any(scenario, seed=seed)
    ids = list(experiment_ids)
    snapshot_dir = None
    pairs: List[Pair] = _expand(ids) if jobs > 1 else []
    if len(pairs) > 1:
        from repro.experiments.context import ensure_snapshot
        from repro.parallel.costs import longest_first

        entry = ensure_snapshot(resolved, checkpoint_every=checkpoint_every)
        snapshot_dir = None if entry is None else str(entry)
        pairs = longest_first(pairs)
    else:
        pairs = [(eid, None) for eid in ids]
    payload = resolved.payload()
    tasks = [
        (snapshot_dir, payload, checkpoint_every, (pair,)) for pair in pairs
    ]
    raw = fan_out(
        tasks, jobs, start_method, scenario=resolved.label,
        seed=resolved.config.seed, digest=resolved.digest[:12],
        experiments=len(ids),
    )
    return _assemble(ids, raw)
