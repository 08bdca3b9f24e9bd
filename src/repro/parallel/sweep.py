"""Multi-seed robustness sweeps: is a measured number seed-luck?

The paper reports one number per marginal; the reproduction can do
better and report how stable that number is across simulation seeds.
``run_sweep`` fans the seeds out through the experiment runner
(:func:`repro.parallel.farm.fan_out`), one task per seed, and
aggregates every paper-vs-measured row across seeds into mean / sample
stddev / 95% CI.

A task is one whole seed: the seed's experiments, in order, in one
process. Its worker loads the seed's cache entry or cold-builds it
under the build lock (publishing it for later warm runs), and its first
analysis ingests the seed's ETL replica, so each ``etl.db`` has one
writer. Nothing else is built up front: an experiment that never reads
the world half never builds it.

The output dict is deterministic for a given (scenario, seeds,
experiment set): no timestamps, sorted keys, plain Python numbers — so
re-running a sweep (now warm from cache), at any job count, must
produce byte-identical JSON, which the tests assert.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.errors import AnalysisError
from repro.experiments.registry import report_payload
from repro.parallel.farm import Task, fan_out

__all__ = ["format_sweep", "run_sweep"]


def run_sweep(
    scenario,
    seeds: Sequence[int],
    experiment_ids: Sequence[str],
    jobs: int = 1,
    checkpoint_every: Optional[int] = None,
) -> Dict:
    """Cross-seed robustness report for one scenario.

    ``scenario`` is anything :func:`repro.scenarios.resolve_any`
    accepts — registry name, spec-file path, or a resolved scenario;
    it is resolved once and re-seeded per sweep point. Seeds run over
    ``jobs`` processes, and ``checkpoint_every`` makes each seed's cold
    build resumable across sweep invocations. Returns a JSON-ready
    dict: per experiment, each comparison row with its per-seed values,
    cross-seed ``mean``, sample ``stddev`` (0.0 for a single seed) and
    normal-approximation 95% confidence half-width ``ci95``. Rows are
    keyed by label in first-seed order; a row missing for some seed is
    an analysis bug and raises.
    """
    from repro.scenarios import resolve_any, with_seed

    resolved = resolve_any(scenario)
    seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        raise AnalysisError("sweep needs at least one seed")
    if len(set(seed_list)) != len(seed_list):
        raise AnalysisError(f"duplicate seeds in sweep: {seed_list}")
    ids = tuple(experiment_ids)
    pairs = tuple((experiment_id, None) for experiment_id in ids)
    tasks: List[Task] = [
        (None, with_seed(resolved, seed).payload(), checkpoint_every, pairs)
        for seed in seed_list
    ]
    raw = fan_out(
        tasks, jobs, scenario=resolved.label, seeds=seed_list,
        experiments=len(ids),
    )

    by_seed: Dict[int, Dict[str, Dict]] = {}
    for item in raw:
        by_seed.setdefault(item["seed"], {})[item["experiment_id"]] = (
            report_payload(item["report"])
        )
    experiments: Dict[str, Dict] = {}
    for experiment_id in ids:
        first = by_seed[seed_list[0]][experiment_id]
        rows = []
        for row_index, row in enumerate(first["rows"]):
            values = {}
            for seed in seed_list:
                other = by_seed[seed][experiment_id]["rows"][row_index]
                if other["label"] != row["label"]:
                    raise AnalysisError(
                        f"{experiment_id} row {row_index} label differs "
                        f"across seeds: {row['label']!r} vs {other['label']!r}"
                    )
                values[str(seed)] = other["measured"]
            stats = _aggregate(list(values.values()))
            rows.append({
                "label": row["label"],
                "unit": row["unit"],
                "paper": row["paper"],
                "values": values,
                **stats,
            })
        experiments[experiment_id] = {"title": first["title"], "rows": rows}

    return {
        "scenario": resolved.label,
        "seeds": seed_list,
        "experiment_ids": list(ids),
        "experiments": experiments,
    }


def _aggregate(values: List) -> Dict[str, Optional[float]]:
    """mean / sample stddev / 95% CI half-width of one row's values."""
    numbers = [float(value) for value in values]
    n = len(numbers)
    mean = sum(numbers) / n
    if n < 2:
        stddev = 0.0
    else:
        stddev = math.sqrt(
            sum((x - mean) ** 2 for x in numbers) / (n - 1)
        )
    ci95 = 1.96 * stddev / math.sqrt(n)
    return {"mean": mean, "stddev": stddev, "ci95": ci95}


def format_sweep(sweep: Dict) -> str:
    """Render a sweep report as an aligned text table."""
    seeds = sweep["seeds"]
    lines = [
        f"== sweep: {sweep['scenario']} scenario, "
        f"{len(seeds)} seeds ({', '.join(str(s) for s in seeds)}) =="
    ]
    for experiment_id in sweep["experiment_ids"]:
        entry = sweep["experiments"][experiment_id]
        lines.append(f"-- {experiment_id}: {entry['title']}")
        rows = entry["rows"]
        if not rows:
            continue
        width = max(len(row["label"]) for row in rows)
        for row in rows:
            unit = f" {row['unit']}" if row["unit"] else ""
            paper = "—" if row["paper"] is None else f"{row['paper']:g}"
            lines.append(
                f"  {row['label']:<{width}}  paper={paper:>10}{unit}  "
                f"mean={row['mean']:>12.4g} ±{row['ci95']:.3g}{unit}  "
                f"(stddev {row['stddev']:.3g})"
            )
    return "\n".join(lines)
