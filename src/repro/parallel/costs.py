"""Static experiment cost model for farm scheduling.

The farm used to dispatch tasks in registry order, which parked the
18-second ``s8_1`` monolith at whatever position the registry gave it —
often the tail of the queue, where it alone set the makespan (a
measured 1.01× "speedup" at four workers).
Longest-processing-time-first is the classic 4/3-approximation for
minimising makespan on identical machines, and it only needs a rough
cost ordering, not accurate walls — so a static table seeded from
measured per-experiment walls is enough, with a small default for
experiments the table has never met.

Costs are keyed by ``(experiment_id, unit)``: ``s8_1`` decomposes into
four independent stationary-trial units (see
:mod:`repro.experiments.s8_1`), and the May unit (24 simulated hours)
costs roughly three September units (8 hours each).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = ["DEFAULT_COST_S", "longest_first", "task_cost"]

#: Whole-experiment walls (seconds) of one serial run of every
#: experiment on the ``small`` scenario, seed 2021, warm cache, on a
#: 1-CPU host (the farm check in ``tests/test_budgets.py`` measures
#: the same walls). Relative order is what matters; absolute values
#: just make the table auditable.
EXPERIMENT_COST_S = {
    "s8_1": 20.1226,
    "fig12": 1.1006,
    "fig15": 0.451,
    "fig13": 0.1938,
    "s7_1": 0.0944,
    "fig03": 0.0247,
    "fig08": 0.0222,
    "fig09": 0.012,
    "s7_2": 0.0109,
    "fig10": 0.0103,
    "fig04": 0.0101,
    "fig06": 0.0098,
    "fig11": 0.0098,
    "fig07": 0.0089,
    "fig05": 0.0054,
    "s9_1": 0.0036,
    "table1": 0.0029,
    "fig02": 0.002,
    "headline_s3": 0.002,
    "fig14": 0.0017,
    "s4_3": 0.0008,
}

#: Per-unit walls for decomposable experiments, from the same run. The
#: May unit (24 simulated hours) costs roughly three September units
#: (8 hours each), as the hour split predicts.
UNIT_COST_S = {
    ("s8_1", "may"): 9.1808,
    ("s8_1", "sept-0"): 3.3338,
    ("s8_1", "sept-1"): 3.2631,
    ("s8_1", "sept-2"): 3.3163,
}

#: Experiments absent from the table (new figures, test doubles) are
#: assumed cheap — they sort behind every measured experiment but keep
#: a deterministic relative order via the id tie-break.
DEFAULT_COST_S = 0.05


def task_cost(experiment_id: str, unit: Optional[str] = None) -> float:
    """Estimated wall seconds for one farm task."""
    if unit is not None:
        cost = UNIT_COST_S.get((experiment_id, unit))
        if cost is not None:
            return cost
    return EXPERIMENT_COST_S.get(experiment_id, DEFAULT_COST_S)


def longest_first(
    tasks: Sequence[Tuple[str, Optional[str]]]
) -> list:
    """Sort ``(experiment_id, unit)`` pairs longest-first.

    Ties (and unknown experiments, which all get the default cost)
    break on the id/unit pair so the dispatch order — and therefore the
    worker scheduling — is deterministic for a given task set.
    """
    return sorted(
        tasks,
        key=lambda task: (-task_cost(task[0], task[1]), task[0], task[1] or ""),
    )
