"""§8.1: basic functionality — the stationary best-case tests.

This experiment dominates the suite's wall clock (about two thirds of
it on a 2-vCPU host: 30 of 46 s on ``small``, 14 of 21 s at the
pipeline benchmark's 300 hotspots), so it decomposes into four
independent **units** — the May 2021 run and the three September
trials. Each unit seeds its own named streams from
``RngHub(result.config.seed)`` (stream derivation is a pure function of
seed and name, so a fresh hub per unit draws exactly the bytes the old
single-hub loop did), which makes the units order-independent and safe
to run in different processes: the farm fans them out as separate
tasks, and ``--shard-workers`` dispatches them through the process-wide
shard pool. :func:`merge_units` reassembles the report; serial
:func:`run` goes through the same unit/merge path, so parallel and
serial reports are byte-identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.analysis.empirical import StationaryReport, run_stationary
from repro.errors import AnalysisError
from repro.experiments.registry import ExperimentReport, Row
from repro.geo.geodesy import LatLon
from repro.radio.propagation import Environment
from repro.rng import RngHub
from repro.simulation.engine import SimulationResult

#: Independent work units, longest first (the May run simulates 24 h
#: against each September trial's 8 h) — dispatch order doubles as an
#: LPT schedule when the units fan out over workers.
UNITS: Tuple[str, ...] = ("may", "sept-0", "sept-1", "sept-2")


def _dense_site(result: SimulationResult) -> LatLon:
    """A residential site with good hotspot density (the Sept re-run)."""
    best = None
    best_density = -1
    for hotspot in result.world.online_hotspots():
        if not hotspot.in_us:
            continue
        density = result.world.density_near(hotspot.actual_location, 3.0)
        if density > best_density:
            best_density = density
            best = hotspot.actual_location
    if best is None:
        raise AnalysisError("no US hotspots to site the experiment near")
    return best


def run_unit(
    result: SimulationResult,
    unit: str,
    site: Optional[LatLon] = None,
) -> StationaryReport:
    """Run one §8.1 unit; deterministic per (result, unit).

    ``site`` is derived from the result when omitted — workers recompute
    it (same deterministic answer), the serial path computes it once and
    passes it to every unit.
    """
    if site is None:
        site = _dense_site(result)
    hub = RngHub(result.config.seed)
    if unit == "may":
        # May 2021 run: ~24 h with two ~2 h outage windows (firmware
        # release).
        return run_stationary(
            result.world, site, hub.stream("s8-may"),
            duration_hours=24.0,
            outages=[(6.0, 8.1), (17.5, 19.3)],
            environment=Environment.SUBURBAN,
        )
    if unit.startswith("sept-"):
        # September re-run: three ~8 h trials, no outages, denser
        # residential area.
        index = int(unit[len("sept-"):])
        if 0 <= index < 3:
            return run_stationary(
                result.world, site, hub.stream(f"s8-sept-{index}"),
                duration_hours=8.0,
                outages=None,
                environment=Environment.SUBURBAN,
            )
    raise AnalysisError(f"unknown s8_1 unit {unit!r}; known: {UNITS}")


def merge_units(units: Dict[str, StationaryReport]) -> ExperimentReport:
    """Assemble the §8.1 report from the four unit results.

    A pure function of the unit outputs — the merge neither draws
    randomness nor cares which process produced what, so any dispatch
    order yields the same report.
    """
    missing = [unit for unit in UNITS if unit not in units]
    if missing:
        raise AnalysisError(f"s8_1 merge missing units: {missing}")
    may = units["may"]
    trials = [units[f"sept-{i}"] for i in range(3)]
    total_sent = sum(t.packets_sent for t in trials)
    # "an overall PRR of 73.2% across three trials"
    september_prr = sum(t.prr * t.packets_sent for t in trials) / total_sent
    # Miss-run structure and ACK table reported over the largest trial.
    september = max(trials, key=lambda t: t.packets_sent)

    report = ExperimentReport(
        experiment_id="s8_1",
        title="Stationary best-case PRR (§8.1)",
    )
    report.rows = [
        Row("May run PRR (24 h, 2 outages)", 0.6861, may.prr),
        Row("May run PRR excluding outages", None,
            may.prr_excluding_outages,
            note="'in between these outages, almost all packets make it'"),
        Row("September PRR (3 trials)", 0.732, september_prr),
        Row("single-miss fraction of losses", 0.835,
            september.miss_runs.single_miss_fraction),
        Row("single-or-double fraction", 0.922,
            september.miss_runs.single_or_double_fraction),
        Row("longest miss run", 34, september.miss_runs.longest_run),
        Row("incorrect ACKs", 0, september.acks.incorrect_ack),
    ]
    report.series["may_miss_runs"] = sorted(may.miss_runs.runs.items())
    report.series["september_miss_runs"] = sorted(
        september.miss_runs.runs.items()
    )
    return report


def run(result: SimulationResult) -> ExperimentReport:
    """Both §8.1 runs: May (with firmware outages) and September.

    When the process has a matching experiment shard pool configured
    (``python -m repro.experiments --shard-workers N``), the four units
    fan out over its workers; otherwise they run serially in ``UNITS``
    order. Either way the report is identical.
    """
    from repro.parallel import shards

    gathered = shards.dispatch_s8_units(result, UNITS)
    if gathered is None:
        site = _dense_site(result)
        gathered = {
            unit: run_unit(result, unit, site=site) for unit in UNITS
        }
    return merge_units(gathered)
