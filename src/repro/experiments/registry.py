"""Experiment registry and the paper-vs-measured report format.

Every experiment module exposes ``run(result, store)``: ground truth
(world, peerbook, config, growth log) comes from the
:class:`~repro.simulation.engine.SimulationResult`, and chain history
and ledger state from its ETL replica, the
:class:`~repro.etl.store.EtlStore` that :func:`run_experiment` hands
over.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.errors import AnalysisError

__all__ = [
    "Row",
    "ExperimentReport",
    "EXPERIMENTS",
    "run_experiment",
    "format_report",
    "report_payload",
    "report_from_payload",
    "reports_digest",
]

Number = Union[int, float]


@dataclass(frozen=True)
class Row:
    """One paper-vs-measured comparison line."""

    label: str
    paper: Optional[Number]
    measured: Number
    unit: str = ""
    note: str = ""

    def matches_within(self, relative: float) -> bool:
        """Whether measured is within ``relative`` of the paper value."""
        if self.paper is None:
            return True
        if self.paper == 0:
            return abs(self.measured) <= relative
        return abs(self.measured - self.paper) / abs(self.paper) <= relative


@dataclass
class ExperimentReport:
    """Everything one experiment produced, printable."""

    experiment_id: str
    title: str
    rows: List[Row] = field(default_factory=list)
    #: Raw series for figure-shaped experiments (CDFs, time series).
    series: Dict[str, list] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


#: experiment id → module path (module must expose ``run(result, store)``).
_EXPERIMENT_MODULES: Dict[str, str] = {
    "headline_s3": "repro.experiments.headline_s3",
    "fig02": "repro.experiments.fig02",
    "fig03": "repro.experiments.fig03",
    "fig04": "repro.experiments.fig04",
    "fig05": "repro.experiments.fig05",
    "s4_3": "repro.experiments.s4_3",
    "fig06": "repro.experiments.fig06",
    "fig07": "repro.experiments.fig07",
    "fig08": "repro.experiments.fig08",
    "table1": "repro.experiments.table1",
    "fig09": "repro.experiments.fig09",
    "fig10": "repro.experiments.fig10",
    "fig11": "repro.experiments.fig11",
    "s7_1": "repro.experiments.s7_1",
    "s7_2": "repro.experiments.s7_2",
    "s8_1": "repro.experiments.s8_1",
    "fig12": "repro.experiments.fig12",
    "fig13": "repro.experiments.fig13",
    "fig14": "repro.experiments.fig14",
    "fig15": "repro.experiments.fig15",
    "s9_1": "repro.experiments.s9_1",
}


class _Registry(dict):
    """Lazy experiment loader: imports modules on first access."""

    def __missing__(self, key: str) -> Callable:
        module_path = _EXPERIMENT_MODULES.get(key)
        if module_path is None:
            raise AnalysisError(
                f"unknown experiment {key!r}; known: {sorted(_EXPERIMENT_MODULES)}"
            )
        module = importlib.import_module(module_path)
        self[key] = module.run
        return self[key]

    def ids(self) -> List[str]:
        """All registered experiment ids."""
        return sorted(_EXPERIMENT_MODULES)

    def descriptions(self) -> Dict[str, str]:
        """id → one-line description (each module's docstring headline)."""
        described = {}
        for experiment_id in self.ids():
            module = importlib.import_module(_EXPERIMENT_MODULES[experiment_id])
            doc = (module.__doc__ or "").strip()
            described[experiment_id] = doc.splitlines()[0] if doc else ""
        return described


EXPERIMENTS = _Registry()


def run_experiment(experiment_id: str, result) -> ExperimentReport:
    """Run one experiment against a simulation result and its ETL
    replica: the store
    :func:`~repro.experiments.context.result_store` keeps for the
    result's spec digest."""
    from repro.experiments.context import result_store

    run = EXPERIMENTS[experiment_id]
    return run(result, result_store(result))


def format_report(report: ExperimentReport) -> str:
    """Render a report as an aligned text table."""
    lines = [f"== {report.experiment_id}: {report.title} =="]
    if report.rows:
        label_width = max(len(r.label) for r in report.rows)
        for row in report.rows:
            paper = "—" if row.paper is None else _fmt(row.paper)
            measured = _fmt(row.measured)
            unit = f" {row.unit}" if row.unit else ""
            note = f"   ({row.note})" if row.note else ""
            lines.append(
                f"  {row.label:<{label_width}}  paper={paper:>12}{unit}  "
                f"measured={measured:>12}{unit}{note}"
            )
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def report_payload(report: ExperimentReport) -> Dict:
    """A report as a canonical JSON-safe dict (digest/IPC ingredient).

    Numpy scalars and arrays that experiments leave in ``series`` are
    normalised to plain Python numbers/lists, so the payload both
    pickles cheaply across process boundaries and serialises to the
    same JSON bytes regardless of which process produced it.
    """
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "rows": [
            {
                "label": row.label,
                "paper": _json_safe(row.paper),
                "measured": _json_safe(row.measured),
                "unit": row.unit,
                "note": row.note,
            }
            for row in report.rows
        ],
        "series": {
            name: _json_safe(report.series[name])
            for name in sorted(report.series)
        },
        "notes": list(report.notes),
    }


def report_from_payload(payload: Dict) -> ExperimentReport:
    """Inverse of :func:`report_payload`."""
    return ExperimentReport(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        rows=[
            Row(
                label=row["label"],
                paper=row["paper"],
                measured=row["measured"],
                unit=row["unit"],
                note=row["note"],
            )
            for row in payload["rows"]
        ],
        series=dict(payload["series"]),
        notes=list(payload["notes"]),
    )


def reports_digest(reports) -> str:
    """SHA-256 over the canonical JSON of a sequence of reports.

    Equal digests mean byte-identical report content — the check the
    serial-vs-parallel determinism tests and the CI e2e job assert.
    """
    import hashlib
    import json

    digest = hashlib.sha256()
    for report in reports:
        payload = json.dumps(
            report_payload(report), sort_keys=True, separators=(",", ":")
        )
        digest.update(payload.encode("utf-8"))
    return digest.hexdigest()


def _json_safe(value):
    """Recursively coerce numpy scalars/arrays to plain Python values."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if hasattr(value, "tolist"):  # numpy scalar or array
        return _json_safe(value.tolist())
    if hasattr(value, "item"):  # zero-dim numpy scalar
        return value.item()
    raise AnalysisError(
        f"non-serialisable value in report payload: {type(value).__name__}"
    )


def _fmt(value: Number) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"
