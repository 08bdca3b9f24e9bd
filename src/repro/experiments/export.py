"""Figure-data export: write a run's reports and series to disk.

``python -m repro.experiments`` prints paper-vs-measured tables; with
``--export DIR`` it also hands the reports it just computed to
:func:`export_all`, which writes the underlying data (CSV for series,
JSON for reports) so the figures can be re-plotted with any tool:

    from repro.experiments.export import export_all
    from repro.parallel import run_farm

    outcomes = run_farm("small", None, ["fig02", "fig13"])
    export_all([outcome.report for outcome in outcomes], "out/")

Layout::

    out/
      <experiment_id>.json          # rows + notes
      <experiment_id>.<series>.csv  # one CSV per series
      summary.csv                   # all comparison rows in one table
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.experiments.registry import ExperimentReport

__all__ = ["export_report", "export_all"]


def _series_rows(values: Iterable) -> List[List]:
    """Normalise a series into CSV rows."""
    rows: List[List] = []
    for item in values:
        if isinstance(item, (list, tuple)):
            flat: List = []
            for cell in item:
                if isinstance(cell, (list, tuple)):
                    flat.extend(cell)
                else:
                    flat.append(cell)
            rows.append(flat)
        else:
            rows.append([item])
    return rows


def export_report(report: ExperimentReport, out_dir: Union[str, Path]) -> List[Path]:
    """Write one report's JSON + series CSVs. Returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    payload = {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "rows": [
            {
                "label": row.label,
                "paper": row.paper,
                "measured": row.measured,
                "unit": row.unit,
                "note": row.note,
            }
            for row in report.rows
        ],
        "notes": report.notes,
        "series": sorted(report.series),
    }
    json_path = out / f"{report.experiment_id}.json"
    json_path.write_text(json.dumps(payload, indent=2))
    written.append(json_path)

    for name, values in report.series.items():
        csv_path = out / f"{report.experiment_id}.{name}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerows(_series_rows(values))
        written.append(csv_path)
    return written


def export_all(
    reports: Sequence[ExperimentReport], out_dir: Union[str, Path]
) -> List[Path]:
    """Export already computed reports, in order, then a ``summary.csv``
    with every paper-vs-measured row. Returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    summary_rows: List[List] = [["experiment", "label", "paper", "measured", "unit"]]
    for report in reports:
        written.extend(export_report(report, out))
        for row in report.rows:
            summary_rows.append([
                report.experiment_id, row.label, row.paper, row.measured,
                row.unit,
            ])
    summary_path = out / "summary.csv"
    with summary_path.open("w", newline="") as handle:
        csv.writer(handle).writerows(summary_rows)
    written.append(summary_path)
    return written
