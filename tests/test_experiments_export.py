"""Figure-data export tests."""

import csv
import json

from repro.experiments.export import export_all, export_report
from repro.experiments.registry import run_experiment


class TestExportReport:
    def test_json_and_series_written(self, small_result, tmp_path):
        report = run_experiment("fig02", small_result)
        written = export_report(report, tmp_path)
        json_path = tmp_path / "fig02.json"
        assert json_path in written
        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "fig02"
        assert payload["rows"]
        series_csv = tmp_path / "fig02.moves_histogram.csv"
        assert series_csv.exists()
        rows = list(csv.reader(series_csv.open()))
        assert rows and len(rows[0]) == 2  # (moves, count) pairs

    def test_nested_series_flattened(self, small_result, tmp_path):
        report = run_experiment("fig03", small_result)
        export_report(report, tmp_path)
        long_moves = tmp_path / "fig03.long_moves.csv"
        rows = list(csv.reader(long_moves.open()))
        if rows:  # flattened ((lat, lon), (lat, lon)) → 4 columns
            assert len(rows[0]) == 4


class TestExportAll:
    def test_subset_with_summary(self, small_result, tmp_path):
        reports = [
            run_experiment(experiment_id, small_result)
            for experiment_id in ("fig02", "fig04")
        ]
        written = export_all(reports, tmp_path)
        summary = tmp_path / "summary.csv"
        assert summary in written
        rows = list(csv.reader(summary.open()))
        header, data = rows[0], rows[1:]
        assert header == ["experiment", "label", "paper", "measured", "unit"]
        experiments = {r[0] for r in data}
        assert experiments == {"fig02", "fig04"}
