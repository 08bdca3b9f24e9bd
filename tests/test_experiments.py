"""Experiment-registry tests: every registered experiment runs and its
report has the structural invariants the paper comparison relies on."""

import pytest

from repro.errors import AnalysisError
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentReport,
    Row,
    format_report,
    reports_digest,
    run_experiment,
)

#: Experiments cheap enough to run under every test profile.
FAST_EXPERIMENTS = [
    "headline_s3", "fig02", "fig03", "fig04", "fig05", "s4_3", "fig06",
    "fig07", "fig08", "table1", "fig09", "fig10", "fig11", "s7_1",
    "s7_2", "fig13", "fig14", "s9_1",
]

#: Field/coverage experiments (seconds each on the small scenario),
#: with their ``reports_digest`` on ``resolve("small", seed=7)``. The
#: digests pin the field data plane byte for byte: a change to what the
#: field experiments keep while they run must leave them unchanged.
HEAVY_EXPERIMENTS = {
    "fig12": "9f229b7082ae2c145f4030fc6c9252757ab48aeaef936db961c4d1ad5904ad84",
    "fig15": "27ff985cdf7a9d13ae57d649474833af2afbdaacf3b3ce25e954a762d780f5cb",
    "s8_1": "369ca4e3b6c1987d6bf477748d26083db07a01cecc37e4eb7193b66bbb2b4ab0",
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert {*FAST_EXPERIMENTS, *HEAVY_EXPERIMENTS} == set(EXPERIMENTS.ids())

    def test_unknown_id_rejected(self, small_result):
        with pytest.raises(AnalysisError):
            run_experiment("fig99", small_result)


@pytest.mark.parametrize("experiment_id", FAST_EXPERIMENTS)
def test_fast_experiment_runs(experiment_id, small_result):
    report = run_experiment(experiment_id, small_result)
    assert isinstance(report, ExperimentReport)
    assert report.experiment_id == experiment_id
    assert report.rows, f"{experiment_id} produced no rows"
    rendered = format_report(report)
    assert experiment_id in rendered
    for row in report.rows:
        assert isinstance(row.measured, (int, float))


@pytest.mark.parametrize("experiment_id", HEAVY_EXPERIMENTS)
def test_heavy_experiment_runs(experiment_id, small_result):
    report = run_experiment(experiment_id, small_result)
    assert report.rows
    assert reports_digest([report]) == HEAVY_EXPERIMENTS[experiment_id]


class TestRowSemantics:
    def test_matches_within(self):
        row = Row("x", paper=10.0, measured=11.0)
        assert row.matches_within(0.15)
        assert not row.matches_within(0.05)

    def test_matches_within_no_paper_value(self):
        assert Row("x", paper=None, measured=123.0).matches_within(0.0)

    def test_matches_within_zero_paper(self):
        assert Row("x", paper=0, measured=0.0).matches_within(0.1)
        assert not Row("x", paper=0, measured=1.0).matches_within(0.1)

    def test_format_handles_units_and_notes(self):
        report = ExperimentReport("t", "Title", rows=[
            Row("metric", 1.0, 2.0, unit="km", note="why"),
            Row("count", None, 1234),
        ])
        rendered = format_report(report)
        assert "km" in rendered and "why" in rendered and "1,234" in rendered


class TestPaperComparison:
    """The headline quantitative matches this reproduction claims."""

    def test_key_rows_within_tolerance(self, small_result):
        # (experiment, row label, relative tolerance)
        expectations = [
            ("headline_s3", "PoC share of transactions (descaled)", 0.02),
            ("fig07", "transfers carrying 0 DC", 0.05),
            ("fig08", "Console share of channel txns", 0.10),
            ("fig10", "relayed fraction of listening peers", 0.15),
            ("s4_3", "owners with exactly 1 hotspot", 0.15),
        ]
        for experiment_id, label, tolerance in expectations:
            report = run_experiment(experiment_id, small_result)
            row = next(r for r in report.rows if r.label == label)
            assert row.matches_within(tolerance), (
                f"{experiment_id}/{label}: paper={row.paper} "
                f"measured={row.measured}"
            )
