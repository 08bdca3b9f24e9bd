"""Experiment-registry tests: every registered experiment runs and its
report has the structural invariants the paper comparison relies on."""

import os

import pytest

from repro.errors import AnalysisError
from repro.experiments.context import get_result
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentReport,
    Row,
    format_report,
    reports_digest,
    run_experiment,
)

#: Experiments cheap enough to run under every test profile, with their
#: ``reports_digest`` on ``resolve("small", seed=7)``: a change to what
#: any report reads or how it reads it must leave these unchanged.
FAST_EXPERIMENTS = {
    "headline_s3": "0ec518560f7e870de3c85f3bce6b2832ec37156e50d7e2470908468c57793e8b",
    "fig02": "8d8316ffbfaedcc6dbf6e875d30765199f99599475e37eb8bb53a1d4e50dab37",
    "fig03": "c46f2b14d69926de3eb16c69d1c269015ae9d3db6655fc0e14f8a78e210833a0",
    "fig04": "ed2ded6624351fbfb52ab926f1846adefbcecc5689c6c72fdf2a0bcb00e1dee1",
    "fig05": "c4b057eca2f6a8e0b22ceec23904614d5c196a549995f5c1abd607af028637ed",
    "s4_3": "3c4fbbfac881c6b04f14ed4c2cad77bfc15cc3243a92541abc67dbf9c75d06be",
    "fig06": "cacc36571ad6193c3fd1ac61a5d7ffc7ac3b897f8f75a89499a84dfdc1801bef",
    "fig07": "132c2c49b749b53d1fde02b2835b9dec1f277bc9a4279d9708220c223b36fe98",
    "fig08": "6a8348ed133d64dff722ab79e48d3c30ea8a95b027ebacdb1d6c78bf8b3d2db4",
    "table1": "2ca2c753fd7d57f882522017ee92ac0fe393fb223e21fad48aa73285e96c34d6",
    "fig09": "a8d27001866b78cc3750cb53599585ab21674e8ffa02ab5362338612ad096347",
    "fig10": "28d5c7a415cd71b8b254d334137074b07945505bb2305711092e74be97d293eb",
    "fig11": "c1b1839db999bc165c4828612e3f2ca5705dd7c34307c6b3c83c27f9a5d04c79",
    "s7_1": "0da199daddfa5bd9145a7b2981f5e5fdc533fab4ea56307a8937c8b362fdc815",
    "s7_2": "83918915f3d2a9d428e7b1d31c5e98f9ab1f39f2be870f71f26864fff102c056",
    "fig13": "32254c7a3523a8b6c8feca3b9652a63ebc14452479784137adb02f4e767a47cf",
    "fig14": "2d959922f13200706939adc009a1fafc690103278f74bf09ced178fb8ba45323",
    "s9_1": "2d7cb08e0cc8c9f291d6689871c1e3247ec6f3ae0c7498d10c65102cedb0e5a1",
}

#: Field/coverage experiments (seconds each on the small scenario),
#: with their ``reports_digest`` on ``resolve("small", seed=7)``. The
#: digests pin the field data plane byte for byte: a change to what the
#: field experiments keep while they run must leave them unchanged.
HEAVY_EXPERIMENTS = {
    "fig12": "9f229b7082ae2c145f4030fc6c9252757ab48aeaef936db961c4d1ad5904ad84",
    "fig15": "27ff985cdf7a9d13ae57d649474833af2afbdaacf3b3ce25e954a762d780f5cb",
    "s8_1": "369ca4e3b6c1987d6bf477748d26083db07a01cecc37e4eb7193b66bbb2b4ab0",
}

#: ``reports_digest`` of all 21 reports, in registry id order, at
#: ``paper`` seed 2021: the same contract at the scale EXPERIMENTS.md
#: reports.
PAPER_REPORTS_DIGEST = (
    "23b51fb37e99a737e8c800c3990f32b2ae811997f605364b3c995b1feeb6fa4c"
)


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
    assert reports_digest([report]) == FAST_EXPERIMENTS[experiment_id]


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


@pytest.mark.skipif(
    not os.environ.get("REPRO_PAPER_DIGEST"),
    reason="paper-scale build and 21 experiments (~2 min cold); set "
    "REPRO_PAPER_DIGEST=1 (the CI parallel-e2e job does)",
)
def test_paper_reports_digest():
    result = get_result("paper", seed=2021)
    reports = [run_experiment(eid, result) for eid in EXPERIMENTS.ids()]
    assert reports_digest(reports) == PAPER_REPORTS_DIGEST
