"""Percentile selection, compare verdicts and span self time."""

from __future__ import annotations

import math

import pytest

from spans import Tracer, format_report, self_times
from verdicts import percentile, supported_quantile, verdict


def test_percentile_is_nearest_rank_and_caps_failures():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99
    with_failures = values[:95] + [math.inf] * 5
    assert percentile(with_failures, 0.99, cap=1000.0) == 1000.0
    assert percentile(with_failures, 0.9, cap=1000.0) == 90


@pytest.mark.parametrize("n, expected", [
    (19, 0.0), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9),
    (1000, 0.99), (10000, 0.999),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert supported_quantile(n) == expected


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 10.0]
    assert verdict(parent, faster, True, 0.1)["verdict"] == "better"
    assert verdict(parent, slower, True, 0.1)["verdict"] == "worse"
    assert verdict(parent, list(parent), True, 0.1)["verdict"] == "unchanged"
    assert verdict(noisy, list(noisy), True, 0.1)["verdict"] == "unresolved"
    # Higher-is-better metrics flip the direction.
    assert verdict(parent, slower, False, 0.1)["verdict"] == "better"
    outcome = verdict(parent, faster, True, 0.1)
    assert outcome["win_fraction"] == 1.0
    assert outcome["parent"][1] == pytest.approx(10.0, abs=0.02)


def test_self_time_subtracts_the_union_of_child_intervals():
    tracer = Tracer(True)
    root = tracer.add("bench.root", 0.0, 10.0, parent=None)
    tracer.add("client.a", 1.0, 3.0, parent=root)
    tracer.add("client.b", 2.0, 5.0, parent=root)  # overlaps client.a
    tracer.add("client.c", 8.0, 9.0, parent=root)
    own = self_times(tracer.spans)
    assert own[root] == pytest.approx(10.0 - 4.0 - 1.0)
    report = format_report(tracer.spans)
    assert "bench.root" in report and "client" in report


def test_merged_child_spans_hang_under_the_span_open_at_merge():
    child = Tracer(True, prefix="c")
    with child.span("analysis.fig02"):
        with child.span("simulation.SimulationEngine.run"):
            pass
    tracer = Tracer(True)
    with tracer.span("bench.pass") as pass_id:
        tracer.extend(child.spans, parent=tracer.current)
    ids = {s["name"]: s["id"] for s in tracer.spans}
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    assert parents["analysis.fig02"] == pass_id
    assert parents["simulation.SimulationEngine.run"] == ids["analysis.fig02"]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("bench.x") as span_id:
        pass
    assert span_id is None and tracer.spans == []
