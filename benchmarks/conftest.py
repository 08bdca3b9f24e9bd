"""Benchmark fixtures.

Each bench regenerates one of the paper's tables/figures against a
simulated Helium history and asserts its qualitative shape (who wins, by
roughly what factor). The scenario builds once per session; select it
with ``REPRO_BENCH_SCENARIO=paper|small`` (default ``small`` so the
whole suite runs in a couple of minutes; ``paper`` gives the full
1/10-scale replica used for EXPERIMENTS.md numbers).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.context import get_result, result_store


def pytest_configure(config):
    """Keep heavy analysis benches to a handful of rounds."""
    if hasattr(config.option, "benchmark_min_rounds"):
        config.option.benchmark_min_rounds = 1
        config.option.benchmark_max_time = 2.0
        config.option.benchmark_warmup = "off"


@pytest.fixture(scope="session")
def result():
    """The shared simulation result all benches analyse."""
    scenario = os.environ.get("REPRO_BENCH_SCENARIO", "small")
    return get_result(scenario, seed=2021)


@pytest.fixture(scope="session")
def store(result):
    """The ETL replica of ``result``'s chain, which the analyses read."""
    return result_store(result)
