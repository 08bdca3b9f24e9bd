"""Shared fixtures.

The small scenario takes a few seconds to build; it is session-scoped so
the whole analysis-layer test suite shares one chain, and one ETL
replica of it (the store the experiment registry hands its reports).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.etl.store import EtlStore
from repro.experiments.context import result_store
from repro.rng import RngHub
from repro.scenarios import resolve
from repro.simulation import SimulationEngine


@pytest.fixture(scope="session")
def small_result():
    """One fully simulated small scenario, shared across tests."""
    return SimulationEngine(resolve("small", seed=7).config).run()


@pytest.fixture(scope="session")
def small_store(small_result) -> EtlStore:
    """The ETL replica of ``small_result``'s chain, which the analyses
    read."""
    return result_store(small_result)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def hub() -> RngHub:
    """A fresh RngHub per test."""
    return RngHub(999)
