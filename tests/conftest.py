"""Shared fixtures.

The small scenario takes a few seconds to build; it is session-scoped so
the whole analysis-layer test suite shares one chain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import RngHub
from repro.scenarios import resolve
from repro.simulation import SimulationEngine


@pytest.fixture(scope="session")
def small_result():
    """One fully simulated small scenario, shared across tests."""
    return SimulationEngine(resolve("small", seed=7).config).run()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def hub() -> RngHub:
    """A fresh RngHub per test."""
    return RngHub(999)
