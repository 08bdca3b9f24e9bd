"""Import budget of the serving process.

``python -m repro.serve serve`` must load only what serving needs: the
package re-exports resolve lazily, the scalar geodesy is numpy-free, and
read-only replicas keep a small page cache. A fresh interpreter is the
only place to see an import closure, so the closure checks run in a
subprocess.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.etl.store import PAGE_CACHE_KIB, EtlStore, ReadReplicas

SERVE_MODULES = ("repro.serve.server", "repro.serve.cli", "repro.etl.store")
FORBIDDEN = ("numpy", "repro.simulation", "repro.experiments")
LAZY_PACKAGES = (
    "repro", "repro.chain", "repro.core", "repro.etl", "repro.geo",
    "repro.serve",
)


def _loaded_after(statement: str) -> set:
    """Module names a fresh interpreter holds after running ``statement``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ),
    )
    script = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_serving_imports_no_numpy_simulation_or_experiments():
    loaded = _loaded_after("".join(f"import {m}\n" for m in SERVE_MODULES))
    assert set(SERVE_MODULES) <= loaded
    pulled = sorted(
        name for name in loaded
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )
    assert not pulled, pulled


def test_top_level_quickstart_import_still_works():
    loaded = _loaded_after(
        "from repro import SimulationEngine\n"
        "assert SimulationEngine.__module__ == 'repro.simulation.engine'"
    )
    assert "repro.simulation.engine" in loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_read_only_replica_caps_its_page_cache(tmp_path):
    # A negative cache_size is a size in KiB; SQLite's default is -2000.
    # The writer and every replica share one cap.
    path = tmp_path / "etl.db"
    with EtlStore(path) as writer:
        writer_kib = -writer.connection.execute("PRAGMA cache_size").fetchone()[0]
    replicas = ReadReplicas(path)
    try:
        replica_kib = -replicas.get().connection.execute(
            "PRAGMA cache_size"
        ).fetchone()[0]
    finally:
        replicas.close_all()
    assert writer_kib == replica_kib == PAGE_CACHE_KIB
