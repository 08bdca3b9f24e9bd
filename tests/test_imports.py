"""Import budgets of the serving process and of a reproduction.

``python -m repro.serve serve`` must load only what serving needs: the
package re-exports resolve lazily, the scalar geodesy is numpy-free,
nothing maps OpenSSL (no ``ssl``, no ``hashlib``, no ``http.server``
or ``http.client``, which import ``ssl``), and read-only replicas keep
a small page cache. A reproduction loads no module that none of its
steps uses: a cold build's lock loads no farm and a serial run no pool
(``multiprocessing``),
trace ids need no ``uuid`` and a spec loads ``difflib`` only to
suggest a fix for a misspelt key, and no analysis loads ``numpy.ma``.
A chain follower (a warm ``get_result``, its chain, ``ingest_chain``)
loads no numpy: the checkpoint checks and the chain replay need none.
A fresh interpreter is the only place to see an import closure, so the
closure checks run in a subprocess.
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
#: ``ssl`` and ``hashlib`` map libssl / libcrypto; ``http.server``,
#: ``http.client`` and ``email`` are the import chain that brought ``ssl``.
NO_OPENSSL = (
    "ssl", "_ssl", "hashlib", "_hashlib", "http.server", "http.client",
    "email",
)
LAZY_PACKAGES = (
    "repro", "repro.chain", "repro.core", "repro.etl", "repro.experiments",
    "repro.geo", "repro.parallel", "repro.serve", "repro.simulation",
)


def _loaded_after(statement: str, timeout: float = 60) -> set:
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
        text=True, timeout=timeout, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _pulled(loaded: set, forbidden) -> list:
    return sorted(
        name for name in loaded
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    )


@pytest.fixture(scope="module")
def serve_closure() -> set:
    return _loaded_after("".join(f"import {m}\n" for m in SERVE_MODULES))


def test_serving_imports_no_numpy_simulation_or_experiments(serve_closure):
    assert set(SERVE_MODULES) <= serve_closure
    assert not _pulled(serve_closure, FORBIDDEN)


def test_serving_imports_nothing_that_maps_openssl(serve_closure):
    assert not _pulled(serve_closure, NO_OPENSSL)


def test_serving_imports_no_uuid_or_platform(serve_closure):
    assert not _pulled(serve_closure, ("uuid", "platform"))


@pytest.mark.parametrize("statement, unused", [
    ("import repro.parallel.locks", "multiprocessing"),
    ("import repro.obs", "uuid"),
    ("import repro.scenarios", "difflib"),
    ("from repro.simulation import SimulationEngine", "numpy"),
    ("from repro.experiments import snapshot", "numpy"),
    ("from repro.experiments.context import get_result", "numpy"),
])
def test_a_module_loads_nothing_its_callers_do_not_use(statement, unused):
    loaded = _loaded_after(statement)
    assert statement.split()[1] in loaded
    assert not _pulled(loaded, (unused,))


@pytest.fixture()
def warm_small(small_result, tmp_path, monkeypatch):
    """A scenario cache, in ``REPRO_SCENARIO_CACHE``, that holds the
    ``small`` entry."""
    from repro.experiments import context, snapshot
    from repro.scenarios import resolve

    monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
    resolved = resolve("small")
    snapshot.save_result(
        small_result, context._entry_dir(resolved.config.seed, resolved.digest)
    )


def test_a_warm_chain_follower_loads_no_numpy(
    warm_small, small_store, tmp_path
):
    """Checking the entry, replaying its chain and ingesting it needs
    neither numpy nor the world state, and loads the same rows as a
    cold ingest."""
    digest = tmp_path / "digest"
    loaded = _loaded_after(
        "from repro.etl.ingest import ingest_chain\n"
        "from repro.etl.store import EtlStore\n"
        "from repro.experiments.context import get_result\n"
        "from repro.scenarios import resolve\n"
        "store = EtlStore()\n"
        "report = ingest_chain(get_result(resolve('small')).chain, store)\n"
        "assert report.blocks_ingested > 0\n"
        f"open({str(digest)!r}, 'w').write(store.content_digest())"
    )
    assert "repro.simulation.checkpoint" in loaded
    assert not _pulled(loaded, ("numpy", "repro.simulation.state"))
    assert digest.read_text() == small_store.content_digest()


def test_a_serial_farm_imports_no_multiprocessing(warm_small):
    """``--jobs 1`` runs its experiments in-process: only a pool needs
    ``multiprocessing``."""
    loaded = _loaded_after(
        "from repro.parallel import run_farm\n"
        "outcomes = run_farm('small', None, ['fig02'], jobs=1)\n"
        "assert outcomes[0].report.rows"
    )
    assert "repro.parallel.farm" in loaded
    assert not _pulled(loaded, ("multiprocessing",))


def test_serving_a_missing_store_ingests_a_warm_entry_without_numpy(
    warm_small, tmp_path
):
    db = str(tmp_path / "etl.db")
    loaded = _loaded_after(
        "from repro.serve.cli import _open_or_ingest\n"
        f"store = _open_or_ingest({db!r}, 'small', None)\n"
        "assert store.checkpoint_height > 0"
    )
    assert "repro.etl.ingest" in loaded
    assert not _pulled(loaded, ("numpy",))


def test_a_reproduction_never_imports_numpy_ma():
    """The analyses' medians and percentiles are numpy's numbers
    without ``numpy.ma``, which ``np.median`` and ``np.percentile``
    import to look for NaNs."""
    loaded = _loaded_after(
        "import os\n"
        "os.environ['REPRO_SCENARIO_CACHE'] = 'off'\n"
        "from repro.experiments.context import get_result\n"
        "from repro.experiments.registry import EXPERIMENTS, run_experiment\n"
        "result = get_result('small')\n"
        "for experiment_id in EXPERIMENTS.ids():\n"
        "    run_experiment(experiment_id, result)",
        timeout=300,
    )
    assert "repro.experiments.s8_1" in loaded
    assert not _pulled(loaded, ("numpy.ma",))


def test_a_trace_id_is_sixteen_lowercase_hex_digits(tmp_path):
    from repro.obs.trace import TraceWriter

    ids = set()
    for index in range(8):
        writer = TraceWriter(tmp_path / f"trace{index}.jsonl")
        writer.close()
        assert len(writer.trace_id) == 16
        assert set(writer.trace_id) <= set("0123456789abcdef")
        ids.add(writer.trace_id)
    assert len(ids) == 8


def test_a_misspelt_spec_key_still_gets_its_suggestion():
    # In a fresh interpreter: pytest itself imports difflib.
    loaded = _loaded_after(
        "from repro.errors import ScenarioSpecError\n"
        "from repro.scenarios import apply_overrides\n"
        "from repro.simulation.scenario import ScenarioConfig\n"
        "try:\n"
        "    apply_overrides(ScenarioConfig(), {'sed': 3}, 'unit-test')\n"
        "except ScenarioSpecError as exc:\n"
        "    assert \"did you mean 'seed'\" in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('a misspelt key was accepted')"
    )
    assert "difflib" in loaded


#: Drives a live server in the fresh interpreter over raw sockets (an
#: HTTP client library would itself import ``ssl``): every store route,
#: a cursor, a revalidation and a rejected head.
_SERVE_SCRIPT = """
import json, socket, sys, threading
from repro.serve.server import create_server
server = create_server(sys.argv[1], port=0, workers=2)
threading.Thread(target=server.serve_forever, daemon=True).start()
def get(path, extra=""):
    address = ("127.0.0.1", server.server_address[1])
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\\r\\n{extra}\\r\\n".encode())
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.decode().partition("\\r\\n\\r\\n")
    assert head.split()[1] in ("200", "304", "400", "404"), (path, head)
    return head, body
hotspot = "/hotspot/" + sys.argv[2]
cursor = json.loads(get("/hotspots?limit=1")[1])["next_cursor"]
get("/hotspots?limit=1&cursor=" + cursor)
etag = get("/stats")[0].split("ETag: ")[1].split("\\r\\n")[0]
get("/stats", f"If-None-Match: {etag}\\r\\n")
for path in ("/", hotspot, hotspot + "/witnesses",
             "/owner/" + json.loads(get(hotspot)[1])["owner"],
             "/coverage/dots", "/search?q=a", "/healthz", "/metrics",
             "/metrics?format=prometheus", "/no/such/route",
             "/hotspots?limit=-1", "/a rejected head"):
    get(path)
server.shutdown()
server.server_close()
"""


def test_serving_requests_import_nothing_that_maps_openssl(tmp_path):
    """Request-time imports count too: serve every route, then look."""
    from repro.etl import ingest_chain

    from tests.etl_chains import ChainBuilder

    builder = ChainBuilder(seed=5, n_hotspots=6)
    builder.grow(12)
    path = tmp_path / "etl.db"
    with EtlStore(path) as store:
        ingest_chain(builder.chain, store)
        gateway = store.hotspot_rows()[0][0]
    loaded = _loaded_after(
        "import sys\n"
        f"sys.argv = ['serve', {str(path)!r}, {gateway!r}]\n"
        + _SERVE_SCRIPT
    )
    assert "repro.serve.server" in loaded
    assert not _pulled(loaded, NO_OPENSSL)


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


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_lazy_package_binds_each_name_when_first_read(package):
    loaded = _loaded_after(
        f"import {package} as package\n"
        "bound = [name for name in package.__all__\n"
        "         if not name.startswith('__') and name in vars(package)]\n"
        "assert not bound, bound"
    )
    assert package in loaded


def test_read_only_replica_caps_its_page_cache(tmp_path):
    # A negative cache_size is a size in KiB; SQLite's default is -2000.
    # The writer and every replica share one cap.
    path = tmp_path / "etl.db"
    with EtlStore(path) as writer:
        writer_kib = -writer.connection.execute("PRAGMA cache_size").fetchone()[0]
    replicas = ReadReplicas(path)
    try:
        with replicas.lease() as replica:
            replica_kib = -replica.connection.execute(
                "PRAGMA cache_size"
            ).fetchone()[0]
    finally:
        replicas.close_all()
    assert writer_kib == replica_kib == PAGE_CACHE_KIB
