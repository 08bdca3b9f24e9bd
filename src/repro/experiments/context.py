"""Shared scenario cache for experiments, benchmarks and examples.

Building the paper scenario takes ~30 s; every bench and example wants
the same chain. ``get_result`` memoises one result per resolved spec
digest within the process, and additionally keeps a persistent on-disk
cache so a *fresh* process reloads the scenario in seconds instead of
re-simulating.

Scenarios arrive as registry names (``"paper"``), paths to user spec
files (``"my-whatif.json"``), or already-resolved
:class:`~repro.scenarios.ResolvedScenario` objects — all three funnel
through :func:`repro.scenarios.resolve_any` into one validated config
whose canonical digest keys both the in-process memo and the disk
entry. Two specs that resolve to the same config therefore share one
cache entry, regardless of spelling, file path or label.

The disk cache lives under ``$XDG_CACHE_HOME/repro-scenarios`` (or
``~/.cache/repro-scenarios``). The ``REPRO_SCENARIO_CACHE`` environment
variable overrides it: set it to a directory to relocate the cache, or
to ``0`` / ``off`` to disable persistence entirely. Entries are keyed
by seed, the canonical spec digest and the checkpoint schema version,
so stale entries are never mistaken for current ones.

An entry is the finished run's final day-boundary checkpoint
(:mod:`repro.experiments.snapshot`): the format ``--checkpoint-dir``
holds mid-run. A disk hit runs every integrity check of the entry up
front, inside ``get_result`` — a damaged entry warns, is discarded and
is rebuilt there — and also checks that the entry's config digests to
the one asked for. The result it returns builds its chain half and its
world half each on first read: ``python -m repro.etl ingest`` and
``repro.serve --scenario`` read only the chain, a farm worker only the
world (its analyses read the replica). A resumable cold build
(``checkpoint_every``) publishes its ``.ckpt`` sibling as the entry
once the final state is saved into it.

``get_store`` materialises the DeWi-style ETL replica (``etl.db``,
:mod:`repro.etl`) alongside the run files inside the same entry: the
first call ingests the cached chain, later calls resume from the
store's checkpoint, and a store already at the result's tip is used as
it is (a warm run that finds its replica current builds no chain
half). A corrupt or schema-stale database self-heals exactly like a
bad cache entry — warn, discard, re-ingest — and never crashes the
caller. The replica is the only source of chain history and ledger
state for the analyses: ``result_store`` hands
:func:`~repro.experiments.registry.run_experiment` the store kept for
a result's spec digest, ingested from that very result's chain when it
is first asked for. ``get_result`` alone never ingests.
"""

from __future__ import annotations

import os
import re
import shutil
import sqlite3
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Optional, Union

from repro import obs
from repro.errors import EtlError, ReproError
from repro.etl.ingest import ingest_chain
from repro.etl.store import EtlStore
from repro.experiments import snapshot
from repro.scenarios import ResolvedScenario, resolve_any, spec_digest
from repro.simulation.checkpoint import CHECKPOINT_SCHEMA_VERSION, read_meta
from repro.simulation.engine import SimulationEngine, SimulationResult

__all__ = [
    "ensure_snapshot",
    "get_result",
    "get_store",
    "open_replica",
    "result_store",
    "scenario_cache_dir",
]

ScenarioRef = Union[str, ResolvedScenario]

_CACHE: Dict[str, SimulationResult] = {}
_STORES: Dict[str, EtlStore] = {}

_ENV_VAR = "REPRO_SCENARIO_CACHE"
_OFF_VALUES = {"0", "off", "none", "false"}


def scenario_cache_dir() -> Optional[Path]:
    """The persistent cache root, or ``None`` when caching is disabled."""
    override = os.environ.get(_ENV_VAR)
    if override is not None:
        if override.strip().lower() in _OFF_VALUES:
            return None
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-scenarios"


def _entry_dir(seed: int, digest: str) -> Optional[Path]:
    root = scenario_cache_dir()
    if root is None:
        return None
    return root / f"scn-seed{seed}-{digest[:12]}-v{CHECKPOINT_SCHEMA_VERSION}"


#: The name of an entry or of its ``.ckpt`` sibling; group 1 is the
#: schema version.
_ENTRY_NAME = re.compile(r"scn-seed\d+-[0-9a-f]{12}-v(\d+)(?:\.ckpt)?")


def _prune_stale_entries(root: Path) -> None:
    """Remove the entries (and ``.ckpt`` siblings) of older schema
    versions under ``root``. Never one of this version, which a reader
    may hold open, nor of a newer one, which another checkout reads."""
    try:
        paths = list(root.iterdir())
    except OSError:
        return  # no cache directory yet
    for path in paths:
        match = _ENTRY_NAME.fullmatch(path.name)
        if match and int(match.group(1)) < CHECKPOINT_SCHEMA_VERSION:
            shutil.rmtree(path, ignore_errors=True)
            obs.trace_event("cache.prune", entry=path.name)


def _load_from_disk(entry: Path, digest: str) -> Optional[SimulationResult]:
    if not (entry / "meta.json").exists():
        return None
    try:
        result = snapshot.load_result(entry)
        held = spec_digest(result.config)
        if held != digest:
            raise ReproError(
                f"entry holds config {held[:12]}…, not {digest[:12]}…"
            )
        return result
    except (ReproError, OSError, KeyError, ValueError, TypeError) as exc:
        warnings.warn(
            f"ignoring unreadable scenario cache entry {entry}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        # Remove the bad entry so the rebuilt result can replace it.
        shutil.rmtree(entry, ignore_errors=True)
        return None


def _save_to_disk(
    result: SimulationResult, entry: Path, staging: Optional[Path] = None
) -> None:
    """Save ``result`` into ``staging`` (the build's own checkpoint
    directory, whose chain log the save extends, or else a fresh temp
    directory) and publish that directory as ``entry``."""
    tmp = staging
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        if tmp is None:
            tmp = Path(tempfile.mkdtemp(
                prefix=entry.name + ".tmp-", dir=entry.parent
            ))
        snapshot.save_result(result, tmp)
        # Atomic publish: another process either sees the whole entry or
        # none of it. If someone beat us to it, keep theirs (the entry
        # may already hold their etl.db).
        try:
            os.rename(tmp, entry)
            tmp = None
        except OSError:
            pass
    except OSError as exc:
        warnings.warn(
            f"could not persist scenario cache entry {entry}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
    finally:
        # Whatever went wrong (ENOSPC mid-save, a lost publish race),
        # the partial temp entry must not outlive the call.
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def get_result(
    scenario: ScenarioRef = "paper",
    seed: Optional[int] = None,
    *,
    checkpoint_every: Optional[int] = None,
) -> SimulationResult:
    """A memoised simulation result for a scenario.

    ``scenario`` is a registry name, a path to a spec file, or an
    already-resolved :class:`~repro.scenarios.ResolvedScenario`.
    ``seed=None`` keeps the spec's own seed; an int overrides it.

    ``checkpoint_every=N`` makes a cold build resumable: the engine
    saves its full run state every N days into a ``.ckpt`` sibling of
    the cache entry, and a later cold call resumes from it instead of
    restarting at day 0 (resume is bit-identical to a fresh run). The
    final state is saved into the same directory, extending its chain
    log, which is then published as the entry. It is ignored on
    memo/disk hits and when persistence is disabled.
    """
    resolved = resolve_any(scenario, seed=seed)
    cached = _CACHE.get(resolved.digest)
    if cached is not None:
        obs.counter("cache.memo_hit", scenario=resolved.label)
        return cached
    entry = _entry_dir(resolved.config.seed, resolved.digest)
    if entry is not None:
        cached = _timed_load(entry, resolved)
    if cached is None:
        from repro.parallel.locks import build_lock

        with build_lock(entry):
            # Losing the lock race means the winner already built
            # and published this entry — load theirs, don't rebuild.
            if entry is not None:
                cached = _timed_load(entry, resolved)
            if cached is None:
                if entry is not None:
                    _prune_stale_entries(entry.parent)
                obs.counter("cache.build", scenario=resolved.label)
                obs.trace_event(
                    "cache.build.start", scenario=resolved.label,
                    seed=resolved.config.seed, digest=resolved.digest[:12],
                    entry=None if entry is None else entry.name,
                )
                ckpt = None
                if checkpoint_every and entry is not None:
                    ckpt = _checkpoint_dir(entry)
                with obs.timer("cache.build_s") as timing:
                    cached = _build_result(resolved, ckpt, checkpoint_every)
                obs.trace_event(
                    "cache.build.done", scenario=resolved.label,
                    seed=resolved.config.seed,
                    wall_s=round(timing.elapsed, 4),
                )
                if entry is not None:
                    _save_to_disk(cached, entry, ckpt)
                    _discard_checkpoint(entry)
    _CACHE[resolved.digest] = cached
    return cached


def _checkpoint_dir(entry: Path) -> Path:
    """The in-progress checkpoint sibling of a cache entry."""
    return entry.parent / (entry.name + ".ckpt")


def _discard_checkpoint(entry: Path) -> None:
    shutil.rmtree(_checkpoint_dir(entry), ignore_errors=True)


def _build_result(
    resolved: ResolvedScenario,
    ckpt: Optional[Path],
    checkpoint_every: Optional[int],
) -> SimulationResult:
    """Cold-build a scenario, checkpointing into ``ckpt`` when given and
    resuming the checkpoint already there (discarding it when stale or
    corrupt)."""
    config = resolved.config
    engine = None
    if ckpt is not None and (ckpt / "meta.json").exists():
        try:
            meta = read_meta(ckpt)
            if meta.get("config_digest") != resolved.digest:
                raise ReproError("checkpoint built from a different config")
            engine = SimulationEngine.resume(ckpt)
            obs.counter("cache.resume", scenario=resolved.label)
            obs.trace_event(
                "cache.resume", scenario=resolved.label, seed=config.seed,
                day=engine.state.day,
            )
        except (ReproError, OSError, KeyError, ValueError, TypeError) as exc:
            warnings.warn(
                f"ignoring unusable checkpoint {ckpt}: {exc}",
                RuntimeWarning,
                stacklevel=4,
            )
            shutil.rmtree(ckpt, ignore_errors=True)
            engine = None
    if engine is None:
        engine = SimulationEngine(config)
    if ckpt is None:
        result = engine.run()
    else:
        result = engine.run(
            checkpoint_every=checkpoint_every, checkpoint_dir=ckpt,
        )
    assert result is not None  # no stop_after_day → always completes
    return result


def _timed_load(
    entry: Path, resolved: ResolvedScenario
) -> Optional[SimulationResult]:
    """Disk load wrapped in hit/miss metrics and one trace event."""
    with obs.timer("cache.load_s") as timing:
        result = _load_from_disk(entry, resolved.digest)
    if result is None:
        obs.counter("cache.disk_miss", scenario=resolved.label)
        return None
    obs.counter("cache.disk_hit", scenario=resolved.label)
    obs.trace_event(
        "cache.load", scenario=resolved.label, seed=resolved.config.seed,
        entry=entry.name, wall_s=round(timing.elapsed, 4),
    )
    return result


def ensure_snapshot(
    scenario: ScenarioRef = "paper",
    seed: Optional[int] = None,
    *,
    checkpoint_every: Optional[int] = None,
) -> Optional[Path]:
    """Materialise the on-disk cache entry, its ETL replica included,
    and return its directory.

    Parallel workers rehydrate from this path instead of receiving the
    result over IPC, and open its ``etl.db`` read-only
    (:func:`open_replica`). Returns ``None`` when persistence is
    disabled (the farm then falls back to per-worker :func:`get_result`
    builds). ``checkpoint_every`` makes a cold build resumable — see
    :func:`get_result`.
    """
    resolved = resolve_any(scenario, seed=seed)
    entry = _entry_dir(resolved.config.seed, resolved.digest)
    if entry is None:
        return None
    result = get_result(resolved, checkpoint_every=checkpoint_every)
    if not (entry / "meta.json").exists():
        # The result was memoised before this cache dir existed (or an
        # earlier persist failed); publish it now so workers can load it.
        _save_to_disk(result, entry)
    if not (entry / "meta.json").exists():
        return None
    # Ingest now (a no-op on a current store) and close the writer: no
    # SQLite handle of ours should cross the fork into a worker.
    _materialise_store(result, entry / snapshot.ETL_DB_FILE).close()
    return entry


def get_store(
    scenario: ScenarioRef = "paper", seed: Optional[int] = None
) -> EtlStore:
    """The ETL replica of a scenario's chain, materialised and current.

    Lives at ``<cache entry>/etl.db`` next to the run files; when
    persistence is disabled the store is built in memory instead. The
    underlying ingest is incremental — repeat calls resume from the
    checkpoint — and a corrupt or schema-stale database is silently
    discarded and re-ingested (with a warning), mirroring cache-entry
    self-healing.
    """
    return result_store(get_result(scenario, seed))


def result_store(result: SimulationResult) -> EtlStore:
    """The store :func:`get_store` keeps for ``result``'s spec digest.

    The first call for a digest ingests ``result``'s own chain, into its
    cache entry's ``etl.db`` when the entry exists and in memory
    otherwise, so no second build or load happens.
    """
    digest = spec_digest(result.config)
    store = _STORES.get(digest)
    if store is None:
        entry = _entry_dir(result.config.seed, digest)
        path = None
        if entry is not None and (entry / "meta.json").exists():
            path = entry / snapshot.ETL_DB_FILE
        store = _STORES[digest] = _materialise_store(result, path)
    return store


def open_replica(entry: Union[str, Path], digest: str) -> None:
    """Serve this process's analyses of ``digest`` from the entry's
    ``etl.db``, read-only.

    Farm workers call this: the parent ingested the store before the
    fan-out (:func:`ensure_snapshot`), and even a no-op ingest rewrites
    the folded state tables in a write transaction, so a worker never
    opens a writer. When the file cannot be opened it warns, and the
    worker's first analysis ingests its own result in memory instead
    (:func:`result_store`).
    """
    path = Path(entry) / snapshot.ETL_DB_FILE
    try:
        _STORES[digest] = EtlStore(path, create=False, read_only=True)
    except EtlError as exc:
        warnings.warn(
            f"could not open ETL replica {path}: {exc}", RuntimeWarning,
            stacklevel=2,
        )
        _STORES.pop(digest, None)


def _materialise_store(
    result: SimulationResult, path: Optional[Path]
) -> EtlStore:
    """Open-or-create the ETL store at ``path`` and bring it current.

    Falls back to an in-memory store when ``path`` is ``None`` (cache
    disabled) or unusable, so callers always get a working store.
    """
    if path is not None:
        try:
            store = _open_self_healing(path)
            _bring_current(store, result)
            return store
        except (ReproError, sqlite3.Error, OSError) as exc:
            warnings.warn(
                f"could not materialise ETL store {path}: {exc}; "
                "falling back to an in-memory store",
                RuntimeWarning,
                stacklevel=3,
            )
    store = EtlStore()
    ingest_chain(result.chain, store)
    return store


def _bring_current(store: EtlStore, result: SimulationResult) -> None:
    """Ingest ``result``'s chain unless ``store`` already holds its tip.

    ``tip_hash`` commits with the ledger state in an ingest's last
    transaction, so a store at the result's tip height and hash is
    current; reading the tip of a warm result decodes one frame, where
    the ingest would replay the whole chain to find nothing to load.
    """
    tip = result.tip
    if (store.checkpoint_height, store.get_meta("tip_hash")) != (
        tip.height, tip.hash
    ):
        ingest_chain(result.chain, store)


def _open_self_healing(path: Path) -> EtlStore:
    """Open an ETL store, discarding a corrupt or schema-stale file."""
    try:
        return EtlStore(path)
    except EtlError as exc:
        warnings.warn(
            f"re-ingesting unusable ETL store {path}: {exc}",
            RuntimeWarning,
            stacklevel=4,
        )
        path.unlink()
        return EtlStore(path)
