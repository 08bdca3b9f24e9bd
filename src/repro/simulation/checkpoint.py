"""Checkpoint directories: the integrity checks and the two-half load.

A checkpoint is the directory :meth:`WorldState.save
<repro.simulation.state.WorldState.save>` writes at a day boundary,
whether a mid-run checkpoint or a scenario-cache entry (a finished
run's final checkpoint): ``chain.log``, ``state.json`` and
``meta.json`` (see :mod:`repro.simulation.state` for what each holds).

A load splits in two (:class:`Checkpoint`). Every integrity check runs
up front and parses no world and decodes no block; then the **chain
half** (the log-backed chain and its replayed ledger) and the **world
half** (everything ``state.json`` holds) are each built on their own.
A resume builds both; a warm-loaded result builds each on first read.

This module loads no numpy and none of the day loop: a process that
follows a cached run's chain (``python -m repro.etl ingest``,
``repro.serve --scenario`` on a missing store) checks the entry and
replays its chain with the chain package, the scenario spec and this
module alone. Only :meth:`Checkpoint.build_world` imports
:class:`~repro.simulation.state.WorldState`, when it runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union,
)

from repro import obs
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.chain.chainlog import ChainLog
from repro.chain.serialize import (
    block_from_record,
    chain_log_extent,
    open_chain_log,
    replay_chain_log,
)
from repro.chain.varmap import ChainVars
from repro.errors import ChainError, SimulationError
from repro.simulation.scenario import ScenarioConfig

if TYPE_CHECKING:
    from repro.simulation.state import WorldState

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "Checkpoint", "read_meta"]

#: Bump when the checkpoint layout changes incompatibly. It versions
#: mid-run checkpoints and scenario-cache entries alike (the entry
#: directory name carries it), since both are this one format.
#:
#: v3: the chain is a framed binary chain log (``chain.log``,
#: :mod:`repro.chain.chainlog`) whose saves extend the previous
#: checkpoint's file by raw frame copy; ``meta.json`` records
#: ``chain_log_tail`` (the digest-chain state at the recorded extent) so
#: a *different process* can keep extending the log after one prefix
#: verification.
#:
#: v4: a scenario-cache entry is a finished run's final checkpoint,
#: replacing the separate result-snapshot layout, and ``meta.json`` no
#: longer restates that layout's version.
#:
#: v5: the config moves from ``state.json`` into ``meta.json``, so a
#: load checks that a run finished, and reads its config, without
#: parsing the world.
CHECKPOINT_SCHEMA_VERSION = 5

_CHAIN_FILE = "chain.log"
_STATE_FILE = "state.json"
_META_FILE = "meta.json"


def _sha256_prefix(
    handle: IO[bytes], limit: Optional[int] = None
) -> Tuple[str, "hashlib._Hash", int]:
    """SHA-256 of the next ``limit`` bytes of ``handle`` (all by
    default).

    Returns ``(hexdigest, live hash object, bytes hashed)`` — callers
    that keep extending the file reuse the hash object instead of
    re-reading the prefix.
    """
    sha = hashlib.sha256()
    size = 0
    remaining = limit
    while remaining is None or remaining > 0:
        step = 1 << 20 if remaining is None else min(1 << 20, remaining)
        chunk = handle.read(step)
        if not chunk:
            break
        sha.update(chunk)
        size += len(chunk)
        if remaining is not None:
            remaining -= len(chunk)
    return sha.hexdigest(), sha, size


#: ScenarioConfig fields declared as tuples (JSON round-trips them as
#: lists, so they need re-tupling on load).
_TUPLE_FIELDS = ("mining_pools", "commercial_fleets", "gossip_cliques")


def _config_from_dict(payload: Dict[str, Any]) -> ScenarioConfig:
    """The saved config, unvalidated: a checkpoint may hold a config
    that strict spec validation refuses (a day-capped test run)."""
    fields = dict(payload)
    for name in _TUPLE_FIELDS:
        if name in fields:
            fields[name] = tuple(tuple(item) for item in fields[name])
    return ScenarioConfig(**fields)


def read_meta(directory: Union[str, Path]) -> Dict[str, Any]:
    """The checkpoint's meta dict (schema, seed, day, the config and
    its digest, the extents and digests of the other two files).

    Raises:
        SimulationError: when the directory is not a checkpoint.
    """
    try:
        with open(Path(directory) / _META_FILE, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SimulationError(
            f"unreadable checkpoint meta in {directory}: {exc}"
        ) from exc


class Checkpoint:
    """A checkpoint directory that passed every integrity check, its
    two halves not yet built.

    :meth:`open` runs the checks: ``meta.json``'s schema, that its
    config digests to its ``config_digest``, the SHA-256 of
    ``state.json``, and ``chain.log``'s SHA-256, frame digest chain and
    frame count. It parses no world and decodes no block, and it keeps
    both files open, so each half is later built from exactly the bytes
    it checked:

    * the **chain half** (:meth:`build_chain`): the log-backed chain,
      its ledger replayed from the frames the scan indexed;
    * the **world half** (:meth:`build_world`): everything
      ``state.json`` holds, restored into a
      :class:`~repro.simulation.state.WorldState`.

    :meth:`WorldState.load <repro.simulation.state.WorldState.load>`
    builds both, for a resume. A finished run's result builds each on
    its first read (:meth:`chain`, :meth:`world`): no consumer of one
    needs both. Every build records a ``cache.half_loads{half=}``
    counter, a ``cache.half_load_s{half=}`` timer and a
    ``cache.half_load`` trace event, so a trace shows which halves each
    process built.
    """

    def __init__(
        self,
        directory: Path,
        meta: Dict[str, Any],
        config: ScenarioConfig,
        chain_log: ChainLog,
        chain_sha: "hashlib._Hash",
        state_fd: int,
    ) -> None:
        self.directory = directory
        self.meta = meta
        self.config = config
        self._chain_log = chain_log
        self._chain_sha = chain_sha
        self._state_fd = state_fd
        self._chain: Optional[Blockchain] = None
        self._world: Optional[WorldState] = None

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "Checkpoint":
        """Check ``directory`` and open its files (see the class
        docstring).

        Raises:
            SimulationError: when the directory is not a checkpoint, is
                schema-incompatible, or fails an integrity check.
        """
        # At call time: repro.scenarios imports this package.
        from repro.scenarios.spec import spec_digest

        directory = Path(directory)
        meta = read_meta(directory)
        schema = meta.get("schema")
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported checkpoint schema {schema!r} in {directory} "
                f"(this build reads schema {CHECKPOINT_SCHEMA_VERSION})"
            )
        try:
            config = _config_from_dict(meta["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(
                f"corrupt checkpoint: no readable config in "
                f"{directory / _META_FILE}: {exc!r}"
            ) from exc
        if spec_digest(config) != meta.get("config_digest"):
            raise SimulationError(
                f"corrupt checkpoint: the config in {directory / _META_FILE}"
                f" does not digest to its config_digest"
            )
        chain_path = directory / _CHAIN_FILE
        if not chain_path.exists():
            raise SimulationError(f"corrupt checkpoint: {chain_path} missing")
        state_path = directory / _STATE_FILE
        if not state_path.exists():
            raise SimulationError(f"corrupt checkpoint: {state_path} missing")
        state_fd = os.open(state_path, os.O_RDONLY)
        try:
            with open(state_fd, "rb", closefd=False) as handle:
                actual = _sha256_prefix(handle)[0]
            if actual != meta.get("state_sha256"):
                raise SimulationError(
                    f"corrupt checkpoint: {_STATE_FILE} digest mismatch "
                    f"({actual[:12]}… != recorded "
                    f"{str(meta.get('state_sha256'))[:12]}…)"
                )
            # The scan reads exactly ``chain_bytes``: an in-progress
            # incremental save may have appended past the recorded
            # extent (hardlinked inode), which this meta does not
            # describe.
            try:
                chain_log, chain_sha = open_chain_log(chain_path, meta)
            except ChainError as exc:
                # Torn frames, digest-chain breaks, a wrong extent.
                raise SimulationError(f"corrupt checkpoint: {exc}") from exc
        except BaseException:
            os.close(state_fd)
            raise
        return cls(directory, meta, config, chain_log, chain_sha, state_fd)

    @property
    def day(self) -> Optional[int]:
        """Days the checkpointed run had completed."""
        return self.meta.get("day")

    def chain(self) -> Blockchain:
        """The chain half of a finished run, built on the first call.

        Its blocks stay in the checkpoint's own ``chain.log``, read
        through the descriptor :meth:`open` verified: nothing appends
        to a finished run, so it needs no copy.
        """
        if self._chain is None:
            self._chain = self.build_chain(copy=False)
        return self._chain

    def tip(self) -> Block:
        """The run's tip block, decoded from the last verified frame
        when the chain half is not built: no replay."""
        if self._chain is not None:
            return self._chain.tip
        log = self._chain_log
        return block_from_record(json.loads(log.payload(len(log) - 1)))

    def world(self) -> WorldState:
        """The world half, built on the first call. The state's
        ``chain`` is :meth:`chain`, built when first read."""
        if self._world is None:
            self._world = self.build_world()
        return self._world

    def build_chain(self, copy: bool) -> Blockchain:
        """Replay the verified frames into a log-backed chain; ``copy``
        gives it an anonymous copy of the log to grow (see
        :func:`~repro.chain.serialize.replay_chain_log`)."""
        return self._build("chain", lambda: replay_chain_log(
            self._chain_log, ChainVars(), copy=copy
        ))

    def build_world(self, chain: Optional[Blockchain] = None) -> WorldState:
        """Restore the world half from ``state.json``, which is read
        once and closed. The state holds ``chain`` when given, and
        otherwise resolves its chain through :meth:`chain`."""
        # At call time: the world half is the numpy-backed simulator's
        # state, which a chain follower never builds.
        from repro.simulation.state import WorldState

        def restore() -> WorldState:
            fd, self._state_fd = self._state_fd, -1
            with open(fd, "rb") as handle:
                handle.seek(0)
                payload = json.loads(handle.read())
            return WorldState._restore(self.config, payload)

        state = self._build("world", restore)
        # Lets the first periodic save after a resume extend this
        # verified prefix without re-reading it.
        state._chain_cache = {
            "extent": chain_log_extent(self.meta),
            "sha": self._chain_sha,
            "tail": self._chain_log.tail_digest,
        }
        if chain is None:
            del state.chain
            state._chain_source = self.chain
        else:
            state.chain = chain
        return state

    def _build(self, half: str, build: Callable[[], Any]) -> Any:
        """Run one half's build, timed, counted and traced; a failure
        is a :class:`SimulationError` that names the checkpoint."""
        with obs.timer("cache.half_load_s", half=half) as timing:
            try:
                built = build()
            except Exception as exc:
                # Whatever it is: the files passed every check, and the
                # reader that trips over this may be far from the load.
                raise SimulationError(
                    f"cannot build the {half} half of checkpoint "
                    f"{self.directory}: {exc}"
                ) from exc
        obs.counter("cache.half_loads", half=half)
        obs.trace_event(
            "cache.half_load", half=half, entry=self.directory.name,
            wall_s=round(timing.elapsed, 4),
        )
        return built

    def __del__(self) -> None:  # pragma: no cover - GC timing
        if self._state_fd >= 0:
            os.close(self._state_fd)
