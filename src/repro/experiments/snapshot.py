"""Persisted results: a scenario-cache entry is the run's final checkpoint.

Building the paper scenario takes tens of seconds; analyses, benchmarks
and examples all want the same result. A result is persisted as the
final day-boundary state of the run that produced it, written by
:meth:`~repro.simulation.state.WorldState.save` — the one on-disk run
format, shared with mid-run checkpoints (``chain.log``, ``state.json``,
``meta.json``; see :mod:`repro.simulation.state`) and checked by
:mod:`repro.simulation.checkpoint`. So a second process reloads a
scenario in seconds instead of re-simulating, every file of the entry
is digest-checked on load, and a warm result equals the cold one in
everything it carries, the stale spatial index included.

* :func:`save_result` writes a result's final state.
* :func:`load_result` runs every integrity check of the entry up front
  (:meth:`~repro.simulation.checkpoint.Checkpoint.open`: the meta schema,
  the config digest, the finished run, and the SHA-256 of both files
  plus the chain log's frame digest chain and count), decoding no block
  and parsing no world. The
  :class:`~repro.simulation.engine.SimulationResult` it returns builds
  each half once, on first read: the chain half (log-backed, only the
  tip resident, its blocks read from the entry's own ``chain.log``) on
  ``result.chain``, the world half on any world field. An ETL ingest
  builds only the first, and loads no numpy; analyses that read the
  replica build only the second.
* :func:`result_digest` hashes a result's canonical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.simulation.checkpoint import Checkpoint
from repro.simulation.engine import SimulationResult

__all__ = [
    "ETL_DB_FILE",
    "result_digest",
    "save_result",
    "load_result",
]

#: The DeWi-style ETL replica materialised next to the run files by
#: :func:`repro.experiments.context.get_store`. Versioned by its own
#: schema stamp inside the database (``etl_meta``) and self-healed the
#: same way cache entries are: a corrupt or schema-stale db is
#: discarded and re-ingested from the cached chain.
ETL_DB_FILE = "etl.db"


def result_digest(result: SimulationResult) -> str:
    """SHA-256 over the canonical result bytes (chain + world state).

    The chain contributes its JSONL dump lines (the frame payloads of
    ``chain.log``), followed by a canonical JSON text of the world, the
    peerbook, the oracle walk and the owner maps. Two results digest
    equal iff they hold the same chain and world — the repo's working
    definition of "bit-identical scenarios". The text is built in
    memory only; it is the layout the cache entries stored before they
    became checkpoints, kept so that no pinned digest moves.
    """
    digest = hashlib.sha256()
    for text in result.chain.blocks.iter_record_texts():
        digest.update(text.encode("utf-8"))
    digest.update(_canonical_text(result).encode("utf-8"))
    return digest.hexdigest()


def _canonical_text(result: SimulationResult) -> str:
    """Everything but the chain, as the one canonical JSON text."""
    from repro.poc.cheats import GossipClique
    from repro.simulation.state import hotspot_payload, owner_payload

    cliques: Dict[int, List[str]] = {}
    hotspots: List[Dict[str, Any]] = []
    for hotspot in result.world.hotspots.values():
        if isinstance(hotspot.cheat, GossipClique):
            cliques.setdefault(
                hotspot.cheat.clique_id, sorted(hotspot.cheat.members)
            )
        hotspots.append(hotspot_payload(hotspot))

    owners = [
        owner_payload(owner) for owner in result.world.owners.values()
    ]

    canonical = {
        "config": dataclasses.asdict(result.config),
        "keypair_seq": result.world._keypair_seq,
        "cliques": {str(cid): members for cid, members in cliques.items()},
        "hotspots": hotspots,
        "owners": owners,
        "peerbook": [
            [entry.peer, entry.listen_addrs] for entry in result.peerbook
        ],
        "oracle_prices": list(result.oracle._prices),
        "growth_log": [dataclasses.asdict(row) for row in result.growth_log],
        "console_owner": result.console_owner,
        "oui_owners": {
            str(oui): owner for oui, owner in result.oui_owners.items()
        },
        "spammer_owners": result.spammer_owners,
    }
    return json.dumps(canonical, separators=(",", ":"))


def save_result(result: SimulationResult, directory: Union[str, Path]) -> None:
    """Write ``result``'s final state into ``directory`` (atomically
    replacing what is there; see :meth:`WorldState.save`)."""
    result.state.save(directory)


def load_result(directory: Union[str, Path]) -> SimulationResult:
    """Check a :func:`save_result` entry and return its result, whose
    halves are built when first read.

    Raises:
        SimulationError: when the directory is not a loadable finished
            run — unreadable or schema-foreign meta, a config that does
            not digest to the recorded one, a file that fails its
            recorded digest (a torn or corrupted entry), or a mid-run
            checkpoint. A half whose deferred build fails raises it
            too, naming the entry.
    """
    return SimulationResult.from_checkpoint(Checkpoint.open(directory))
