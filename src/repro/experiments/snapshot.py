"""Persistent scenario snapshots: save/load a full SimulationResult.

Building the paper scenario takes tens of seconds; analyses, benchmarks
and examples all want the same result. This module serialises everything
a :class:`~repro.simulation.engine.SimulationResult` carries — chain,
world ground truth, peerbook, oracle prices, growth log — so a second
process can reload it in a few seconds instead of re-simulating.

Design notes:

* The chain is stored as the framed ``chain.log`` that day-level
  checkpoints use (:func:`repro.chain.serialize.write_chain_log`), and
  ``meta.json`` records its block count, byte extent and SHA-256. A
  warm load streams it (:func:`repro.chain.serialize.load_chain_log`):
  every frame is verified, its transactions replay through the ledger,
  and the frame is copied into the process's own anonymous chain log,
  so the reloaded chain is log-backed with only its tip resident. A
  torn or corrupt entry fails the load (and the cache rebuilds it)
  instead of yielding a shorter chain.
* The world is *reconstructed*, not pickled: cities and the AS universe
  are deterministic functions of the scenario seed (named RNG streams),
  so the snapshot stores only per-hotspot/owner facts and resolves
  cities by name and ISPs by ASN against the regenerated universe.
* Gossip cliques are shared objects in the live world; the snapshot
  stores one member set per ``clique_id`` and restores one shared
  instance per clique.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.chain.serialize import load_chain_log, write_chain_log
from repro.economics.oracle import PriceOracle
from repro.errors import SimulationError
from repro.geo.geodesy import LatLon
from repro.p2p.backhaul import BackhaulAssignment
from repro.p2p.peerbook import Peerbook, PeerEntry
from repro.poc.cheats import CheatStrategy, GossipClique, RssiLiar, SilentMover
from repro.radio.propagation import Environment
from repro.rng import RngHub
from repro.simulation.engine import GrowthLogRow, SimulationResult
from repro.simulation.scenario import ScenarioConfig
from repro.simulation.world import SimHotspot, SimOwner, World

__all__ = [
    "SCHEMA_VERSION",
    "ETL_DB_FILE",
    "config_digest",
    "result_digest",
    "save_result",
    "load_result",
    "hotspot_payload",
    "hotspot_from_payload",
    "owner_payload",
    "owner_from_payload",
]

#: Bump when the snapshot layout (or anything it implicitly depends on,
#: like reconstruction semantics) changes incompatibly. Old cache
#: entries are simply ignored.
#:
#: v2: the engine now iterates gossip-clique members in sorted order, so
#: scenario bytes no longer depend on the per-process ``PYTHONHASHSEED``;
#: entries built by the order-sensitive engine must miss.
#:
#: v3: the chain is the framed ``chain.log`` (checkpoint layout) instead
#: of ``chain.jsonl``, and ``meta.json`` records its extent (block
#: count, bytes, SHA-256).
SCHEMA_VERSION = 3

_CHAIN_FILE = "chain.log"
_SNAPSHOT_FILE = "snapshot.json"
_META_FILE = "meta.json"

#: The DeWi-style ETL replica materialised next to the snapshot files
#: by :func:`repro.experiments.context.get_store`. Versioned by its own
#: schema stamp inside the database (``etl_meta``) and self-healed the
#: same way snapshot entries are: a corrupt or schema-stale db is
#: silently discarded and re-ingested from the cached chain.
ETL_DB_FILE = "etl.db"

#: ScenarioConfig fields declared as tuples (JSON round-trips them as
#: lists, so they need re-tupling on load).
_TUPLE_FIELDS = ("mining_pools", "commercial_fleets", "gossip_cliques")


def config_digest(config: ScenarioConfig) -> str:
    """Stable hash of every scenario knob (cache-key ingredient)."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_digest(result: SimulationResult) -> str:
    """SHA-256 over the canonical result bytes (chain + world state).

    The chain contributes its JSONL dump lines (the frame payloads of
    ``chain.log``), followed by the ``snapshot.json`` text
    :func:`save_result` writes. Two results digest equal iff they hold
    the same chain and world — the repo's working definition of
    "bit-identical scenarios" (meta.json is excluded: it restates the
    schema version and config digest, which the cache key already pins).
    """
    digest = hashlib.sha256()
    for text in result.chain.blocks.iter_record_texts():
        digest.update(text.encode("utf-8"))
    digest.update(_snapshot_text(result).encode("utf-8"))
    return digest.hexdigest()


def _config_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    return dataclasses.asdict(config)


def _config_from_dict(payload: Dict[str, Any]) -> ScenarioConfig:
    fields = dict(payload)
    for name in _TUPLE_FIELDS:
        if name in fields:
            fields[name] = tuple(tuple(item) for item in fields[name])
    return ScenarioConfig(**fields)


def _latlon_out(point: Optional[LatLon]) -> Optional[List[float]]:
    if point is None:
        return None
    return [point.lat, point.lon]


def _latlon_in(value: Optional[List[float]]) -> Optional[LatLon]:
    if value is None:
        return None
    return LatLon(float(value[0]), float(value[1]))


def _cheat_out(cheat: Optional[CheatStrategy]) -> Optional[Dict[str, Any]]:
    if cheat is None:
        return None
    if isinstance(cheat, GossipClique):
        return {"type": "gossip_clique", "clique_id": cheat.clique_id}
    if isinstance(cheat, RssiLiar):
        return {
            "type": "rssi_liar",
            "inflation_db": cheat.inflation_db,
            "absurd_probability": cheat.absurd_probability,
            "absurd_value_dbm": cheat.absurd_value_dbm,
        }
    if isinstance(cheat, SilentMover):
        return {
            "type": "silent_mover",
            "moved_from_token": cheat.moved_from_token,
            "moved_to_description": cheat.moved_to_description,
        }
    raise SimulationError(f"unknown cheat strategy: {type(cheat).__name__}")


def _cheat_in(
    payload: Optional[Dict[str, Any]],
    cliques: Dict[int, GossipClique],
) -> Optional[CheatStrategy]:
    if payload is None:
        return None
    kind = payload.get("type")
    if kind == "gossip_clique":
        return cliques[int(payload["clique_id"])]
    if kind == "rssi_liar":
        return RssiLiar(
            inflation_db=float(payload["inflation_db"]),
            absurd_probability=float(payload["absurd_probability"]),
            absurd_value_dbm=float(payload["absurd_value_dbm"]),
        )
    if kind == "silent_mover":
        return SilentMover(
            moved_from_token=payload.get("moved_from_token", ""),
            moved_to_description=payload.get("moved_to_description", ""),
        )
    raise SimulationError(f"unknown cheat strategy in snapshot: {kind!r}")


def hotspot_payload(hotspot: SimHotspot) -> Dict[str, Any]:
    """One hotspot's snapshot dict (shared with the checkpoint layer)."""
    backhaul = hotspot.backhaul
    return {
        "gateway": hotspot.gateway,
        "owner": hotspot.owner,
        "city": [hotspot.city.name, hotspot.city.country],
        "actual": _latlon_out(hotspot.actual_location),
        "asserted": _latlon_out(hotspot.asserted_location),
        "environment": hotspot.environment.name,
        "gain": hotspot.antenna_gain_dbi,
        "backhaul": (
            None
            if backhaul is None
            else [backhaul.isp.asn, backhaul.ip, backhaul.behind_nat]
        ),
        "is_validator": hotspot.is_validator,
        "online": hotspot.online,
        "added_day": hotspot.added_day,
        "added_block": hotspot.added_block,
        "ferries_data": hotspot.ferries_data,
        "assert_nonce": hotspot.assert_nonce,
        "move_days": hotspot.move_days,
        "transfer_days": hotspot.transfer_days,
        "cheat": _cheat_out(hotspot.cheat),
    }


def hotspot_from_payload(
    payload: Dict[str, Any],
    city_by_key: Dict[tuple, Any],
    isps,
    cliques: Dict[int, GossipClique],
) -> SimHotspot:
    """Rebuild one hotspot against the regenerated city/ISP universe."""
    backhaul = payload["backhaul"]
    city_key = (payload["city"][0], payload["city"][1])
    return SimHotspot(
        gateway=payload["gateway"],
        owner=payload["owner"],
        city=city_by_key[city_key],
        actual_location=_latlon_in(payload["actual"]),
        asserted_location=_latlon_in(payload["asserted"]),
        environment=Environment[payload["environment"]],
        antenna_gain_dbi=float(payload["gain"]),
        backhaul=(
            None
            if backhaul is None
            else BackhaulAssignment(
                isp=isps.isp(int(backhaul[0])),
                ip=backhaul[1],
                behind_nat=bool(backhaul[2]),
            )
        ),
        is_validator=bool(payload["is_validator"]),
        online=bool(payload["online"]),
        added_day=int(payload["added_day"]),
        added_block=int(payload["added_block"]),
        ferries_data=bool(payload["ferries_data"]),
        assert_nonce=int(payload["assert_nonce"]),
        move_days=[int(d) for d in payload["move_days"]],
        transfer_days=[int(d) for d in payload["transfer_days"]],
        cheat=_cheat_in(payload["cheat"], cliques),
    )


def owner_payload(owner: SimOwner) -> Dict[str, Any]:
    """One owner's snapshot dict (shared with the checkpoint layer)."""
    return {
        "wallet": owner.wallet,
        "archetype": owner.archetype,
        "home_city": (
            None
            if owner.home_city is None
            else [owner.home_city.name, owner.home_city.country]
        ),
        "hotspot_count": owner.hotspot_count,
        "encashes": owner.encashes,
        "runs_devices": owner.runs_devices,
    }


def owner_from_payload(
    payload: Dict[str, Any], city_by_key: Dict[tuple, Any]
) -> SimOwner:
    """Rebuild one owner against the regenerated city universe."""
    home = payload["home_city"]
    return SimOwner(
        wallet=payload["wallet"],
        archetype=payload["archetype"],
        home_city=(
            None if home is None else city_by_key[(home[0], home[1])]
        ),
        hotspot_count=int(payload["hotspot_count"]),
        encashes=bool(payload["encashes"]),
        runs_devices=bool(payload["runs_devices"]),
    )


def _snapshot_text(result: SimulationResult) -> str:
    """The ``snapshot.json`` text: everything but the chain."""
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

    snapshot = {
        "config": _config_to_dict(result.config),
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
    return json.dumps(snapshot, separators=(",", ":"))


def save_result(result: SimulationResult, directory: Union[str, Path]) -> None:
    """Write ``result`` into ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / _CHAIN_FILE, "wb") as handle:
        chain_record, _ = write_chain_log(
            result.chain, handle, hashlib.sha256()
        )

    with open(directory / _SNAPSHOT_FILE, "w", encoding="utf-8") as handle:
        handle.write(_snapshot_text(result))

    from repro.etl.schema import SCHEMA_VERSION as ETL_SCHEMA_VERSION

    meta = {
        "schema": SCHEMA_VERSION,
        "seed": result.config.seed,
        "config_digest": config_digest(result.config),
        **chain_record,
        # Recorded for humans inspecting the entry; the authoritative
        # stamp lives inside the .db and is checked on every open.
        "etl_schema": ETL_SCHEMA_VERSION,
    }
    with open(directory / _META_FILE, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)


def load_result(directory: Union[str, Path]) -> SimulationResult:
    """Reload a :func:`save_result` snapshot, its chain log-backed.

    Raises:
        SimulationError: when the directory is not a compatible snapshot.
        ChainError: when ``chain.log`` fails its recorded extent or
            digests (a torn or corrupted entry).
    """
    directory = Path(directory)
    try:
        with open(directory / _META_FILE, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SimulationError(f"unreadable snapshot meta: {exc}") from exc
    if meta.get("schema") != SCHEMA_VERSION:
        raise SimulationError(
            f"snapshot schema {meta.get('schema')!r} != {SCHEMA_VERSION}"
        )
    try:
        with open(directory / _SNAPSHOT_FILE, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SimulationError(f"unreadable snapshot: {exc}") from exc

    config = _config_from_dict(snapshot["config"])
    hub = RngHub(config.seed)

    chain, _, _ = load_chain_log(directory / _CHAIN_FILE, meta)

    world = World(
        rng_cities=hub.stream("cities"),
        rng_isps=hub.stream("isps"),
        tail_isps=config.tail_isps,
        city_radius_scale=math.sqrt(config.scale_factor),
    )
    world._keypair_seq = int(snapshot["keypair_seq"])
    city_by_key = {
        (city.name, city.country): city for city in world.cities.cities
    }

    for payload in snapshot["owners"]:
        world.register_owner(owner_from_payload(payload, city_by_key))

    cliques = {
        int(cid): GossipClique(clique_id=int(cid), members=set(members))
        for cid, members in snapshot.get("cliques", {}).items()
    }

    for payload in snapshot["hotspots"]:
        hotspot = hotspot_from_payload(
            payload, city_by_key, world.isps, cliques
        )
        world.hotspots[hotspot.gateway] = hotspot
    world.rebuild_index()

    peerbook = Peerbook()
    for peer, addrs in snapshot["peerbook"]:
        peerbook._entries[peer] = PeerEntry(peer, list(addrs))

    oracle = PriceOracle(hub.stream("oracle"))
    prices = [float(p) for p in snapshot["oracle_prices"]]
    if len(prices) > 1:
        # Fast-forward the stream past the draws the saved walk already
        # consumed, so extending the walk later matches a fresh run.
        oracle._rng.normal(0.0, oracle.volatility, size=len(prices) - 1)
    oracle._prices = prices

    growth_log = [GrowthLogRow(**row) for row in snapshot["growth_log"]]

    return SimulationResult(
        config=config,
        chain=chain,
        world=world,
        peerbook=peerbook,
        oracle=oracle,
        growth_log=growth_log,
        console_owner=snapshot["console_owner"],
        oui_owners={
            int(oui): owner
            for oui, owner in snapshot["oui_owners"].items()
        },
        spammer_owners=list(snapshot.get("spammer_owners", [])),
    )
