"""Serializable world state: everything a simulation run mutates.

The day loop used to live inside a 1,100-line ``SimulationEngine`` whose
mutable state was scattered across private engine attributes. This
module makes that state explicit: :class:`WorldState` owns the world,
chain, RNG hub, schedulers' queues, fleet arrays, ferry maps and growth
log, and every :class:`~repro.simulation.phases.base.Phase` subsystem
operates on it through ``run_day(state, day)``.

Because the state is explicit it is also *serializable*:
``WorldState.save(dir)`` writes a day-boundary checkpoint and
``WorldState.load(dir)`` reconstructs a state that continues the run
**bit-identically** — the pinned scenario digests assert resumed ≡
fresh. This is the one persisted-run format: a mid-run checkpoint and
a scenario-cache entry (a finished run's final checkpoint, written by
:func:`repro.experiments.snapshot.save_result`) are the same three
files:

* ``chain.log`` — the framed chain log written by
  :func:`~repro.chain.serialize.write_chain_log` and read back by
  :func:`~repro.chain.serialize.open_chain_log` and
  :func:`~repro.chain.serialize.replay_chain_log`;
* ``state.json`` — the world, reconstructed against the deterministic
  city/ISP universe rather than pickled, plus exact RNG stream states
  (``bit_generator.state`` per named stream), the pending move/transfer
  queues and per-hotspot uptime draws, each hotspot's
  ``index_location`` (so the weekly-rebuilt spatial index is restored
  *stale*, exactly as the run last saw it), and owner-model linkage
  (organic order, the whale) and planner flags;
* ``meta.json`` — schema, seed, day, the config and its
  :func:`~repro.scenarios.spec.spec_digest`, the chain log's extent and
  the SHA-256 of ``state.json``.

Checkpoints are only taken at day boundaries, where the engine holds no
half-applied state: the day's batch has been minted, every state channel
is closed, and ``EpochActivity`` is per-day. Integrity is guarded by
SHA-256 digests in ``meta.json`` (written last): a torn or corrupted
file fails the load loudly instead of resuming, or warm-loading, into
silent divergence.

Those checks, and the load that splits into a **chain half** and a
**world half**, live in :mod:`repro.simulation.checkpoint`
(:class:`~repro.simulation.checkpoint.Checkpoint`), which loads no
numpy: following a cached run's chain needs nothing of this module.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro import units
from repro.chain.blockchain import Blockchain
from repro.chain.crypto import Address, Keypair
from repro.chain.serialize import chain_log_extent, write_chain_log
from repro.chain.transactions import OuiRegistration, Transaction
from repro.chain.varmap import ChainVars
from repro.digest import Sha256, sha256
from repro.economics.oracle import PriceOracle
from repro.economics.rewards import EpochActivity
from repro.errors import ChainError, SimulationError
from repro.geo.geodesy import LatLon
from repro.p2p.backhaul import BackhaulAssignment
from repro.poc.challenge import PocParticipant
from repro.poc.cheats import CheatStrategy, GossipClique, RssiLiar, SilentMover
from repro.poc.validity import WitnessValidityChecker
from repro.radio.propagation import Environment
from repro.rng import RngHub
from repro.simulation.checkpoint import (
    _CHAIN_FILE,
    _META_FILE,
    _STATE_FILE,
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    _sha256_prefix,
    read_meta,
)
from repro.simulation.growth import build_adoption_schedule
from repro.simulation.moves import MovePlanner, PlannedMove
from repro.simulation.owners import OwnerModel
from repro.simulation.resale import PlannedTransfer, ResalePlanner
from repro.simulation.scenario import ScenarioConfig
from repro.simulation.traffic import TrafficModel
from repro.simulation.world import SimHotspot, SimOwner, World

__all__ = [
    "FleetColumns",
    "GrowthLogRow",
    "WorldState",
]

_BLOCKS_PER_DAY = units.BLOCKS_PER_DAY


@dataclass(slots=True)
class GrowthLogRow:
    """Daily fleet snapshot (drives the Figure 5 reproduction)."""

    day: int
    added_today: int
    connected: int
    online: int
    online_us: int
    online_international: int


class FleetColumns:
    """Struct-of-arrays fleet: one slot per deployed hotspot, in
    deployment order — the order every old per-gateway dict walk used.

    The day loop's per-hotspot scalar reads (uptime thresholds,
    online/PoC flags, US residency, ferry weights, owner identity,
    coordinates) live in contiguous numpy arrays with amortised-doubling
    growth, so a daily phase is one vectorised pass instead of a Python
    list materialisation. :class:`~repro.simulation.world.SimHotspot`
    and :class:`~repro.poc.challenge.PocParticipant` objects remain as
    aligned *views* (``hotspots[slot]`` / ``participants[slot]``) for
    the chain/transaction boundary, which keeps serialization and the
    pinned digests unchanged.

    ``online``/``poc_online`` carry a freshness stamp (``online_day``):
    the columnar availability phase stamps the day it wrote them, and
    consumers that must agree with the per-object flags even when an
    equivalence test swaps in the scalar reference twin (which only
    writes objects) fall back through :meth:`online_mask`.
    """

    __slots__ = (
        "n", "_capacity",
        "_lat", "_lon", "_uptime", "_ferry_weight",
        "_online", "_poc_online", "_is_poc", "_in_us",
        "_deploy_day", "_owner_index",
        "hotspots", "participants", "gateways",
        "index", "owner_slots", "owner_wallets", "online_day",
    )

    _GROWABLE = (
        ("_lat", np.float64), ("_lon", np.float64),
        ("_uptime", np.float64), ("_ferry_weight", np.float64),
        ("_online", bool), ("_poc_online", bool),
        ("_is_poc", bool), ("_in_us", bool),
        ("_deploy_day", np.int32), ("_owner_index", np.int32),
    )

    def __init__(self, capacity: int = 1024) -> None:
        self.n = 0
        self._capacity = max(int(capacity), 1)
        for name, dtype in self._GROWABLE:
            setattr(self, name, np.zeros(self._capacity, dtype=dtype))
        self.hotspots: List[SimHotspot] = []
        self.participants: List[Optional[PocParticipant]] = []
        self.gateways: List[Address] = []
        self.index: Dict[Address, int] = {}
        self.owner_slots: Dict[Address, int] = {}
        self.owner_wallets: List[Address] = []
        #: Day for which the columnar availability phase last wrote the
        #: online columns; ``-1`` = never (trust the objects instead).
        self.online_day = -1

    def __len__(self) -> int:
        return self.n

    # -- column views (live slices; writes go through) ----------------------

    @property
    def lat(self) -> np.ndarray:
        return self._lat[: self.n]

    @property
    def lon(self) -> np.ndarray:
        return self._lon[: self.n]

    @property
    def uptime(self) -> np.ndarray:
        return self._uptime[: self.n]

    @property
    def ferry_weight(self) -> np.ndarray:
        return self._ferry_weight[: self.n]

    @property
    def online(self) -> np.ndarray:
        return self._online[: self.n]

    @property
    def poc_online(self) -> np.ndarray:
        return self._poc_online[: self.n]

    @property
    def is_poc(self) -> np.ndarray:
        return self._is_poc[: self.n]

    @property
    def in_us(self) -> np.ndarray:
        return self._in_us[: self.n]

    @property
    def deploy_day(self) -> np.ndarray:
        return self._deploy_day[: self.n]

    @property
    def owner_index(self) -> np.ndarray:
        return self._owner_index[: self.n]

    # -- growth -------------------------------------------------------------

    def _grow(self) -> None:
        self._capacity *= 2
        for name, _ in self._GROWABLE:
            array = getattr(self, name)
            grown = np.zeros(self._capacity, dtype=array.dtype)
            grown[: self.n] = array[: self.n]
            setattr(self, name, grown)

    def owner_id(self, wallet: Address) -> int:
        """Dense id of ``wallet`` (assigned at first fleet appearance)."""
        slot = self.owner_slots.get(wallet)
        if slot is None:
            slot = len(self.owner_wallets)
            self.owner_slots[wallet] = slot
            self.owner_wallets.append(wallet)
        return slot

    def append(
        self,
        hotspot: SimHotspot,
        participant: Optional[PocParticipant],
        uptime: float,
        ferry_weight: float,
    ) -> int:
        """Append one deployed hotspot; returns its slot."""
        slot = self.n
        if slot == self._capacity:
            self._grow()
        self.n = slot + 1
        location = hotspot.actual_location
        self._lat[slot] = location.lat
        self._lon[slot] = location.lon
        self._uptime[slot] = uptime
        self._ferry_weight[slot] = ferry_weight
        self._online[slot] = hotspot.online
        self._is_poc[slot] = participant is not None
        self._poc_online[slot] = hotspot.online and participant is not None
        self._in_us[slot] = hotspot.in_us
        self._deploy_day[slot] = hotspot.added_day
        self._owner_index[slot] = self.owner_id(hotspot.owner)
        self.hotspots.append(hotspot)
        self.participants.append(participant)
        self.gateways.append(hotspot.gateway)
        self.index[hotspot.gateway] = slot
        return slot

    # -- maintenance touch points -------------------------------------------

    def relocate(self, slot: int, hotspot: SimHotspot) -> None:
        """Refresh the location-derived columns after a physical move."""
        location = hotspot.actual_location
        self._lat[slot] = location.lat
        self._lon[slot] = location.lon
        self._in_us[slot] = hotspot.in_us

    def set_owner(self, slot: int, wallet: Address) -> None:
        self._owner_index[slot] = self.owner_id(wallet)

    def online_mask(self, day: int) -> np.ndarray:
        """The online column when fresh for ``day``; otherwise rebuilt
        from the authoritative per-object flags (the availability path
        was swapped for its reference twin, which only writes objects).
        """
        if self.online_day == day:
            return self.online
        return np.fromiter(
            (hotspot.online for hotspot in self.hotspots),
            dtype=bool,
            count=self.n,
        )


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
    raise SimulationError(f"unknown cheat strategy in checkpoint: {kind!r}")


def hotspot_payload(hotspot: SimHotspot) -> Dict[str, Any]:
    """One hotspot's saved dict (also part of the canonical result text
    :func:`repro.experiments.snapshot.result_digest` hashes)."""
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
    """One owner's saved dict (also part of the canonical result text)."""
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


@dataclass
class WorldState:
    """All mutable state of one simulation run, phase-agnostic.

    Constructed by :meth:`create` (fresh run) or :meth:`load`
    (checkpoint resume or warm cache load); mutated only by the
    :mod:`repro.simulation.phases` subsystems and the engine's
    bootstrap. Fields ending in ``_today``, plus ``batch`` and
    ``activity``, are day-transients reset by :meth:`begin_day` and
    never serialized.
    """

    config: ScenarioConfig
    hub: RngHub
    world: World
    chain: Blockchain
    oracle: PriceOracle
    owners: OwnerModel
    moves: MovePlanner
    resale: ResalePlanner
    traffic: TrafficModel
    checker: WitnessValidityChecker
    schedule: Any

    #: Next day index to simulate (== number of completed days).
    day: int = 0
    console_owner: Optional[Address] = None
    oui_owners: Dict[int, Address] = field(default_factory=dict)

    move_queue: Dict[int, List[Tuple[Address, PlannedMove]]] = field(
        default_factory=dict
    )
    transfer_queue: Dict[int, List[Tuple[Address, PlannedTransfer]]] = field(
        default_factory=dict
    )
    participants: Dict[Address, PocParticipant] = field(default_factory=dict)
    uptime: Dict[Address, float] = field(default_factory=dict)

    # Columnar fleet: one slot per deployed hotspot, in deployment
    # order — the order the old per-gateway dict walks used — so the
    # batched uptime draw consumes the "uptime" stream identically and
    # attribution maps keep their deployment-order iteration. The
    # object lists inside are the view boundary for chain/transaction
    # code; everything scalar the day loop reads is a numpy column.
    fleet: FleetColumns = field(default_factory=FleetColumns)

    flippers: List[Address] = field(default_factory=list)
    spammers: List[Address] = field(default_factory=list)
    clique_registry: Dict[int, GossipClique] = field(default_factory=dict)
    #: (clique_id, city name, seats left) — drained by the deploy phase.
    clique_pending: List[Tuple[int, str, int]] = field(default_factory=list)
    exchange: Address = ""
    helium_co: Address = ""
    growth_log: List[GrowthLogRow] = field(default_factory=list)
    channel_seq: int = 0

    # -- day transients (reset by begin_day, never serialized) ---------------
    price_today: float = 0.0
    batch: List[Tuple[int, Transaction]] = field(default_factory=list)
    activity: Optional[EpochActivity] = None
    transferred_today: Set[Address] = field(default_factory=set)
    added_today: int = 0

    #: Running SHA-256 of the chain file the last :meth:`save` wrote (or
    #: :meth:`load` verified): ``{"extent", "sha", "tail"}``, where
    #: ``extent`` is its :func:`~repro.chain.serialize.chain_log_extent`.
    #: Lets a steady-state periodic save extend the previous chain dump
    #: without re-reading a single byte of it. Process-local, never
    #: serialized; ``None`` simply forces one prefix re-verification.
    _chain_cache: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------- create --

    @classmethod
    def create(cls, config: ScenarioConfig) -> "WorldState":
        """Fresh run state for ``config`` (day 0, nothing deployed)."""
        hub = RngHub(config.seed)
        # Density-true scaling: shrink city footprints by √scale so the
        # scaled-down fleet reproduces the real network's local density
        # (see City.radius_scale).
        world = World(
            rng_cities=hub.stream("cities"),
            rng_isps=hub.stream("isps"),
            tail_isps=config.tail_isps,
            city_radius_scale=math.sqrt(config.scale_factor),
        )
        chain = Blockchain(ChainVars())
        state = cls(
            config=config,
            hub=hub,
            world=world,
            chain=chain,
            oracle=PriceOracle(hub.stream("oracle")),
            owners=OwnerModel(config, world),
            moves=MovePlanner(config),
            resale=ResalePlanner(config),
            traffic=TrafficModel(config),
            checker=WitnessValidityChecker(
                min_distance_km=chain.vars.poc_witness_min_distance_km
            ),
            schedule=build_adoption_schedule(config, hub.stream("growth")),
            exchange=Keypair.generate("exchange", "wal").address,
            helium_co=Keypair.generate("helium-co", "wal").address,
        )
        for clique_id, (size, city) in enumerate(config.gossip_cliques):
            clique = GossipClique(clique_id=clique_id)
            state.clique_registry[clique_id] = clique
            state.clique_pending.append((clique_id, city, size))
        return state

    # -------------------------------------------------------------- day ops --

    def begin_day(self, day: int) -> None:
        """Reset the day-transient fields for ``day``."""
        self.day = day
        self.price_today = self.oracle.price_on_day(day)
        self.chain.ledger.oracle_price_usd = self.price_today
        self.batch = []
        self.activity = EpochActivity(
            epoch_start_block=day * _BLOCKS_PER_DAY,
            epoch_end_block=(day + 1) * _BLOCKS_PER_DAY - 1,
        )
        self.transferred_today = set()
        self.added_today = 0

    def bootstrap_routers(self) -> None:
        """Register the console + third-party OUIs and mint block 1."""
        console_owner = Keypair.generate("console", "wal").address
        oui_owners: Dict[int, Address] = {1: console_owner, 2: console_owner}
        # Credit exactly the fees the registrations spend, as a replay
        # of the chain does: the ledger then equals a framed-log load's.
        self.chain.ledger.credit_dc(
            console_owner, 2 * self.chain.vars.oui_fee_dc
        )
        self.chain.submit(OuiRegistration(oui=1, owner=console_owner,
                                          fee_dc=self.chain.vars.oui_fee_dc))
        self.chain.submit(OuiRegistration(oui=2, owner=console_owner,
                                          fee_dc=self.chain.vars.oui_fee_dc))
        for oui in range(3, 3 + self.config.third_party_ouis):
            owner = Keypair.generate(f"router-{oui}", "wal").address
            oui_owners[oui] = owner
            self.chain.ledger.credit_dc(owner, self.chain.vars.oui_fee_dc)
            self.chain.submit(OuiRegistration(
                oui=oui, owner=owner, fee_dc=self.chain.vars.oui_fee_dc
            ))
        self.chain.mint_block(1)
        self.console_owner = console_owner
        self.oui_owners = oui_owners

    # ------------------------------------------------------- fleet plumbing --

    def register_fleet(
        self,
        hotspot: SimHotspot,
        participant: Optional[PocParticipant],
        uptime: float,
    ) -> None:
        """Append one deployed hotspot to the fleet columns (deployment
        order)."""
        base = self.ferry_base_weight(hotspot)
        self.fleet.append(
            hotspot, participant, uptime,
            0.0 if base is None else base,
        )

    def ferry_base_weight(self, hotspot: SimHotspot) -> Optional[float]:
        """The weight ``hotspot`` would carry when online, else ``None``."""
        if hotspot.is_validator:
            return None
        owner = self.world.owners.get(hotspot.owner)
        if owner is not None and owner.archetype == "commercial":
            return 30.0
        if hotspot.ferries_data:
            return 1.0
        return None

    def refresh_ferry_entry(self, hotspot: SimHotspot) -> None:
        """Keep the ownership-derived columns (ferry weight, owner id)
        current across an ownership change. The slot is the deployment
        position, so unlike the old incrementally-maintained dict there
        is no insertion-order staleness to track."""
        slot = self.fleet.index[hotspot.gateway]
        base = self.ferry_base_weight(hotspot)
        self.fleet.ferry_weight[slot] = 0.0 if base is None else base
        self.fleet.set_owner(slot, hotspot.owner)

    # -------------------------------------------------------------- save --

    def save(self, directory: Union[str, Path]) -> None:
        """Write a day-boundary checkpoint (atomically replacing any
        previous checkpoint at ``directory``)."""
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(
            prefix=directory.name + ".tmp-", dir=str(directory.parent)
        ))
        previous = directory if (directory / _META_FILE).exists() else None
        try:
            self._write_into(tmp, previous=previous)
            if directory.exists():
                trash = Path(tempfile.mkdtemp(
                    prefix=directory.name + ".old-", dir=str(directory.parent)
                ))
                os.rename(str(directory), str(trash / "prev"))
                os.rename(str(tmp), str(directory))
                shutil.rmtree(trash, ignore_errors=True)
            else:
                os.rename(str(tmp), str(directory))
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def _write_into(
        self, directory: Path, previous: Optional[Path] = None
    ) -> None:
        # At call time: repro.scenarios imports this package.
        from repro.scenarios.spec import spec_digest

        config_digest = spec_digest(self.config)
        chain_record, chain_tail = self._write_chain(
            directory / _CHAIN_FILE, previous, config_digest
        )

        cliques = {
            str(cid): sorted(clique.members)
            for cid, clique in self.clique_registry.items()
        }
        hotspots = []
        for hotspot in self.world.hotspots.values():
            payload = hotspot_payload(hotspot)
            # null ⇒ indexed under its live position (the common case);
            # coordinates ⇒ the index is stale for this hotspot (moved
            # since the last weekly rebuild).
            index_location = hotspot.index_location
            if index_location is hotspot.actual_location:
                payload["index_loc"] = None
            else:
                payload["index_loc"] = [
                    index_location.lat, index_location.lon
                ]
            hotspots.append(payload)

        state_payload = {
            "day": self.day,
            "rng_streams": {
                name: generator.bit_generator.state
                for name, generator in sorted(self.hub._streams.items())
            },
            "keypair_seq": self.world._keypair_seq,
            "cliques": cliques,
            "clique_pending": [
                [cid, city, left] for cid, city, left in self.clique_pending
            ],
            "hotspots": hotspots,
            "owners": [
                owner_payload(owner)
                for owner in self.world.owners.values()
            ],
            "organic_owners": [o.wallet for o in self.owners._organic],
            "whale": (
                None if self.owners._whale is None
                else self.owners._whale.wallet
            ),
            "frequent_mover_assigned": self.moves._frequent_mover_assigned,
            "oracle_prices": list(self.oracle._prices),
            "growth_log": [
                dataclasses.asdict(row) for row in self.growth_log
            ],
            "console_owner": self.console_owner,
            "oui_owners": {
                str(oui): owner for oui, owner in self.oui_owners.items()
            },
            "flippers": list(self.flippers),
            "spammers": list(self.spammers),
            "move_queue": {
                str(day): [
                    [gateway, move.day, move.kind]
                    for gateway, move in entries
                ]
                for day, entries in sorted(self.move_queue.items())
            },
            "transfer_queue": {
                str(day): [
                    [gateway, t.day, t.amount_dc, t.to_flipper]
                    for gateway, t in entries
                ]
                for day, entries in sorted(self.transfer_queue.items())
            },
            "channel_seq": self.channel_seq,
            # v2: columnar fleet scalars that are not derivable from the
            # hotspot payloads, in deployment order (== payload order).
            "fleet": {
                "uptime": self.fleet.uptime.tolist(),
            },
        }
        # dumps + write, not json.dump: the latter falls back to the
        # chunked pure-Python encoder and is several times slower on
        # this multi-MB payload. Hashing the in-memory blob also spares
        # re-reading the file for the meta digest.
        state_blob = json.dumps(state_payload, separators=(",", ":"))
        with open(directory / _STATE_FILE, "w", encoding="utf-8") as handle:
            handle.write(state_blob)

        meta = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed": self.config.seed,
            "day": self.day,
            "config_digest": config_digest,
            "config": dataclasses.asdict(self.config),
            **chain_record,
            "chain_log_tail": chain_tail.hex(),
            "state_sha256": sha256(
                state_blob.encode("utf-8")
            ).hexdigest(),
        }
        # meta.json last: a torn write leaves no (or a stale) meta, and
        # load() rejects both — the checkpoint is all-or-nothing.
        with open(directory / _META_FILE, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)

    def _write_chain(
        self, path: Path, previous: Optional[Path], config_digest: str
    ) -> Tuple[Dict[str, Any], bytes]:
        """Write ``chain.log``; returns its extent record (merged into
        ``meta.json``) and the tail digest.

        The chain is append-only and the run deterministic, so a
        previous checkpoint of the same (config, seed) holds a byte
        prefix of the current chain log. A steady-state periodic save
        therefore hardlinks the previous file into place, truncates it
        to the recorded prefix (discarding bytes a killed append may
        have left), and appends only the frames for blocks minted since
        — raw byte copies from the run's own chain log for spilled
        blocks, freshly encoded frames for the resident tail (the two
        are byte-identical: frame encoding is deterministic given the
        digest-chain state, which ``meta.json`` records as
        ``chain_log_tail``). The running hash extends the cached prefix
        digest instead of re-reading it, so per-checkpoint cost is
        O(new blocks) with no full-file copy, hash, or JSON
        re-serialization. Any doubt (different config, digest mismatch,
        more blocks recorded than we have) falls back to a full write.

        The hardlink shares the inode with the previous checkpoint's
        file, which is safe because :meth:`load` reads exactly
        ``chain_bytes`` bytes: the old meta keeps describing a valid
        prefix of the grown file until the atomic swap replaces it.
        """
        base = None
        if previous is not None:
            base = self._reusable_prefix(
                previous, config_digest, len(self.chain.blocks)
            )
        if base is not None:
            sha, prev_meta, tail = base
            sha = sha.copy()
            prev_file = previous / _CHAIN_FILE
            try:
                os.link(str(prev_file), str(path))
            except OSError:
                shutil.copyfile(str(prev_file), str(path))
            with open(path, "r+b") as handle:
                record, tail = write_chain_log(
                    self.chain, handle, sha, (prev_meta, tail)
                )
        else:
            sha = sha256()
            with open(path, "wb") as handle:
                record, tail = write_chain_log(self.chain, handle, sha)
        self._chain_cache = {
            "extent": chain_log_extent(record), "sha": sha, "tail": tail,
        }
        return record, tail

    def _reusable_prefix(
        self, previous: Path, config_digest: str, n_blocks: int
    ) -> Optional[Tuple[Sha256, Dict[str, Any], bytes]]:
        """``(hash object, meta, tail digest)`` of the previous
        checkpoint's chain log when it is a trusted prefix of the live
        chain, else ``None`` (→ full write)."""
        try:
            meta = read_meta(previous)
            extent = chain_log_extent(meta)
        except (SimulationError, ChainError):
            return None
        prev_blocks, prev_bytes, prev_sha = extent
        tail_hex = meta.get("chain_log_tail")
        if not (
            meta.get("schema") == CHECKPOINT_SCHEMA_VERSION
            and meta.get("config_digest") == config_digest
            and isinstance(tail_hex, str)
            and 0 < prev_blocks <= n_blocks
        ):
            return None
        try:
            tail = bytes.fromhex(tail_hex)
        except ValueError:
            return None
        cache = self._chain_cache
        if cache is not None and cache["extent"] == extent:
            # This process wrote (or load-verified) exactly those bytes:
            # trust the running hash, skip re-reading the prefix.
            return cache["sha"], meta, cache["tail"]
        try:
            with open(previous / _CHAIN_FILE, "rb") as handle:
                hexdigest, sha, size = _sha256_prefix(handle, prev_bytes)
        except OSError:
            return None
        if size != prev_bytes or hexdigest != prev_sha:
            return None
        # The prefix hash validates, so the recorded tail describes it.
        return sha, meta, tail

    # -------------------------------------------------------------- load --

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "WorldState":
        """Reconstruct a :meth:`save` checkpoint, bit-exactly, with both
        halves built (:class:`~repro.simulation.checkpoint.Checkpoint`).

        The chain stays on disk: each verified frame is byte-copied into
        the run's own anonymous chain log, which a resumed run appends
        to, while its transactions replay through the ledger, so
        resume-time peak RSS is bounded by one frame plus the folded
        ledger — the block object graph is never resident.

        Raises:
            SimulationError: when the checkpoint is missing, schema-
                incompatible, or fails its integrity digests (torn or
                corrupted files).
        """
        checkpoint = Checkpoint.open(directory)
        return checkpoint.build_world(checkpoint.build_chain(copy=True))

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails, which happens to one
        # attribute alone: the chain of a world half built apart from
        # its chain half (Checkpoint.world), built on first read.
        source = self.__dict__.get("_chain_source")
        if name != "chain" or source is None:
            raise AttributeError(name)
        self.chain = source()
        return self.chain

    @classmethod
    def _restore(
        cls, config: ScenarioConfig, payload: Dict[str, Any]
    ) -> "WorldState":
        """The world half: the state a ``state.json`` payload describes.
        Its ``chain`` is still the empty one :meth:`create` made."""
        state = cls.create(config)
        state.day = int(payload["day"])

        world = state.world
        world._keypair_seq = int(payload["keypair_seq"])
        city_by_key = {
            (city.name, city.country): city for city in world.cities.cities
        }

        # Owners: replace the bootstrap-only map with the full saved one
        # (insertion order is semantic: consensus sampling indexes it).
        world.owners = {}
        world.owner_wallets = []
        for saved_owner in payload["owners"]:
            world.register_owner(owner_from_payload(saved_owner, city_by_key))

        # Re-link the owner model to the restored objects by wallet; the
        # archetype wallets themselves are deterministic recreations.
        model = state.owners
        model._pools = [world.owners[o.wallet] for o in model._pools]
        model._commercials = [
            world.owners[o.wallet] for o in model._commercials
        ]
        model._organic = [
            world.owners[wallet] for wallet in payload["organic_owners"]
        ]
        model._whale = (
            None if payload["whale"] is None
            else world.owners[payload["whale"]]
        )
        state.moves._frequent_mover_assigned = bool(
            payload["frequent_mover_assigned"]
        )

        # Gossip cliques: one shared instance per id, exactly as live.
        state.clique_registry = {
            int(cid): GossipClique(clique_id=int(cid), members=set(members))
            for cid, members in payload["cliques"].items()
        }
        state.clique_pending = [
            (int(cid), city, int(left))
            for cid, city, left in payload["clique_pending"]
        ]

        # Hotspots, participants and fleet columns, in deployment order.
        # The columnar uptime section is index-aligned with the hotspot
        # payloads; anything else is a torn or hand-edited checkpoint.
        fleet_payload = payload.get("fleet")
        uptime_column = (
            fleet_payload.get("uptime")
            if isinstance(fleet_payload, dict) else None
        )
        if not isinstance(uptime_column, list) or (
            len(uptime_column) != len(payload["hotspots"])
        ):
            raise SimulationError(
                "corrupt checkpoint: fleet uptime column does not match "
                "the hotspot payloads"
            )
        for saved_hotspot, uptime in zip(
            payload["hotspots"], uptime_column
        ):
            hotspot = hotspot_from_payload(
                saved_hotspot, city_by_key, world.isps,
                state.clique_registry,
            )
            index_loc = saved_hotspot["index_loc"]
            if index_loc is None:
                hotspot.index_location = hotspot.actual_location
            else:
                hotspot.index_location = LatLon(
                    float(index_loc[0]), float(index_loc[1])
                )
            world.hotspots[hotspot.gateway] = hotspot
            state.uptime[hotspot.gateway] = float(uptime)
            participant = None
            if not hotspot.is_validator:
                participant = PocParticipant(
                    gateway=hotspot.gateway,
                    owner=hotspot.owner,
                    asserted_location=hotspot.asserted_location,
                    actual_location=hotspot.actual_location,
                    environment=hotspot.environment,
                    antenna_gain_dbi=hotspot.antenna_gain_dbi,
                    online=hotspot.online,
                    cheat=hotspot.cheat,
                )
                state.participants[hotspot.gateway] = participant
            # register_fleet appends the columns, including the restored
            # online flag (hotspot.online round-trips via the payload),
            # so no post-pass array rebuild is needed.
            state.register_fleet(
                hotspot, participant, state.uptime[hotspot.gateway]
            )
        world.restore_index()

        # Pending schedules.
        state.move_queue = {
            int(day): [
                (gateway, PlannedMove(day=float(move_day), kind=kind))
                for gateway, move_day, kind in entries
            ]
            for day, entries in payload["move_queue"].items()
        }
        state.transfer_queue = {
            int(day): [
                (gateway, PlannedTransfer(
                    day=int(t_day),
                    amount_dc=int(amount),
                    to_flipper=bool(to_flipper),
                ))
                for gateway, t_day, amount, to_flipper in entries
            ]
            for day, entries in payload["transfer_queue"].items()
        }

        # Economics and bookkeeping.
        state.oracle._prices = [float(p) for p in payload["oracle_prices"]]
        state.growth_log = [
            GrowthLogRow(**row) for row in payload["growth_log"]
        ]
        state.console_owner = payload["console_owner"]
        state.oui_owners = {
            int(oui): owner
            for oui, owner in payload["oui_owners"].items()
        }
        state.flippers = list(payload["flippers"])
        state.spammers = list(payload["spammers"])
        state.channel_seq = int(payload["channel_seq"])

        # RNG streams last: every construction-time draw above happened
        # exactly as in the original process; restoring the recorded
        # states realigns each stream with the interrupted run. Streams
        # the original created but this process has not are instantiated
        # here (hub.stream creates on first use; the state overwrite
        # discards the fresh seeding).
        for name, rng_state in payload["rng_streams"].items():
            state.hub.stream(name).bit_generator.state = rng_state

        return state
