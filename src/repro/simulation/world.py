"""World model: ground truth for every simulated hotspot.

The chain records what hotspots *claim*; the world records what is
*true* — actual radio location, online status, backhaul, cheat strategy.
Analyses that score chain-derived models against reality (coverage
prediction accuracy, silent-mover detection) join chain data against
this world, exactly as the paper joins blockchain data against its own
field measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.chain.crypto import Address, Keypair
from repro.errors import SimulationError
from repro.geo.cities import City, CityDatabase
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexGrid
from repro.geo.landmass import CONTIGUOUS_US, Landmass
from repro.geo.spatialindex import SpatialIndex
from repro.p2p.backhaul import AsUniverse, BackhaulAssignment
from repro.poc.cheats import CheatStrategy
from repro.radio.propagation import Environment

__all__ = ["SimHotspot", "SimOwner", "World"]


@dataclass(slots=True)
class SimHotspot:
    """Ground truth + chain identity for one hotspot."""

    gateway: Address
    owner: Address
    city: City
    actual_location: LatLon
    asserted_location: Optional[LatLon] = None
    environment: Environment = Environment.SUBURBAN
    antenna_gain_dbi: float = 1.2
    backhaul: Optional[BackhaulAssignment] = None
    is_validator: bool = False
    online: bool = True
    added_day: int = 0
    added_block: int = 0
    #: Whether real application devices cluster near this hotspot (the
    #: §4.3 split: data-ferrying fleets vs pure coverage miners).
    ferries_data: bool = False
    assert_nonce: int = 0
    move_days: List[int] = field(default_factory=list)
    transfer_days: List[int] = field(default_factory=list)
    cheat: Optional[CheatStrategy] = None
    #: The point under which this hotspot is currently registered in the
    #: world's spatial index. Identical *object* to ``actual_location``
    #: right after an insert/rebuild; goes stale (old object, old coords)
    #: when the hotspot moves before the next weekly rebuild. Checkpoints
    #: persist it so a resumed run sees the exact same stale index a
    #: fresh run would.
    index_location: Optional[LatLon] = field(
        default=None, repr=False, compare=False
    )

    @property
    def asserted_token(self) -> Optional[str]:
        """Res-12 hex token of the asserted location, if asserted."""
        if self.asserted_location is None:
            return None
        return HexGrid.encode_cell(self.asserted_location).token

    @property
    def in_us(self) -> bool:
        """Whether the hotspot is *actually* in the US."""
        return self.city.is_us


@dataclass(slots=True)
class SimOwner:
    """One owner wallet and its behavioural archetype.

    Archetypes (§4.3): ``individual`` (1–3 hotspots), ``repeat`` (organic
    multi-hotspot), ``pool`` (mining pool, encashes HNT), ``commercial``
    (application operator, accumulates HNT, generates data), ``whale``
    (the 1,903-hotspot wallet).
    """

    wallet: Address
    archetype: str = "individual"
    home_city: Optional[City] = None
    hotspot_count: int = 0
    encashes: bool = False
    runs_devices: bool = False


class World:
    """All ground truth: cities, ISPs, owners, hotspots, geography."""

    def __init__(
        self,
        rng_cities: np.random.Generator,
        rng_isps: np.random.Generator,
        tail_isps: int = 440,
        landmass: Landmass = CONTIGUOUS_US,
        city_radius_scale: float = 1.0,
    ) -> None:
        self.cities = CityDatabase(rng_cities, radius_scale=city_radius_scale)
        self.isps = AsUniverse(rng_isps, tail_isps=tail_isps)
        self.landmass = landmass
        self.hotspots: Dict[Address, SimHotspot] = {}
        self.owners: Dict[Address, SimOwner] = {}
        #: Owner wallets in registration order — the same order as
        #: ``owners`` (insertion-ordered dict), maintained as a list so
        #: daily consumers (consensus sampling) index it directly
        #: instead of materialising ``list(owners.keys())`` every day.
        self.owner_wallets: List[Address] = []
        self._keypair_seq = 0
        self.index: SpatialIndex[SimHotspot] = SpatialIndex(cell_deg=0.5)

    # -- identity ---------------------------------------------------------------

    def new_gateway_address(self) -> Address:
        """Mint a fresh hotspot address."""
        self._keypair_seq += 1
        return Keypair.generate(f"gw-{self._keypair_seq}", prefix="hs").address

    def new_owner(self, archetype: str = "individual", home_city: Optional[City] = None) -> SimOwner:
        """Mint a fresh owner wallet."""
        self._keypair_seq += 1
        owner = SimOwner(
            wallet=Keypair.generate(f"owner-{self._keypair_seq}", prefix="wal").address,
            archetype=archetype,
            home_city=home_city,
            encashes=archetype in ("pool", "repeat", "whale"),
            runs_devices=archetype == "commercial",
        )
        self.register_owner(owner)
        return owner

    def register_owner(self, owner: SimOwner) -> None:
        """Record ``owner`` in the map and the ordered wallet list
        (the only way owners enter the world; restore paths included)."""
        self.owners[owner.wallet] = owner
        self.owner_wallets.append(owner.wallet)

    # -- hotspot lifecycle --------------------------------------------------------

    def add_hotspot(self, hotspot: SimHotspot) -> None:
        """Register a deployed hotspot in the world."""
        if hotspot.gateway in self.hotspots:
            raise SimulationError(f"duplicate hotspot: {hotspot.gateway}")
        self.hotspots[hotspot.gateway] = hotspot
        hotspot.index_location = hotspot.actual_location
        self.index.insert(hotspot.actual_location, hotspot)
        owner = self.owners.get(hotspot.owner)
        if owner is not None:
            owner.hotspot_count += 1

    def relocate(self, hotspot: SimHotspot, new_location: LatLon, new_city: Optional[City] = None) -> None:
        """Physically move a hotspot (re-asserting is the caller's job)."""
        hotspot.actual_location = new_location
        if new_city is not None:
            hotspot.city = new_city
        # The spatial index is append-only; rebuild lazily on demand.
        self._index_stale = True

    def rebuild_index(self) -> None:
        """Rebuild the actual-location spatial index after moves."""
        self.index = SpatialIndex(cell_deg=0.5)
        for hotspot in self.hotspots.values():
            hotspot.index_location = hotspot.actual_location
            self.index.insert(hotspot.actual_location, hotspot)

    def restore_index(self) -> None:
        """Rebuild the spatial index from each hotspot's recorded
        ``index_location`` (checkpoint restore), reproducing a stale
        index exactly as the interrupted run last saw it — including the
        object-identity property hot paths rely on: a hotspot indexed
        under its live position is indexed under the *same object* as
        ``actual_location``."""
        self.index = SpatialIndex(cell_deg=0.5)
        for hotspot in self.hotspots.values():
            point = hotspot.index_location
            if point is None:
                point = hotspot.actual_location
                hotspot.index_location = point
            self.index.insert(point, hotspot)

    # -- queries -------------------------------------------------------------------

    def online_hotspots(self) -> List[SimHotspot]:
        """Hotspots currently online."""
        return [h for h in self.hotspots.values() if h.online]

    def us_hotspots(self) -> List[SimHotspot]:
        """Hotspots actually located in the US."""
        return [h for h in self.hotspots.values() if h.in_us]

    def density_near(self, location: LatLon, radius_km: float = 5.0) -> int:
        """Hotspot count within ``radius_km`` of a point (actual)."""
        return self.index.count_within_radius(location, radius_km)
