"""An explorer.helium.com-equivalent query layer.

The paper leans on the Helium Explorer throughout — hotspot pages with
names, owners, locations and witness lists (Fig. 16), the coverage dot
map (Fig. 12a), owner wallets, reward histories. This module provides the
same views over the ETL replica of a simulated (or dumped) chain, so
every case study in the paper can be retraced interactively:

>>> explorer = Explorer.from_store(store)                 # doctest: +SKIP
>>> page = explorer.hotspot_by_name("Joyful Pink Skunk")  # doctest: +SKIP
>>> page.recent_witnesses[:3]                             # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.geo.hexgrid import HexCell
from repro.geo.sphere import LatLon

__all__ = ["HotspotPage", "OwnerPage", "WitnessEvent", "Explorer"]

#: A wallet or hotspot address, as :data:`repro.chain.crypto.Address`
#: names it; restated so that the serving process, which imports the
#: page types and reads rows, never imports the chain package.
Address = str


@dataclass(frozen=True)
class WitnessEvent:
    """One witnessing interaction, as an explorer page lists it."""

    block: int
    counterparty: Address
    counterparty_name: str
    rssi_dbm: float
    distance_km: float
    valid: bool


@dataclass
class HotspotPage:
    """Everything the explorer shows for one hotspot."""

    gateway: Address
    name: str
    owner: Address
    location: Optional[LatLon]
    location_token: Optional[str]
    added_block: int
    assert_count: int
    total_rewards_hnt: float
    packets_ferried: int
    transfer_count: int
    recent_witnesses: List[WitnessEvent] = field(default_factory=list)
    recent_witnessed_by: List[WitnessEvent] = field(default_factory=list)


@dataclass
class OwnerPage:
    """Everything the explorer shows for one wallet."""

    owner: Address
    hotspot_count: int
    hotspots: List[Tuple[Address, str]]
    hnt_balance: float
    dc_balance: int
    total_rewards_hnt: float


class Explorer:
    """Answers page queries from a :class:`repro.etl.store.EtlStore`.

    The pages, name lookups and name search are the store's own
    queries, so the explorer, the HTTP tier and the CLI answer alike.

    Args:
        store: the ETL replica to explore.
        recent_limit: witness events retained per hotspot page.
    """

    def __init__(self, store, recent_limit: int = 25) -> None:
        self.store = store
        self.recent_limit = recent_limit

    @classmethod
    def from_store(cls, store, recent_limit: int = 25) -> "Explorer":
        """An explorer answering from an ETL store."""
        return cls(store, recent_limit=recent_limit)

    # -- pages ---------------------------------------------------------------

    def hotspot(self, gateway: Address) -> HotspotPage:
        """The explorer page for a hotspot address."""
        page = self.store.query_hotspot_page(gateway, self.recent_limit)
        if page is None:
            raise AnalysisError(f"unknown hotspot: {gateway}")
        return page

    def hotspot_by_name(self, name: str) -> HotspotPage:
        """Look a hotspot up by its three-word name (case-insensitive;
        of hotspots sharing a name, the first on the ledger)."""
        gateway = self.store.gateway_by_name(name)
        if gateway is None:
            raise AnalysisError(f"no hotspot named {name!r}")
        return self.hotspot(gateway)

    def owner(self, wallet: Address) -> OwnerPage:
        """The explorer page for a wallet."""
        page = self.store.query_owner_page(wallet)
        if page is None:
            raise AnalysisError(f"unknown wallet: {wallet}")
        return page

    def search(self, query: str, limit: int = 10) -> List[Tuple[Address, str]]:
        """Substring search over hotspot names, sorted by name."""
        return self.store.search_names(query, limit)

    def hotspots_near(
        self, center: LatLon, radius_km: float, limit: int = 50
    ) -> List[HotspotPage]:
        """Hotspots asserted within ``radius_km`` of a point (hex view)."""
        pages = []
        for gateway, token in self._located_hotspots():
            location = HexCell.from_token(token).center()
            if center.distance_km(location) <= radius_km:
                pages.append(self.hotspot(gateway))
                if len(pages) >= limit:
                    break
        return pages

    def _located_hotspots(self) -> Iterator[Tuple[Address, str]]:
        """``(gateway, location_token)`` pairs, ledger insertion order."""
        for gateway, _, token in self.store.hotspot_rows():
            if token is not None:
                yield gateway, token
