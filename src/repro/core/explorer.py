"""An explorer.helium.com-equivalent query layer.

The paper leans on the Helium Explorer throughout — hotspot pages with
names, owners, locations and witness lists (Fig. 16), the coverage dot
map (Fig. 12a), owner wallets, reward histories. This module provides the
same views over a simulated (or dumped) chain, so every case study in the
paper can be retraced interactively:

>>> explorer = Explorer(result.chain)                   # doctest: +SKIP
>>> page = explorer.hotspot_by_name("Joyful Pink Skunk")  # doctest: +SKIP
>>> page.recent_witnesses[:3]                             # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro import units
from repro.chain.crypto import Address
from repro.chain.naming import hotspot_name
from repro.chain.transactions import (
    PocReceipts,
    Rewards,
    StateChannelClose,
    TransferHotspot,
)
from repro.errors import AnalysisError
from repro.geo.hexgrid import HexCell
from repro.geo.sphere import LatLon

if TYPE_CHECKING:
    from repro.chain.blockchain import Blockchain

__all__ = ["HotspotPage", "OwnerPage", "WitnessEvent", "Explorer"]


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
    """Indexes a chain once; answers page queries in O(1)-ish.

    Two interchangeable backends answer the same queries with identical
    pages (parity is property-tested):

    * ``Explorer(chain)`` walks the in-memory object graph once and
      indexes it, as always;
    * ``Explorer(store=etl_store)`` (or :meth:`from_store`) delegates
      page queries to a :class:`repro.etl.store.EtlStore`, the
      persisted DeWi-style replica — no chain object needed.

    Args:
        chain: the chain to explore (in-memory backend).
        recent_limit: witness events retained per hotspot page.
        store: an ETL store to query instead of a chain.
    """

    def __init__(
        self,
        chain: Optional[Blockchain] = None,
        recent_limit: int = 25,
        store=None,
    ) -> None:
        if (chain is None) == (store is None):
            raise AnalysisError(
                "Explorer needs exactly one backend: a chain or a store"
            )
        self.chain = chain
        self.store = store
        self.recent_limit = recent_limit
        self._name_index: Dict[str, Address] = {}
        self._rewards: Dict[Address, int] = {}
        self._packets: Dict[Address, int] = {}
        self._transfers: Dict[Address, int] = {}
        self._witnessing: Dict[Address, List[WitnessEvent]] = {}
        self._witnessed_by: Dict[Address, List[WitnessEvent]] = {}
        if chain is not None:
            self._build_indexes()
        else:
            for gateway, name, _ in store.hotspot_rows():
                self._name_index[name.lower()] = gateway

    @classmethod
    def from_store(cls, store, recent_limit: int = 25) -> "Explorer":
        """An explorer answering from an ETL store instead of a chain."""
        return cls(recent_limit=recent_limit, store=store)

    def _build_indexes(self) -> None:
        for gateway in self.chain.ledger.hotspots:
            self._name_index[hotspot_name(gateway).lower()] = gateway
        for height, txn in self.chain.iter_transactions(
            (Rewards, StateChannelClose, TransferHotspot, PocReceipts)
        ):
            if isinstance(txn, Rewards):
                for share in txn.shares:
                    if share.gateway is not None:
                        self._rewards[share.gateway] = (
                            self._rewards.get(share.gateway, 0)
                            + share.amount_bones
                        )
            elif isinstance(txn, StateChannelClose):
                for summary in txn.summaries:
                    self._packets[summary.hotspot] = (
                        self._packets.get(summary.hotspot, 0)
                        + summary.num_packets
                    )
            elif isinstance(txn, TransferHotspot):
                self._transfers[txn.gateway] = (
                    self._transfers.get(txn.gateway, 0) + 1
                )
            elif isinstance(txn, PocReceipts):
                self._index_receipt(height, txn)

    def _index_receipt(self, height: int, receipt: PocReceipts) -> None:
        challengee_loc = HexCell.from_token(
            receipt.challengee_location_token
        ).center()
        for report in receipt.witnesses:
            witness_loc = HexCell.from_token(
                report.reported_location_token
            ).center()
            distance = challengee_loc.distance_km(witness_loc)
            event_out = WitnessEvent(
                block=height,
                counterparty=receipt.challengee,
                counterparty_name=hotspot_name(receipt.challengee),
                rssi_dbm=report.rssi_dbm,
                distance_km=distance,
                valid=report.is_valid,
            )
            event_in = WitnessEvent(
                block=height,
                counterparty=report.witness,
                counterparty_name=hotspot_name(report.witness),
                rssi_dbm=report.rssi_dbm,
                distance_km=distance,
                valid=report.is_valid,
            )
            self._append_recent(self._witnessing, report.witness, event_out)
            self._append_recent(self._witnessed_by, receipt.challengee, event_in)

    def _append_recent(
        self, store: Dict[Address, List[WitnessEvent]], key: Address,
        event: WitnessEvent,
    ) -> None:
        bucket = store.setdefault(key, [])
        bucket.append(event)
        if len(bucket) > self.recent_limit:
            del bucket[0]

    # -- pages ---------------------------------------------------------------

    def hotspot(self, gateway: Address) -> HotspotPage:
        """The explorer page for a hotspot address."""
        if self.store is not None:
            page = self.store.query_hotspot_page(gateway, self.recent_limit)
            if page is None:
                raise AnalysisError(f"unknown hotspot: {gateway}")
            return page
        record = self.chain.ledger.hotspots.get(gateway)
        if record is None:
            raise AnalysisError(f"unknown hotspot: {gateway}")
        location = None
        if record.location_token is not None:
            location = HexCell.from_token(record.location_token).center()
        return HotspotPage(
            gateway=gateway,
            name=record.name,
            owner=record.owner,
            location=location,
            location_token=record.location_token,
            added_block=record.added_block,
            assert_count=record.nonce,
            total_rewards_hnt=units.bones_to_hnt(self._rewards.get(gateway, 0)),
            packets_ferried=self._packets.get(gateway, 0),
            transfer_count=self._transfers.get(gateway, 0),
            recent_witnesses=list(self._witnessing.get(gateway, [])),
            recent_witnessed_by=list(self._witnessed_by.get(gateway, [])),
        )

    def hotspot_by_name(self, name: str) -> HotspotPage:
        """Look a hotspot up by its three-word name (case-insensitive)."""
        gateway = self._name_index.get(name.lower())
        if gateway is None:
            raise AnalysisError(f"no hotspot named {name!r}")
        return self.hotspot(gateway)

    def owner(self, wallet: Address) -> OwnerPage:
        """The explorer page for a wallet."""
        if self.store is not None:
            page = self.store.query_owner_page(wallet)
            if page is None:
                raise AnalysisError(f"unknown wallet: {wallet}")
            return page
        fleet = self.chain.ledger.hotspots_of(wallet)
        state = self.chain.ledger.wallets.get(wallet)
        if not fleet and state is None:
            raise AnalysisError(f"unknown wallet: {wallet}")
        total_rewards = sum(
            self._rewards.get(record.gateway, 0) for record in fleet
        )
        return OwnerPage(
            owner=wallet,
            hotspot_count=len(fleet),
            hotspots=[(r.gateway, r.name) for r in fleet],
            hnt_balance=state.hnt if state is not None else 0.0,
            dc_balance=state.dc if state is not None else 0,
            total_rewards_hnt=units.bones_to_hnt(total_rewards),
        )

    def search(self, query: str, limit: int = 10) -> List[Tuple[Address, str]]:
        """Substring search over hotspot names."""
        needle = query.lower()
        matches = [
            (gateway, hotspot_name(gateway))
            for name, gateway in self._name_index.items()
            if needle in name
        ]
        matches.sort(key=lambda pair: pair[1])
        return matches[:limit]

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
        if self.store is not None:
            for gateway, _, token in self.store.hotspot_rows():
                if token is not None:
                    yield gateway, token
            return
        for gateway, record in self.chain.ledger.hotspots.items():
            if record.location_token is not None:
                yield gateway, record.location_token
