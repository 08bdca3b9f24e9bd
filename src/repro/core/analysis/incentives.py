"""Incentive case-study analyses (§7): silent movers and lying witnesses.

Both detectors run on chain data only — the exact procedure the paper
used to find "Joyful Pink Skunk" (asserted in Pennsylvania, witnessing in
New York) and witnesses claiming RSSIs "as high as 1,041,313,293 dBm".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.chain.blockchain import Blockchain
from repro.chain.crypto import Address
from repro.chain.naming import hotspot_name
from repro.chain.transactions import (
    AssertLocation,
    PocReceipts,
    Rewards,
    RewardType,
)
from repro.errors import AnalysisError
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexCell
from repro.radio.lora import MAX_EIRP_DBM_US

__all__ = [
    "SilentMoverFinding",
    "find_silent_movers",
    "RssiAnomaly",
    "find_rssi_anomalies",
    "cheater_rewards",
]


@dataclass(frozen=True)
class SilentMoverFinding:
    """A hotspot whose witnessing geometry contradicts its assert."""

    gateway: Address
    name: str
    asserted_location: LatLon
    #: Median location of challengees it witnessed (where it really is).
    witness_activity_centroid: LatLon
    contradiction_km: float
    contradictory_witness_events: int
    still_rewarded: bool


def find_silent_movers(
    chain: Blockchain,
    impossible_km: float = 300.0,
    min_events: int = 3,
) -> List[SilentMoverFinding]:
    """§7.1: witnesses physically impossible given asserted locations.

    Replays the chain in order, maintaining each hotspot's asserted
    location *as of each witness event* — a hotspot that honestly moved
    and re-asserted is never flagged for its pre-move witnessing. What
    remains are hotspots that repeatedly witness challenges farther than
    ``impossible_km`` from where they claim to be (no LoRa link reaches
    that far): silent movers, never-honest asserts (the Striped Yellow
    Bird pattern), and location-impossible collusion.
    """
    asserted: Dict[Address, LatLon] = {}
    events: Dict[Address, List[LatLon]] = {}
    for _, txn in chain.iter_transactions((AssertLocation, PocReceipts)):
        if isinstance(txn, AssertLocation):
            asserted[txn.gateway] = HexCell.from_token(txn.location_token).center()
            continue
        receipt = txn
        challengee_loc = HexCell.from_token(
            receipt.challengee_location_token
        ).center()
        for report in receipt.witnesses:
            if not report.is_valid:
                continue
            witness_loc = asserted.get(report.witness)
            if witness_loc is None or witness_loc.is_null_island():
                continue
            if witness_loc.distance_km(challengee_loc) > impossible_km:
                events.setdefault(report.witness, []).append(challengee_loc)
    # Final asserted locations for reporting.
    asserted = {
        gateway: HexCell.from_token(record.location_token).center()
        for gateway, record in chain.ledger.hotspots.items()
        if record.location_token is not None
    }

    rewarded = _rewarded_gateways(chain)
    findings: List[SilentMoverFinding] = []
    for gateway, challengee_locs in events.items():
        if len(challengee_locs) < min_events:
            continue
        lats = sorted(l.lat for l in challengee_locs)
        lons = sorted(l.lon for l in challengee_locs)
        centroid = LatLon(lats[len(lats) // 2], lons[len(lons) // 2])
        witness_loc = asserted[gateway]
        findings.append(SilentMoverFinding(
            gateway=gateway,
            name=hotspot_name(gateway),
            asserted_location=witness_loc,
            witness_activity_centroid=centroid,
            contradiction_km=witness_loc.distance_km(centroid),
            contradictory_witness_events=len(challengee_locs),
            still_rewarded=gateway in rewarded,
        ))
    findings.sort(key=lambda f: -f.contradiction_km)
    return findings


@dataclass(frozen=True)
class RssiAnomaly:
    """A witness report with a physically impossible RSSI (§7.2)."""

    witness: Address
    name: str
    rssi_dbm: float
    challengee: Address
    passed_validity: bool


def find_rssi_anomalies(
    chain: Blockchain, eirp_bound_dbm: float = MAX_EIRP_DBM_US
) -> List[RssiAnomaly]:
    """Witness reports above the legal EIRP bound (impossible RSSI).

    "FCC regulations limit transmitters to +36 dBm EIRP. Yet some
    witnesses claim an RSSI as high as 1,041,313,293 dBm."
    """
    anomalies: List[RssiAnomaly] = []
    for _, receipt in chain.iter_transactions(PocReceipts):
        for report in receipt.witnesses:
            if report.rssi_dbm > eirp_bound_dbm:
                anomalies.append(RssiAnomaly(
                    witness=report.witness,
                    name=hotspot_name(report.witness),
                    rssi_dbm=report.rssi_dbm,
                    challengee=receipt.challengee,
                    passed_validity=report.is_valid,
                ))
    anomalies.sort(key=lambda a: -a.rssi_dbm)
    return anomalies


def _rewarded_gateways(chain: Blockchain) -> set:
    """Gateways that ever earned PoC witness/challengee rewards."""
    rewarded = set()
    for _, txn in chain.iter_transactions(Rewards):
        for share in txn.shares:
            if share.gateway is not None and share.reward_type in (
                RewardType.POC_WITNESS, RewardType.POC_CHALLENGEE
            ):
                rewarded.add(share.gateway)
    return rewarded


def cheater_rewards(
    chain: Blockchain, gateways: List[Address]
) -> Dict[Address, float]:
    """Total HNT earned by specific gateways (are cheats profitable?)."""
    if not gateways:
        raise AnalysisError("no gateways given")
    wanted = set(gateways)
    totals: Dict[Address, int] = {g: 0 for g in gateways}
    for _, txn in chain.iter_transactions(Rewards):
        for share in txn.shares:
            if share.gateway in wanted:
                totals[share.gateway] += share.amount_bones
    from repro import units

    return {g: units.bones_to_hnt(b) for g, b in totals.items()}
