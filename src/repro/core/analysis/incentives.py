"""Incentive case-study analyses (§7): silent movers and lying witnesses.

Both detectors run on chain data only, read from the ETL replica — the
exact procedure the paper used to find "Joyful Pink Skunk" (asserted in
Pennsylvania, witnessing in New York) and witnesses claiming RSSIs "as
high as 1,041,313,293 dBm".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List

from repro import units
from repro.chain.crypto import Address
from repro.chain.naming import hotspot_name
from repro.chain.transactions import RewardType
from repro.errors import AnalysisError
from repro.etl.store import EtlStore
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
    store: EtlStore,
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

    The replay merges the assert rows and the valid witness rows by
    ``(height, seq)``; an assert and a receipt are separate
    transactions, so their keys never collide.
    """
    centres: Dict[str, LatLon] = {}

    def centre(token: str) -> LatLon:
        location = centres.get(token)
        if location is None:
            location = centres[token] = HexCell.from_token(token).center()
        return location

    asserted: Dict[Address, LatLon] = {}
    events: Dict[Address, List[LatLon]] = {}
    replay = heapq.merge(
        ((height, seq, True, gateway, token)
         for height, seq, gateway, token, _ in store.assert_rows()),
        ((height, seq, False, witness, token)
         for height, seq, witness, token in store.valid_witness_rows()),
        key=itemgetter(0, 1),
    )
    for _, _, is_assert, gateway, token in replay:
        if is_assert:
            asserted[gateway] = centre(token)
            continue
        witness_loc = asserted.get(gateway)
        if witness_loc is None or witness_loc.is_null_island():
            continue
        challengee_loc = centre(token)
        if witness_loc.distance_km(challengee_loc) > impossible_km:
            events.setdefault(gateway, []).append(challengee_loc)
    # Final asserted locations for reporting.
    asserted = {
        gateway: HexCell.from_token(token).center()
        for gateway, _, token in store.hotspot_rows()
        if token is not None
    }

    rewarded = store.rewarded_gateways(
        (RewardType.POC_WITNESS.value, RewardType.POC_CHALLENGEE.value)
    )
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
    store: EtlStore, eirp_bound_dbm: float = MAX_EIRP_DBM_US
) -> List[RssiAnomaly]:
    """Witness reports above the legal EIRP bound (impossible RSSI).

    "FCC regulations limit transmitters to +36 dBm EIRP. Yet some
    witnesses claim an RSSI as high as 1,041,313,293 dBm."
    """
    anomalies = [
        RssiAnomaly(
            witness=witness,
            name=hotspot_name(witness),
            rssi_dbm=rssi,
            challengee=challengee,
            passed_validity=valid,
        )
        for witness, rssi, challengee, valid in store.rssi_anomaly_rows(
            eirp_bound_dbm
        )
    ]
    anomalies.sort(key=lambda a: -a.rssi_dbm)
    return anomalies


def cheater_rewards(
    store: EtlStore, gateways: List[Address]
) -> Dict[Address, float]:
    """Total HNT earned by specific gateways (are cheats profitable?)."""
    if not gateways:
        raise AnalysisError("no gateways given")
    totals = store.rewards_by_gateway()
    return {g: units.bones_to_hnt(totals.get(g, 0)) for g in gateways}
