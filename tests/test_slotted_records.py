"""Records whose count grows with the fleet carry no instance dict.

A world holds one hotspot, participant, ledger record, peerbook row and
backhaul per hotspot, one owner and wallet per owner, and the points,
cells and cities they sit in. Each is a slotted dataclass; this pins
that, and that slotting kept pickling, equality and hashing.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.chain.ledger import HotspotRecord, WalletState
from repro.geo.cities import City
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.sphere import LatLon
from repro.p2p.backhaul import AccessType, BackhaulAssignment, IspProfile
from repro.p2p.peerbook import PeerEntry
from repro.poc.challenge import PocParticipant
from repro.radio.propagation import Environment
from repro.simulation.state import GrowthLogRow
from repro.simulation.world import SimHotspot, SimOwner

_POINT = LatLon(41.8781, -87.6298)
_CITY = City("Chicago", "US", _POINT, 2_700_000, radius_scale=0.5)
_ISP = IspProfile(
    "Spectrum", 11351, "US", AccessType.CABLE, 26.0, 0.62, "24.28",
    footprint_pct=43,
)


def _participant() -> PocParticipant:
    participant = PocParticipant(
        "hs-a", "wal-a", _POINT, LatLon(41.9, -87.6), Environment.URBAN,
    )
    participant.asserted_cell  # fills the per-assertion cell cache
    return participant


RECORDS = {
    "LatLon": lambda: LatLon(-33.8688, 151.2093),
    "HexCell": lambda: HexGrid.encode_cell(_POINT),
    "City": lambda: _CITY,
    "IspProfile": lambda: _ISP,
    "BackhaulAssignment": lambda: BackhaulAssignment(_ISP, "24.28.1.2", True),
    "SimHotspot": lambda: SimHotspot(
        "hs-a", "wal-a", _CITY, _POINT, asserted_location=_POINT,
        backhaul=BackhaulAssignment(_ISP, "24.28.1.2", False),
        move_days=[3, 40], transfer_days=[12], index_location=_POINT,
    ),
    "SimOwner": lambda: SimOwner("wal-a", "pool", _CITY, 3, encashes=True),
    "PocParticipant": _participant,
    "HotspotRecord": lambda: HotspotRecord(
        "hs-a", "wal-a", "c-12-1-2", nonce=2, added_block=7,
        last_assert_block=9,
    ),
    "WalletState": lambda: WalletState(hnt_bones=5, dc=7),
    "PeerEntry": lambda: PeerEntry("hs-a", ["/ip4/24.28.1.2/tcp/44158"]),
    "GrowthLogRow": lambda: GrowthLogRow(4, 2, 10, 9, 7, 2),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]()


def test_the_class_declares_slots(record):
    assert "__slots__" in type(record).__dict__


def test_an_instance_has_no_dict(record):
    assert not hasattr(record, "__dict__")


def test_it_pickles_back_equal(record):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record
    if type(record).__hash__ is not None:
        assert hash(again) == hash(record)


def test_a_mutable_record_still_takes_its_fields_only():
    wallet = WalletState()
    wallet.dc += 3
    assert wallet == WalletState(dc=3)
    with pytest.raises(AttributeError):
        wallet.hnt_balance = 1


def test_frozen_records_stay_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        _POINT.lat = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        HexCell(12, 1, 2).q = 3


def test_the_participant_cell_cache_survives_a_round_trip():
    participant = _participant()
    again = pickle.loads(pickle.dumps(participant))
    assert again.asserted_cell == participant.asserted_cell
    assert again.asserted_cell.token == participant.asserted_cell.token
