"""Chain-side witness validity heuristics (§8.2.1).

A witness is valid unless it trips one of the five criteria the paper
enumerates:

* is too close to the challengee (< 300 m — HIP 15),
* has too high an RSSI (several heuristics),
* has too low an RSSI (several heuristics),
* is pentagonally distorted (rare artifact of H3 distance),
* claims capture on the wrong channel (impossible).

All checks run on **chain-visible data only**: asserted locations and the
witness's self-reported RSSI. That is the paper's §7.2 point — "the
current PoC model relies on witnesses reporting their RSSI truthfully,
while RSSI is easily forged" — and our cheat strategies exploit exactly
the gap between these heuristics and radio truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from repro.geo.geodesy import LatLon, haversine_km_many
from repro.geo.hexgrid import HexCell, pentagon_distorted_uncached
from repro.radio.lora import MAX_EIRP_DBM_US
from repro.radio.propagation import fspl_db, fspl_db_many

__all__ = ["InvalidReason", "ValidityVerdict", "WitnessValidityChecker"]


class InvalidReason(Enum):
    """Why a witness report was marked invalid."""

    TOO_CLOSE = "too_close"
    RSSI_TOO_HIGH = "rssi_too_high"
    RSSI_TOO_LOW = "rssi_too_low"
    PENTAGON_DISTORTION = "pentagon_distortion"
    WRONG_CHANNEL = "wrong_channel"


@dataclass(frozen=True)
class ValidityVerdict:
    """Outcome of validity checking for one witness report."""

    is_valid: bool
    reason: Optional[InvalidReason] = None


# Verdicts are frozen value objects drawn from a six-element space, so the
# batched checker hands out shared instances instead of constructing one
# dataclass per report (the constructor shows up in the PoC hot path).
_VALID_VERDICT = ValidityVerdict(True)
_INVALID_VERDICTS = {
    reason: ValidityVerdict(False, reason) for reason in InvalidReason
}


class WitnessValidityChecker:
    """Implements the five §8.2.1 validity criteria.

    Args:
        min_distance_km: HIP 15 exclusion radius (0.3 km).
        rssi_margin_db: slack added to the free-space upper bound before
            an RSSI is called "too high". Deliberately generous — real
            chains kept heuristics loose to avoid penalising honest
            outliers, which is precisely why forged-but-plausible RSSIs
            sail through (§7.2 takeaway).
        rssi_floor_dbm: below this, a report is "too low" (no real LoRa
            demodulator decodes it).
        eirp_dbm: assumed transmit EIRP for the free-space bound.
    """

    def __init__(
        self,
        min_distance_km: float = 0.3,
        rssi_margin_db: float = 30.0,
        rssi_floor_dbm: float = -139.0,
        eirp_dbm: float = 28.2,
    ) -> None:
        self.min_distance_km = min_distance_km
        self.rssi_margin_db = rssi_margin_db
        self.rssi_floor_dbm = rssi_floor_dbm
        self.eirp_dbm = eirp_dbm

    def check(
        self,
        challengee_location: LatLon,
        witness_location: LatLon,
        witness_cell: HexCell,
        rssi_dbm: float,
        freq_mhz: float,
        channel_index: int,
    ) -> ValidityVerdict:
        """Judge one witness report.

        This is the scalar reference twin of :meth:`check_many`: it
        replays the pre-vectorisation implementation — including the
        uncached pentagon test — one report at a time, so the property
        tests and benchmark baselines measure against the original cost
        and semantics.

        Args:
            challengee_location: challengee's *asserted* location.
            witness_location: witness's *asserted* location.
            witness_cell: witness's asserted hex cell (pentagon check).
            rssi_dbm: the self-reported RSSI.
            freq_mhz: carrier the witness claims it captured on.
            channel_index: index of ``freq_mhz`` in the regional plan,
                −1 when the frequency is off-plan.
        """
        if channel_index < 0:
            return ValidityVerdict(False, InvalidReason.WRONG_CHANNEL)
        if pentagon_distorted_uncached(witness_cell):
            return ValidityVerdict(False, InvalidReason.PENTAGON_DISTORTION)
        distance_km = challengee_location.distance_km(witness_location)
        if distance_km < self.min_distance_km:
            return ValidityVerdict(False, InvalidReason.TOO_CLOSE)
        if rssi_dbm < self.rssi_floor_dbm:
            return ValidityVerdict(False, InvalidReason.RSSI_TOO_LOW)
        if rssi_dbm > self.max_plausible_rssi_dbm(distance_km, freq_mhz):
            return ValidityVerdict(False, InvalidReason.RSSI_TOO_HIGH)
        return ValidityVerdict(True)

    def max_plausible_rssi_dbm(
        self, distance_km: float, freq_mhz: float = 904.6
    ) -> float:
        """Free-space upper bound on honest RSSI at ``distance_km``.

        Public on the blockchain — which is the paper's point: "expert
        manipulators (with access to the cheating detection algorithm
        running on the public blockchain) will always be able to defeat
        heuristics". :class:`~repro.poc.cheats.GossipClique` calls this
        exact function to forge passing values.
        """
        # Absolute physics bound: nothing exceeds the legal EIRP at 0 m.
        if distance_km <= 0:
            return MAX_EIRP_DBM_US
        return min(
            self.eirp_dbm - fspl_db(distance_km, freq_mhz) + self.rssi_margin_db,
            MAX_EIRP_DBM_US,
        )

    def max_plausible_rssi_dbm_many(
        self, distances_km: np.ndarray, freq_mhz: float = 904.6
    ) -> np.ndarray:
        """Vectorised :meth:`max_plausible_rssi_dbm` over a distance array."""
        d = np.asarray(distances_km, dtype=float)
        # A zero distance clamps to a subnormal-adjacent epsilon instead
        # of branching on a mask: its free-space bound explodes upward and
        # the EIRP ceiling takes over, exactly as the scalar branch does,
        # while positive distances (anything ≥ 1e-300 km) pass unchanged.
        bound = (
            self.eirp_dbm
            - fspl_db_many(np.maximum(d, 1e-300), freq_mhz)
            + self.rssi_margin_db
        )
        return np.minimum(bound, MAX_EIRP_DBM_US)

    def check_many(
        self,
        challengee_location: LatLon,
        witness_locations: Sequence[LatLon],
        witness_cells: Sequence[HexCell],
        rssi_dbm: np.ndarray,
        freq_mhz: float,
        channel_indices: Sequence[int],
        distances_km: Optional[np.ndarray] = None,
        pentagon_flags: Optional[Sequence[bool]] = None,
    ) -> List[ValidityVerdict]:
        """Judge a batch of witness reports against one challengee.

        Vectorised twin of :meth:`check`: the distance, floor and free-
        space-bound comparisons run as array operations, and the verdicts
        come back in input order with the exact check-priority of the
        scalar path (wrong channel, then pentagon, then distance, then
        RSSI floor, then RSSI ceiling).

        Args:
            distances_km: optional precomputed challengee→witness
                distances (e.g. from the spatial index); computed via one
                haversine pass when omitted.
            pentagon_flags: optional precomputed pentagon-distortion flag
                per cell (callers that memoise cells per participant pass
                these along); derived from ``witness_cells`` when omitted.
        """
        n = len(witness_locations)
        if n == 0:
            return []
        if distances_km is None:
            lats = np.fromiter(
                (p.lat for p in witness_locations), dtype=float, count=n
            )
            lons = np.fromiter(
                (p.lon for p in witness_locations), dtype=float, count=n
            )
            distances_km = haversine_km_many(
                challengee_location.lat, challengee_location.lon, lats, lons
            )
        else:
            distances_km = np.asarray(distances_km, dtype=float)
        rssi = np.asarray(rssi_dbm, dtype=float)
        too_close = distances_km < self.min_distance_km
        too_low = rssi < self.rssi_floor_dbm
        too_high = rssi > self.max_plausible_rssi_dbm_many(
            distances_km, freq_mhz
        )
        # Plain lists from here on: per-element indexing of numpy bool
        # arrays costs more than the comparisons themselves at witness
        # batch sizes (~10 reports).
        ok = (~(too_close | too_low | too_high)).tolist()
        too_close = too_close.tolist()
        too_low = too_low.tolist()
        if pentagon_flags is None:
            pentagon_flags = [
                cell.is_pentagon_distorted() for cell in witness_cells
            ]
        verdicts: List[ValidityVerdict] = []
        for i in range(n):
            if channel_indices[i] < 0:
                verdicts.append(_INVALID_VERDICTS[InvalidReason.WRONG_CHANNEL])
            elif pentagon_flags[i]:
                verdicts.append(
                    _INVALID_VERDICTS[InvalidReason.PENTAGON_DISTORTION]
                )
            elif ok[i]:
                verdicts.append(_VALID_VERDICT)
            elif too_close[i]:
                verdicts.append(_INVALID_VERDICTS[InvalidReason.TOO_CLOSE])
            elif too_low[i]:
                verdicts.append(_INVALID_VERDICTS[InvalidReason.RSSI_TOO_LOW])
            else:
                verdicts.append(_INVALID_VERDICTS[InvalidReason.RSSI_TOO_HIGH])
        return verdicts
