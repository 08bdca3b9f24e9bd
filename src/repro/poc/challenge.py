"""Simulation of a single PoC challenge (§2.3).

The physics runs on **actual** locations; the chain's validity checks run
on **asserted** locations and self-reported RSSI. The gap between the two
is where every §7 incentive pathology lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.crypto import Address
from repro.chain.transactions import PocReceipts, PocRequest, WitnessReport
from repro.digest import sha256
from repro.economics.rewards import PocEvent
from repro.geo.geodesy import LatLon, haversine_km_many, latlon_arrays
from repro.geo.hexgrid import HexCell, HexGrid
from repro.poc.cheats import CheatStrategy
from repro.poc.validity import WitnessValidityChecker
from repro.radio.lora import ChannelPlan, US915
from repro.radio.propagation import Environment, sample_link_rssi_dbm_many

__all__ = [
    "PocParticipant",
    "ChallengeOutcome",
    "run_challenge",
]

#: Hotspots beyond this actual distance are never candidate witnesses
#: (generously above the 60–110 km over-water receptions the paper notes).
WITNESS_QUERY_RADIUS_KM: float = 120.0

#: LoRa concentrators cannot demodulate below roughly this RSSI.
DEMOD_FLOOR_DBM: float = -139.0


@dataclass(slots=True)
class PocParticipant:
    """A hotspot as the PoC engine sees it.

    Args:
        gateway / owner: chain addresses.
        asserted_location: what the chain believes (hex-centre snapped).
        actual_location: radio ground truth; differs for silent movers.
        environment: propagation class of the deployment site.
        antenna_gain_dbi: link-budget gain (a few hotspots run high-gain
            antennas — the source of the paper's footnote-16 outliers).
        online: offline hotspots neither transmit nor witness.
        cheat: optional cheating strategy.
    """

    gateway: Address
    owner: Address
    asserted_location: LatLon
    actual_location: LatLon
    environment: Environment = Environment.SUBURBAN
    antenna_gain_dbi: float = 1.2
    online: bool = True
    cheat: Optional[CheatStrategy] = None
    #: Memoised (location, cell, token, pentagon) for the asserted spot;
    #: every challenge in a simulation re-derives these for the same few
    #: thousand locations, so they are computed once per assertion.
    _cell_cache: Optional[Tuple[LatLon, HexCell, str, bool]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _poc_cell(self) -> Tuple[LatLon, HexCell, str, bool]:
        """(location, cell, token, pentagon-distorted) for the asserted
        location, recomputed only when the assertion changes (identity
        check: re-asserting installs a new ``LatLon`` object)."""
        cache = self._cell_cache
        loc = self.asserted_location
        if cache is None or cache[0] is not loc:
            cell = HexGrid.encode_cell(loc)
            cache = (loc, cell, cell.token, cell.is_pentagon_distorted())
            self._cell_cache = cache
        return cache

    @property
    def asserted_cell(self) -> HexCell:
        """Asserted location as a res-12 hex cell."""
        return self._poc_cell()[1]

    @property
    def is_silent_mover(self) -> bool:
        """True when actual and asserted locations diverge (> 1 km)."""
        return self.actual_location.distance_km(self.asserted_location) > 1.0


@dataclass
class ChallengeOutcome:
    """Everything one challenge produced."""

    request: PocRequest
    receipts: PocReceipts
    event: PocEvent
    #: (witness gateway, actual distance km) for every report filed,
    #: valid or not — ground truth the analyses can score against.
    witness_actual_distances: List[Tuple[Address, float]] = field(
        default_factory=list
    )


def _link_environment(a: Environment, b: Environment) -> Environment:
    """Effective environment of a link between two sites.

    Clutter at either end attenuates, so the worse (higher path-loss
    exponent) endpoint dominates — except for links where both ends are
    in open country or over water, which is how the paper's rare 60–110
    km over-lake witness links arise (footnote 16).
    """
    open_envs = (Environment.OVER_WATER, Environment.RURAL, Environment.FREE_SPACE)
    if a in open_envs and b in open_envs:
        return min(a, b, key=lambda env: env.path_loss_exponent)
    return max(a, b, key=lambda env: env.path_loss_exponent)


#: Effective environment per endpoint pair, precomputed over the whole
#: (tiny) environment product and indexed by :attr:`Environment.index` so
#: the per-witness hot path is two list subscripts, not enum hashing.
_LINK_ENV = [
    [_link_environment(a, b) for b in sorted(Environment, key=lambda e: e.index)]
    for a in sorted(Environment, key=lambda e: e.index)
]


def run_challenge(
    challenger: PocParticipant,
    challengee: PocParticipant,
    candidates: Sequence[PocParticipant],
    rng: np.random.Generator,
    checker: Optional[WitnessValidityChecker] = None,
    plan: ChannelPlan = US915,
    distances_km: Optional[Sequence[float]] = None,
) -> ChallengeOutcome:
    """Simulate one challenge and produce its chain transactions.

    Consumes the RNG stream in a fixed order — channel draw, secret
    draw, then three vectorised physics phases: (1) one batched
    shadowing draw covering the in-range candidates in candidate order,
    (2) per-candidate cheat forgery draws in candidate order, (3) one
    batched SNR draw covering the filed reports in report order. The
    validity checks consume no randomness, so they run after the SNR
    draw. The scalar twin in the test suite replays the same draw
    order, so both implementations are stream-compatible and
    property-testable against each other.

    Args:
        challenger: the hotspot that constructed the challenge.
        challengee: the hotspot asked to transmit.
        candidates: hotspots near the challengee's *actual* location
            (from a spatial index), plus any gossip-clique members.
        rng: random stream.
        checker: validity heuristics (defaults to chain defaults).
        plan: regional channel plan for the transmission.
        distances_km: optional challengee→candidate *actual* distances
            aligned with ``candidates``. The spatial index already
            computed these during candidate selection; passing them
            skips one haversine pass. Omit when any candidate (e.g. an
            appended gossip-clique member) lacks a precomputed distance.
    """
    if checker is None:
        checker = WitnessValidityChecker()
    freq_mhz = plan.random_channel(rng)
    channel_index = plan.channel_index(freq_mhz)
    secret_hash = sha256(
        f"{challenger.gateway}:{challengee.gateway}:{rng.integers(1 << 30)}".encode()
    ).hexdigest()

    if distances_km is None:
        eligible = [
            c
            for c in candidates
            if c.gateway != challengee.gateway and c.online
        ]
        provided_km: Optional[np.ndarray] = None
    else:
        eligible = []
        keep_idx: List[int] = []
        for i, c in enumerate(candidates):
            if c.gateway != challengee.gateway and c.online:
                eligible.append(c)
                keep_idx.append(i)
        provided_km = np.asarray(distances_km, dtype=float)[keep_idx]
    n = len(eligible)

    reports: List[WitnessReport] = []
    event_witnesses: List[Tuple[Address, Address]] = []
    actual_distances: List[Tuple[Address, float]] = []

    if n > 0:
        if provided_km is None:
            act_lats, act_lons = latlon_arrays(
                c.actual_location for c in eligible
            )
            actual_km = haversine_km_many(
                challengee.actual_location.lat,
                challengee.actual_location.lon,
                act_lats,
                act_lons,
            )
        else:
            actual_km = provided_km
        in_range = (actual_km <= WITNESS_QUERY_RADIUS_KM) & (actual_km > 1e-4)
        in_range_pos = np.flatnonzero(in_range).tolist()

        # Asserted distances feed cheat forgery (any eligible candidate)
        # and the validity checks (filed reports only) — so the full pass
        # is deferred to the rare challenge that actually has a cheater.
        has_cheat = any(c.cheat is not None for c in eligible)
        asserted_km: Optional[np.ndarray] = None
        if has_cheat:
            ass_lats, ass_lons = latlon_arrays(
                c.asserted_location for c in eligible
            )
            asserted_km = haversine_km_many(
                challengee.asserted_location.lat,
                challengee.asserted_location.lon,
                ass_lats,
                ass_lons,
            )

        # Phase 1: one batched link sample (mean path loss + shadowing)
        # for every in-range candidate, in candidate order.
        env_row = _LINK_ENV[challengee.environment.index]
        link_envs = []
        gain_list: List[float] = []
        for pos in in_range_pos:
            candidate = eligible[pos]
            link_envs.append(env_row[candidate.environment.index])
            gain_list.append(candidate.antenna_gain_dbi)
        sampled = sample_link_rssi_dbm_many(
            actual_km[in_range_pos], link_envs, gain_list, rng
        )
        sampled_list = sampled.tolist()

        # Phase 2: cheat forgery draws, per candidate in candidate order.
        # Honest-only challenges (the common case) touch just the
        # in-range candidates; out-of-range honest candidates can never
        # report, so the per-candidate ``honest`` scratch list is only
        # materialised when a cheater needs to see the full fleet.
        reporting: List[int] = []
        reported_vals: List[float] = []
        if has_cheat:
            assert asserted_km is not None
            honest: List[Optional[float]] = [None] * n
            for j, rssi in enumerate(sampled_list):
                if rssi >= DEMOD_FLOOR_DBM:
                    honest[in_range_pos[j]] = rssi
            asserted_list = asserted_km.tolist()
            for pos, candidate in enumerate(eligible):
                honest_rssi = honest[pos]
                reported: Optional[float]
                if candidate.cheat is not None:
                    fabricate = (
                        honest_rssi is None
                        and candidate.cheat.witnesses_out_of_range(
                            challengee.gateway
                        )
                    )
                    if honest_rssi is None and not fabricate:
                        continue
                    reported = candidate.cheat.forge_rssi(
                        honest_rssi, asserted_list[pos], checker, rng
                    )
                    if reported is None:
                        continue
                else:
                    if honest_rssi is None:
                        continue
                    reported = honest_rssi
                reporting.append(pos)
                reported_vals.append(reported)
        else:
            for j, rssi in enumerate(sampled_list):
                if rssi >= DEMOD_FLOOR_DBM:
                    reporting.append(in_range_pos[j])
                    reported_vals.append(rssi)

        # Phase 3: one batched SNR draw covering the reports in order.
        snrs = rng.normal(5.0, 4.0, size=len(reporting)).tolist()

        if reporting:
            witnesses = [eligible[pos] for pos in reporting]
            # (location, cell, token, pentagon) per witness, from each
            # participant's own per-assertion memo.
            cells = [witness._poc_cell() for witness in witnesses]
            verdicts = checker.check_many(
                challengee_location=challengee.asserted_location,
                witness_locations=[w.asserted_location for w in witnesses],
                witness_cells=[cell[1] for cell in cells],
                rssi_dbm=np.asarray(reported_vals, dtype=float),
                freq_mhz=freq_mhz,
                channel_indices=[channel_index] * len(reporting),
                # The cheat path already has the challengee→witness
                # asserted distances; otherwise the checker computes
                # them over just the filed reports.
                distances_km=(
                    None if asserted_km is None else asserted_km[reporting]
                ),
                pentagon_flags=[cell[3] for cell in cells],
            )
            actual_list = actual_km.tolist()
            for j, witness in enumerate(witnesses):
                verdict = verdicts[j]
                reports.append(WitnessReport(
                    witness=witness.gateway,
                    rssi_dbm=reported_vals[j],
                    snr_db=snrs[j],
                    frequency_mhz=freq_mhz,
                    reported_location_token=cells[j][2],
                    is_valid=verdict.is_valid,
                    invalid_reason=(
                        verdict.reason.value
                        if verdict.reason is not None
                        else None
                    ),
                ))
                actual_distances.append(
                    (witness.gateway, actual_list[reporting[j]])
                )
                if verdict.is_valid:
                    event_witnesses.append((witness.gateway, witness.owner))

    request = PocRequest(
        challenger=challenger.gateway,
        secret_hash=secret_hash,
        challengee=challengee.gateway,
    )
    receipts = PocReceipts(
        challenger=challenger.gateway,
        challengee=challengee.gateway,
        challengee_location_token=challengee._poc_cell()[2],
        witnesses=tuple(reports),
        frequency_mhz=freq_mhz,
    )
    event = PocEvent(
        challenger=challenger.gateway,
        challenger_owner=challenger.owner,
        challengee=challengee.gateway,
        challengee_owner=challengee.owner,
        witnesses=tuple(event_witnesses),
    )
    return ChallengeOutcome(
        request=request,
        receipts=receipts,
        event=event,
        witness_actual_distances=actual_distances,
    )
