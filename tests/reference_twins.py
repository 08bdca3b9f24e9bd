"""Reference twins: the slower or chain-walking implementations that
production code replaced, kept as test oracles and timing baselines.

* **Phase hot paths.** Each function replays the original (slower)
  implementation of a phase hot path against a
  :class:`~repro.simulation.state.WorldState`. Equivalence tests
  monkeypatch them onto the corresponding phase class attribute
  (``OnlinePhase.impl``, ``PoCPhase.candidates_impl``,
  ``TrafficPhase.ferry_impl``) and assert the scenario digest does not
  move; ``tests/test_budgets.py`` uses them as timing baselines. They
  consume the same named RNG streams, in the same order, as the fast
  paths — that is what makes the swap bit-transparent.
* **Scalar kernels.** ``run_challenge_reference``,
  ``union_area_km2_reference``, ``landmass_fraction_reference`` and
  ``within_radius_reference`` replay the pre-vectorisation arithmetic
  and RNG order of their production kernels.
* **Object-per-point forms.** :class:`PolygonHullShape` is the hull
  that holds a :class:`~repro.geo.polygon.Polygon` of ``LatLon``s and a
  list of fan-triangle tuples, ``build_witness_geometry_reference``
  locates every witness report anew and keeps ``(location, distance,
  RSSI)`` triples, and ``walk_reference`` keeps every uplink's record
  and scores the walk from the list. The compact production forms must
  match them bit for bit.
* **Chain walks.** The analyses and the explorer read the ETL replica
  (:class:`~repro.etl.store.EtlStore`). :class:`ChainRows` derives every
  row the analyses read by walking a :class:`Blockchain` and its ledger
  instead, ``find_silent_movers_reference`` is the time-aware chain
  replay of §7.1, and :class:`ChainExplorer` builds explorer pages from
  an in-memory index of the chain. The parity tests run each analysis
  on both and compare.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.chain.blockchain import Blockchain
from repro.chain.crypto import Address
from repro.chain.naming import hotspot_name
from repro.chain.transactions import (
    AssertLocation,
    PocReceipts,
    PocRequest,
    Rewards,
    RewardType,
    StateChannelClose,
    StateChannelOpen,
    TransferHotspot,
    WitnessReport,
)
from repro.core.coverage import (
    CoverageEstimate,
    CoverageModel,
    Shape,
    _triangle_area_km2,
)
from repro.core.analysis.incentives import SilentMoverFinding
from repro.core.explorer import HotspotPage, OwnerPage, WitnessEvent
from repro.economics.rewards import PocEvent
from repro.errors import AnalysisError, GeoError
from repro.field.reconcile import AckTable, Hip15Accuracy
from repro.field.walks import WalkExperiment, WalkTrace
from repro.geo.polygon import Polygon
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials
from repro.lorawan.mac import AckOutcome
from repro.lorawan.network import TransmissionRecord
from repro.geo.geodesy import LatLon, haversine_km
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.landmass import Landmass
from repro.geo.spatialindex import SpatialIndex
from repro.poc.challenge import (
    DEMOD_FLOOR_DBM,
    WITNESS_QUERY_RADIUS_KM,
    ChallengeOutcome,
    PocParticipant,
    _link_environment,
)
from repro.poc.cheats import GossipClique
from repro.poc.validity import WitnessValidityChecker
from repro.radio.lora import US915, ChannelPlan
from repro.radio.propagation import LinkBudget, PropagationModel
from repro.simulation.state import WorldState

__all__ = [
    "update_online_reference",
    "candidates_for_reference",
    "ferry_weights_reference",
    "run_challenge_reference",
    "union_area_km2_reference",
    "landmass_fraction_reference",
    "within_radius_reference",
    "PolygonHullShape",
    "build_witness_geometry_reference",
    "walk_reference",
    "ChainRows",
    "find_silent_movers_reference",
    "ChainExplorer",
]


def update_online_reference(state: WorldState, day: int) -> None:
    """Pre-vectorisation twin of
    :func:`repro.simulation.phases.online.update_online`.

    Replays the per-gateway Python loop (dict walk, scalar compare,
    unconditional attribute writes) including its costs.
    """
    rng = state.hub.stream("uptime")
    gateways = list(state.uptime.keys())
    if not gateways:
        return
    rolls = rng.random(len(gateways))
    for gateway, roll in zip(gateways, rolls):
        online = bool(roll < state.uptime[gateway])
        state.world.hotspots[gateway].online = online
        participant = state.participants.get(gateway)
        if participant is not None:
            participant.online = online


def candidates_for_reference(
    state: WorldState, challengee: PocParticipant, rng: np.random.Generator
) -> Tuple[List[PocParticipant], Optional[np.ndarray]]:
    """Pre-vectorisation twin of
    :func:`repro.simulation.phases.poc.candidates_for`.

    Replays the ``distances.tolist()`` materialisation and the
    per-element nearest-first walk; equivalence tests assert the fast
    path returns exactly the same candidates and distances.
    """
    nearby, distances = state.world.index.within_radius_distances(
        challengee.actual_location, 120.0
    )
    cap = state.config.max_witness_candidates
    participants = state.participants
    distance_list = distances.tolist()
    kept: List[PocParticipant] = []
    kept_km: Optional[List[float]] = []
    for i in np.argsort(distances, kind="stable").tolist():
        point, hotspot = nearby[i]
        participant = participants.get(hotspot.gateway)
        if participant is not None and participant.online:
            kept.append(participant)
            if kept_km is not None:
                if point is participant.actual_location:
                    kept_km.append(distance_list[i])
                else:
                    kept_km = None
            if len(kept) >= cap:
                break
    if isinstance(challengee.cheat, GossipClique):
        present = {c.gateway for c in kept}
        for member in sorted(challengee.cheat.members):
            participant = participants.get(member)
            if (
                participant is not None
                and participant.online
                and member not in present
            ):
                kept.append(participant)
                kept_km = None
    if kept_km is None:
        return kept, None
    return kept, np.asarray(kept_km, dtype=float)


def ferry_weights_reference(
    state: WorldState, day: int, rng: np.random.Generator
) -> Dict[Address, float]:
    """Pre-elimination twin of
    :func:`repro.simulation.phases.traffic.ferry_weights`: the daily
    O(fleet) rebuild, kept as equivalence oracle and timing baseline."""
    weights: Dict[Address, float] = {}
    for hotspot in state.world.hotspots.values():
        if not hotspot.online or hotspot.is_validator:
            continue
        owner = state.world.owners.get(hotspot.owner)
        if owner is not None and owner.archetype == "commercial":
            weights[hotspot.gateway] = 30.0
        elif hotspot.ferries_data:
            weights[hotspot.gateway] = 1.0
    return weights


def run_challenge_reference(
    challenger: PocParticipant,
    challengee: PocParticipant,
    candidates: Sequence[PocParticipant],
    rng: np.random.Generator,
    checker: Optional[WitnessValidityChecker] = None,
    plan: ChannelPlan = US915,
) -> ChallengeOutcome:
    """Scalar twin of :func:`repro.poc.challenge.run_challenge`.

    Pure-Python arithmetic, one candidate at a time, consuming the RNG
    in the same three phases as the vectorised path (sequential scalar
    draws from a numpy ``Generator`` are bitwise identical to one batch
    draw of the same length). Kept as the oracle for the property tests
    and as the baseline the performance benchmarks measure speedups
    against — so it deliberately replays the pre-vectorisation costs
    too: a cell encoding and a pentagon test (via
    :meth:`WitnessValidityChecker.check`) per report, and one
    :class:`PropagationModel` per link.
    """
    if checker is None:
        checker = WitnessValidityChecker()
    freq_mhz = plan.random_channel(rng)
    channel_index = plan.channel_index(freq_mhz)
    secret_hash = hashlib.sha256(
        f"{challenger.gateway}:{challengee.gateway}:{rng.integers(1 << 30)}".encode()
    ).hexdigest()

    eligible = [
        c
        for c in candidates
        if c.gateway != challengee.gateway and c.online
    ]

    # Phase 1: sample every in-range link, in candidate order.
    honest_rssi_by_pos: List[Optional[float]] = []
    actual_km_by_pos: List[float] = []
    for candidate in eligible:
        actual_km = challengee.actual_location.distance_km(
            candidate.actual_location
        )
        actual_km_by_pos.append(actual_km)
        honest_rssi: Optional[float] = None
        if actual_km <= WITNESS_QUERY_RADIUS_KM and actual_km > 1e-4:
            env = _link_environment(
                challengee.environment, candidate.environment
            )
            model = PropagationModel(
                env,
                LinkBudget(antenna_gain_dbi=candidate.antenna_gain_dbi),
            )
            rssi = model.sample_rssi_dbm(actual_km, rng)
            if rssi >= DEMOD_FLOOR_DBM:
                honest_rssi = rssi
        honest_rssi_by_pos.append(honest_rssi)

    # Phase 2: cheat forgery draws, in candidate order.
    reporting: List[int] = []
    reported_vals: List[float] = []
    for pos, candidate in enumerate(eligible):
        honest_rssi = honest_rssi_by_pos[pos]
        asserted_km = challengee.asserted_location.distance_km(
            candidate.asserted_location
        )
        reported: Optional[float]
        if candidate.cheat is not None:
            fabricate = (
                honest_rssi is None
                and candidate.cheat.witnesses_out_of_range(challengee.gateway)
            )
            if honest_rssi is None and not fabricate:
                continue
            reported = candidate.cheat.forge_rssi(
                honest_rssi, asserted_km, checker, rng
            )
            if reported is None:
                continue
        else:
            if honest_rssi is None:
                continue
            reported = honest_rssi
        reporting.append(pos)
        reported_vals.append(reported)

    verdicts = []
    cells = []
    for j, pos in enumerate(reporting):
        candidate = eligible[pos]
        # The pre-vectorisation code encoded the cell separately for the
        # validity check and again for the report token; replay both.
        cell = HexGrid.encode_cell(candidate.asserted_location)
        cells.append(HexGrid.encode_cell(candidate.asserted_location))
        verdicts.append(checker.check(
            challengee_location=challengee.asserted_location,
            witness_location=candidate.asserted_location,
            witness_cell=cell,
            rssi_dbm=reported_vals[j],
            freq_mhz=freq_mhz,
            channel_index=channel_index,
        ))

    # Phase 3: SNR draws, in report order.
    reports: List[WitnessReport] = []
    event_witnesses: List[Tuple[Address, Address]] = []
    actual_distances: List[Tuple[Address, float]] = []
    for j, pos in enumerate(reporting):
        candidate = eligible[pos]
        verdict = verdicts[j]
        reports.append(WitnessReport(
            witness=candidate.gateway,
            rssi_dbm=reported_vals[j],
            snr_db=float(rng.normal(5.0, 4.0)),
            frequency_mhz=freq_mhz,
            reported_location_token=cells[j].token,
            is_valid=verdict.is_valid,
            invalid_reason=(
                verdict.reason.value if verdict.reason is not None else None
            ),
        ))
        actual_distances.append((candidate.gateway, actual_km_by_pos[pos]))
        if verdict.is_valid:
            event_witnesses.append((candidate.gateway, candidate.owner))

    request = PocRequest(
        challenger=challenger.gateway,
        secret_hash=secret_hash,
        challengee=challengee.gateway,
    )
    receipts = PocReceipts(
        challenger=challenger.gateway,
        challengee=challengee.gateway,
        challengee_location_token=HexGrid.encode_cell(
            challengee.asserted_location
        ).token,
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


def union_area_km2_reference(
    model: CoverageModel, rng: np.random.Generator, samples_per_shape: int = 24
) -> Tuple[float, Dict[str, float]]:
    """Scalar twin of
    :meth:`repro.core.coverage.CoverageModel.union_area_km2` (property
    tests, benchmark baseline). Consumes the RNG stream identically."""
    total = 0.0
    by_tag: Dict[str, float] = {}
    for i, shape in enumerate(model.shapes):
        credited = 0
        for _ in range(samples_per_shape):
            point = shape.sample(rng)
            owner = model.first_covering(point)
            if owner is None or owner == i:
                credited += 1
        contribution = shape.area_km2() * credited / samples_per_shape
        total += contribution
        tag = model.tags[i]
        by_tag[tag] = by_tag.get(tag, 0.0) + contribution
    return total, by_tag


def landmass_fraction_reference(
    model: CoverageModel,
    landmass: Landmass,
    rng: np.random.Generator,
    samples_per_shape: int = 24,
    scale_factor: Optional[float] = None,
) -> CoverageEstimate:
    """Scalar twin of
    :meth:`repro.core.coverage.CoverageModel.landmass_fraction` (property
    tests, benchmark baseline). Consumes the RNG stream identically."""
    total = 0.0
    by_tag: Dict[str, float] = {}
    for i, shape in enumerate(model.shapes):
        if not landmass.contains(shape.centroid):
            continue
        credited = 0
        for _ in range(samples_per_shape):
            point = shape.sample(rng)
            if not landmass.contains(point):
                continue
            owner = model.first_covering(point)
            if owner is None or owner == i:
                credited += 1
        contribution = shape.area_km2() * credited / samples_per_shape
        total += contribution
        tag = model.tags[i]
        by_tag[tag] = by_tag.get(tag, 0.0) + contribution
    fraction = total / landmass.area_km2
    descaled = None
    if scale_factor is not None and scale_factor > 0:
        descaled = min(fraction / scale_factor, 1.0)
    return CoverageEstimate(
        model=model.name,
        n_shapes=len(model.shapes),
        union_area_km2=total,
        landmass_fraction=fraction,
        descaled_fraction=descaled,
        breakdown_km2=by_tag,
    )


def within_radius_reference(
    index: SpatialIndex, center: LatLon, radius_km: float
) -> List[Tuple[LatLon, Any]]:
    """Scalar twin of
    :meth:`repro.geo.spatialindex.SpatialIndex.within_radius`: one
    Python-loop haversine per candidate (property tests, benchmark
    baseline)."""
    if radius_km < 0:
        raise GeoError(f"radius must be non-negative, got {radius_km}")
    results: List[Tuple[LatLon, Any]] = []
    for key in index._candidate_keys(center, radius_km):
        for point, item in index._bins[key]:
            if (
                haversine_km(center.lat, center.lon, point.lat, point.lon)
                <= radius_km
            ):
                results.append((point, item))
    return results


class PolygonHullShape(Shape):
    """Object-per-point twin of :class:`repro.core.coverage.HullShape`:
    a :class:`Polygon` of ``LatLon``s, fan triangles as ``(anchor, b, c,
    area)`` tuples and a scalar sampling loop."""

    def __init__(self, polygon: Polygon) -> None:
        self.polygon = polygon
        self._centroid = polygon.centroid()
        self._extent = polygon.max_radius_km()
        self._area = polygon.area_km2()
        vertices = polygon.vertices
        anchor = vertices[0]
        self._triangles = [
            (anchor, b, c, _triangle_area_km2(anchor, b, c))
            for b, c in zip(vertices[1:-1], vertices[2:])
        ]
        self._tri_b = np.array([(b.lat, b.lon) for _, b, _, _ in self._triangles])
        self._tri_c = np.array([(c.lat, c.lon) for _, _, c, _ in self._triangles])
        self._tri_cum = np.cumsum([t[3] for t in self._triangles])

    def contains(self, point: LatLon) -> bool:
        return self.polygon.contains(point)

    def area_km2(self) -> float:
        return self._area

    def sample(self, rng: np.random.Generator) -> LatLon:
        total = sum(t[3] for t in self._triangles)
        if total <= 0:
            return self._centroid
        roll = float(rng.random()) * total
        cumulative = 0.0
        chosen = self._triangles[-1]
        for triangle in self._triangles:
            cumulative += triangle[3]
            if roll <= cumulative:
                chosen = triangle
                break
        a, b, c, _ = chosen
        u, v = float(rng.random()), float(rng.random())
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        lat = a.lat + u * (b.lat - a.lat) + v * (c.lat - a.lat)
        lon = a.lon + u * (b.lon - a.lon) + v * (c.lon - a.lon)
        return LatLon(lat, lon)

    def sample_many(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        total = float(self._tri_cum[-1])
        if total <= 0:
            return (
                np.full(n, self._centroid.lat),
                np.full(n, self._centroid.lon),
            )
        draws = rng.random(3 * n)
        rolls = draws[0::3] * total
        chosen = np.minimum(
            np.searchsorted(self._tri_cum, rolls, side="left"),
            len(self._triangles) - 1,
        )
        u, v = draws[1::3], draws[2::3]
        reflect = u + v > 1.0
        u = np.where(reflect, 1.0 - u, u)
        v = np.where(reflect, 1.0 - v, v)
        anchor = self._triangles[0][0]
        b_lat, b_lon = self._tri_b[chosen, 0], self._tri_b[chosen, 1]
        c_lat, c_lon = self._tri_c[chosen, 0], self._tri_c[chosen, 1]
        lats = anchor.lat + u * (b_lat - anchor.lat) + v * (c_lat - anchor.lat)
        lons = anchor.lon + u * (b_lon - anchor.lon) + v * (c_lon - anchor.lon)
        return lats, lons

    def contains_many(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        return self.polygon.contains_many(lats, lons)

    @property
    def centroid(self) -> LatLon:
        return self._centroid

    @property
    def extent_km(self) -> float:
        return self._extent


def build_witness_geometry_reference(
    receipts, locate, max_witness_km: Optional[float] = None
) -> List[Tuple[LatLon, Tuple[Tuple[LatLon, float, float], ...]]]:
    """Twin of :func:`repro.core.coverage.build_witness_geometry` that
    calls ``locate`` for every report and keeps ``(challengee,
    ((location, distance km, RSSI dBm), …))`` per receipt."""
    geometries = []
    for challengee_token, reports in receipts:
        challengee = locate(challengee_token)
        if challengee is None:
            continue
        witnesses = []
        for witness_token, rssi_dbm in reports:
            location = locate(witness_token)
            if location is None:
                continue
            distance = challengee.distance_km(location)
            if max_witness_km is not None and distance > max_witness_km:
                continue
            witnesses.append((location, distance, rssi_dbm))
        geometries.append((challengee, tuple(witnesses)))
    return geometries


def walk_reference(
    experiment: WalkExperiment,
    trace: WalkTrace,
    rng: np.random.Generator,
    radius_km: float = 0.3,
) -> Tuple[float, AckTable, Hip15Accuracy]:
    """Twin of :meth:`repro.field.walks.WalkExperiment.run` that keeps
    every uplink's :class:`TransmissionRecord` and scores the walk's
    PRR, ACK table and HIP-15 accuracy from the list."""
    credentials = DeviceCredentials.generate("walk-app")
    experiment.console.register_user_device("wal_walker", credentials)
    experiment.console.open_channel(at_block=0)
    device = EdgeDevice(credentials, DeviceConfig(confirmed=True))
    device.accept_join(experiment.console.join(credentials))
    now = 0.0
    records: List[TransmissionRecord] = []
    while now < trace.duration_s:
        device.location = trace.position_at(now)
        records.append(experiment.network.send_uplink(device, rng, now))
        now = device.last_uplink.next_send_at_s
    delivered = [r.delivered_to_cloud for r in records]
    outcomes = [AckOutcome.classify(r.acked, r.delivered_to_cloud)
                for r in records]
    acks = AckTable(
        packets_sent=len(records),
        correct_ack=outcomes.count(AckOutcome.CORRECT_ACK),
        correct_nack=outcomes.count(AckOutcome.CORRECT_NACK),
        incorrect_ack=outcomes.count(AckOutcome.INCORRECT_ACK),
        incorrect_nack=outcomes.count(AckOutcome.INCORRECT_NACK),
    )
    inside = [
        r for r in records
        if r.nearest_hotspot_km is not None and r.nearest_hotspot_km <= radius_km
    ]
    outside = [
        r for r in records
        if r.nearest_hotspot_km is None or r.nearest_hotspot_km > radius_km
    ]
    inside_received = sum(1 for r in inside if r.delivered_to_cloud)
    outside_missed = sum(1 for r in outside if not r.delivered_to_cloud)
    hip15 = Hip15Accuracy(
        packets_inside=len(inside),
        packets_outside=len(outside),
        inside_received_fraction=(
            inside_received / len(inside) if inside else 0.0
        ),
        outside_missed_fraction=(
            outside_missed / len(outside) if outside else 0.0
        ),
    )
    return sum(delivered) / len(records), acks, hip15


def _walk(chain: Blockchain, kind) -> Iterator[Tuple[int, int, Any]]:
    """``(height, seq, txn)`` per transaction of ``kind``, in chain order
    (``seq`` is the transaction's position in its block)."""
    for block in chain.blocks:
        for seq, txn in enumerate(block.transactions):
            if isinstance(txn, kind):
                yield block.height, seq, txn


class ChainRows:
    """The :class:`~repro.etl.store.EtlStore` read surface the analyses
    use, derived by walking a chain and its ledger.

    Each method is the chain-walking code its analysis ran before the
    analyses moved onto the ETL replica, so ``analysis(ChainRows(chain))``
    is the chain-walk oracle of ``analysis(store)``.
    """

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._walks: Dict[type, List[Tuple[int, int, Any]]] = {}

    def _walk_of(self, kind) -> List[Tuple[int, int, Any]]:
        """``(height, seq, txn)`` per transaction of ``kind``; the chain
        is walked once per kind (a log-backed chain has no index to skip
        the other blocks)."""
        walk = self._walks.get(kind)
        if walk is None:
            walk = self._walks[kind] = list(_walk(self.chain, kind))
        return walk

    def _kind(
        self, kind, start_height: int = 0, end_height: Optional[int] = None
    ) -> Iterator[Tuple[int, Any]]:
        """``(height, txn)`` per transaction of ``kind`` in a window."""
        stop = self.chain.height if end_height is None else end_height
        for height, _, txn in self._walk_of(kind):
            if start_height <= height <= stop:
                yield height, txn

    # -- census, growth, moves, traffic ------------------------------------

    @property
    def checkpoint_height(self) -> int:
        return self.chain.height

    def transaction_counts(self) -> Dict[str, int]:
        return self.chain.count_transactions()

    def transaction_heights(self, kind: str) -> List[int]:
        return [
            height for height, txn in self.chain.iter_transactions()
            if txn.kind == kind
        ]

    def assert_rows(self) -> Iterator[Tuple[int, int, Address, str, int]]:
        for height, seq, txn in self._walk_of(AssertLocation):
            yield height, seq, txn.gateway, txn.location_token, txn.nonce

    def channel_ouis(self) -> List[int]:
        return [
            txn.oui
            for kind in (StateChannelOpen, StateChannelClose)
            for _, txn in self._kind(kind)
        ]

    def channel_close_rows(self) -> Iterator[Tuple[int, int, int]]:
        for height, txn in self._kind(StateChannelClose):
            yield height, txn.oui, txn.total_packets

    # -- folded ledger state -----------------------------------------------

    @property
    def hotspot_count(self) -> int:
        return self.chain.ledger.hotspot_count

    def hotspot_rows(self) -> List[Tuple[Address, str, Optional[str]]]:
        return [
            (gateway, record.name, record.location_token)
            for gateway, record in self.chain.ledger.hotspots.items()
        ]

    def owner_counts(self) -> Dict[Address, int]:
        return self.chain.ledger.owner_counts()

    def fleet_rows(self, owner: Address) -> List[Tuple[Address, Optional[str]]]:
        return [
            (record.gateway, record.location_token)
            for record in self.chain.ledger.hotspots_of(owner)
        ]

    def wallet_hnt_bones(self) -> Dict[Address, int]:
        return {
            address: state.hnt_bones
            for address, state in self.chain.ledger.wallets.items()
        }

    def packets_by_owner(self) -> Dict[Address, int]:
        ferried: Dict[Address, int] = {}
        hotspot_owner = {
            gw: record.owner for gw, record in self.chain.ledger.hotspots.items()
        }
        for _, txn in self._kind(StateChannelClose):
            for summary in txn.summaries:
                owner = hotspot_owner.get(summary.hotspot)
                if owner is not None:
                    ferried[owner] = ferried.get(owner, 0) + summary.num_packets
        return ferried

    def gateway_added_blocks(self) -> Dict[Address, int]:
        return {
            g: r.added_block for g, r in self.chain.ledger.hotspots.items()
        }

    # -- witnesses ---------------------------------------------------------

    def witness_distances(
        self, start_height: int = 0, end_height: Optional[int] = None
    ) -> List[float]:
        distances: List[float] = []
        for _, receipt in self._kind(
            PocReceipts, start_height=start_height, end_height=end_height
        ):
            challengee = HexCell.from_token(
                receipt.challengee_location_token
            ).center()
            for report in receipt.witnesses:
                if not report.is_valid:
                    continue
                witness = HexCell.from_token(
                    report.reported_location_token
                ).center()
                if witness.is_null_island() or challengee.is_null_island():
                    continue
                distances.append(challengee.distance_km(witness))
        return distances

    def witness_rssis(
        self, start_height: int = 0, end_height: Optional[int] = None,
        valid_only: bool = True,
    ) -> List[float]:
        rssis: List[float] = []
        for _, receipt in self._kind(
            PocReceipts, start_height=start_height, end_height=end_height
        ):
            for report in receipt.witnesses:
                if valid_only and not report.is_valid:
                    continue
                rssis.append(report.rssi_dbm)
        return rssis

    def receipt_valid_witness_counts(self) -> List[int]:
        return [
            len(receipt.valid_witnesses)
            for _, receipt in self._kind(PocReceipts)
        ]

    def witness_validity_breakdown(self) -> Dict[str, int]:
        breakdown = {"valid": 0}
        for _, receipt in self._kind(PocReceipts):
            for report in receipt.witnesses:
                if report.is_valid:
                    breakdown["valid"] += 1
                else:
                    reason = report.invalid_reason or "unspecified"
                    breakdown[reason] = breakdown.get(reason, 0) + 1
        return breakdown

    def valid_witness_rows(self) -> Iterator[Tuple[int, int, Address, str]]:
        for height, seq, receipt in self._walk_of(PocReceipts):
            for report in receipt.witnesses:
                if report.is_valid:
                    yield (height, seq, report.witness,
                           receipt.challengee_location_token)

    def valid_witness_receipts(
        self,
    ) -> Iterator[Tuple[str, List[Tuple[str, float]]]]:
        for _, receipt in self._kind(PocReceipts):
            yield receipt.challengee_location_token, [
                (report.reported_location_token, report.rssi_dbm)
                for report in receipt.witnesses
                if report.is_valid
            ]

    def rssi_anomaly_rows(
        self, bound_dbm: float
    ) -> List[Tuple[Address, float, Address, bool]]:
        return [
            (report.witness, report.rssi_dbm, receipt.challengee,
             report.is_valid)
            for _, receipt in self._kind(PocReceipts)
            for report in receipt.witnesses
            if report.rssi_dbm > bound_dbm
        ]

    def witness_counts_among(self, members) -> Tuple[int, int]:
        total = 0
        valid = 0
        for _, receipt in self._kind(PocReceipts):
            if receipt.challengee not in members:
                continue
            for witness in receipt.witnesses:
                if witness.witness in members:
                    total += 1
                    valid += 1 if witness.is_valid else 0
        return total, valid

    # -- rewards and transfers ---------------------------------------------

    def reward_share_rows(
        self,
    ) -> Iterator[Tuple[int, Address, Optional[Address], int, str]]:
        for height, txn in self._kind(Rewards):
            for share in txn.shares:
                yield (height, share.account, share.gateway,
                       share.amount_bones, share.reward_type.value)

    def rewards_by_gateway(self) -> Dict[Address, int]:
        per_gateway: Dict[Address, int] = {}
        for _, txn in self._kind(Rewards):
            for share in txn.shares:
                if share.gateway is not None:
                    per_gateway[share.gateway] = (
                        per_gateway.get(share.gateway, 0) + share.amount_bones
                    )
        return per_gateway

    def rewards_by_type(self) -> Dict[str, int]:
        by_type: Dict[str, int] = {}
        for _, txn in self._kind(Rewards):
            for share in txn.shares:
                by_type[share.reward_type.value] = (
                    by_type.get(share.reward_type.value, 0) + share.amount_bones
                )
        return by_type

    def rewarded_gateways(self, reward_types) -> set:
        rewarded = set()
        for _, txn in self._kind(Rewards):
            for share in txn.shares:
                if (share.gateway is not None
                        and share.reward_type.value in reward_types):
                    rewarded.add(share.gateway)
        return rewarded

    def transfer_rows(
        self,
    ) -> Iterator[Tuple[int, Address, Address, Address, int]]:
        for height, txn in self._kind(TransferHotspot):
            yield height, txn.gateway, txn.seller, txn.buyer, txn.amount_dc


def find_silent_movers_reference(
    chain: Blockchain,
    impossible_km: float = 300.0,
    min_events: int = 3,
) -> List[SilentMoverFinding]:
    """Chain-replay twin of
    :func:`repro.core.analysis.incentives.find_silent_movers`: one walk
    over the asserts and receipts together, in chain order."""
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

    rewarded = ChainRows(chain).rewarded_gateways(
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


class ChainExplorer:
    """Explorer pages built from one walk over a chain: the in-memory
    index the explorer kept before it read the ETL replica.

    ``hotspot``, ``owner`` and ``search`` answer what
    :class:`repro.core.explorer.Explorer` answers from a store.
    """

    def __init__(self, chain: Blockchain, recent_limit: int = 25) -> None:
        self.chain = chain
        self.recent_limit = recent_limit
        self._name_index: Dict[str, Address] = {}
        self._rewards: Dict[Address, int] = {}
        self._packets: Dict[Address, int] = {}
        self._transfers: Dict[Address, int] = {}
        self._witnessing: Dict[Address, List[WitnessEvent]] = {}
        self._witnessed_by: Dict[Address, List[WitnessEvent]] = {}
        self._build_indexes()

    def _build_indexes(self) -> None:
        for gateway in self.chain.ledger.hotspots:
            # Of hotspots sharing a name, the first on the ledger.
            self._name_index.setdefault(hotspot_name(gateway).lower(), gateway)
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

    def hotspot(self, gateway: Address) -> HotspotPage:
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
        gateway = self._name_index.get(name.lower())
        if gateway is None:
            raise AnalysisError(f"no hotspot named {name!r}")
        return self.hotspot(gateway)

    def owner(self, wallet: Address) -> OwnerPage:
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
        needle = query.lower()
        matches = [
            (gateway, hotspot_name(gateway))
            for gateway in self.chain.ledger.hotspots
            if needle in hotspot_name(gateway).lower()
        ]
        matches.sort(key=lambda pair: pair[1])
        return matches[:limit]

    def hotspots_near(
        self, center: LatLon, radius_km: float, limit: int = 50
    ) -> List[HotspotPage]:
        pages = []
        for gateway, record in self.chain.ledger.hotspots.items():
            if record.location_token is None:
                continue
            location = HexCell.from_token(record.location_token).center()
            if center.distance_km(location) <= radius_km:
                pages.append(self.hotspot(gateway))
                if len(pages) >= limit:
                    break
        return pages
