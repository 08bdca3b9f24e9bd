"""Pre-optimisation reference twins of the swappable hot paths.

Each function replays the original (slower) implementation of a phase
hot path against a :class:`~repro.simulation.state.WorldState`.
Equivalence tests monkeypatch them onto the corresponding phase class
attribute (``OnlinePhase.impl``, ``PoCPhase.candidates_impl``,
``TrafficPhase.ferry_impl``) and assert the scenario digest does not
move; ``tests/test_budgets.py`` uses them as timing baselines.
They consume the same named RNG streams, in the same order, as the fast
paths — that is what makes the swap bit-transparent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chain.crypto import Address
from repro.poc.challenge import PocParticipant
from repro.poc.cheats import GossipClique
from repro.simulation.state import WorldState

__all__ = [
    "update_online_reference",
    "candidates_for_reference",
    "ferry_weights_reference",
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
