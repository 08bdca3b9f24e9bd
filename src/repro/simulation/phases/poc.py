"""PoCPhase: thinned Proof-of-Coverage over real radio geometry."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import units
from repro.poc.challenge import PocParticipant, run_challenge
from repro.poc.cheats import GossipClique
from repro.radio.lora import plan_for_country
from repro.simulation.phases.base import Phase
from repro.simulation.state import WorldState

__all__ = ["PoCPhase", "candidates_for"]

_BLOCKS_PER_DAY = units.BLOCKS_PER_DAY


def candidates_for(
    state: WorldState, challengee: PocParticipant, rng: np.random.Generator
) -> Tuple[List[PocParticipant], Optional[np.ndarray]]:
    """Capped nearest-first witness candidates, with their distances.

    Returns the candidate list plus the challengee→candidate actual
    distances already computed by the spatial index (``None`` when
    gossip-clique members were appended without one), which
    :func:`run_challenge` accepts to skip its own haversine pass.
    """
    nearby, distances = state.world.index.within_radius_distances(
        challengee.actual_location, 120.0
    )
    # Nearest-first cap: every in-range hotspot witnesses on the real
    # network, and the close ones dominate both counts and the RSSI
    # distribution — random subsampling would bias toward mid-range.
    # The stable argsort runs before the online filter (filtering
    # preserves relative order among equal distances, so the kept set
    # matches a filter-then-sort), and the boolean mask over the
    # sorted order plus a [:cap] slice replaces the old Python
    # nearest-first walk — same candidates, no per-element branching.
    cap = state.config.max_witness_candidates
    cols = state.fleet
    fleet_index = cols.index
    idx = np.fromiter(
        (fleet_index[hotspot.gateway] for _, hotspot in nearby),
        dtype=np.intp,
        count=len(nearby),
    )
    order = np.argsort(distances, kind="stable")
    keep = order[cols.poc_online[idx[order]]][:cap]
    participants_by_slot = cols.participants
    kept: List[PocParticipant] = [
        participants_by_slot[int(slot)] for slot in idx[keep]
    ]
    # The index may lag a silent mover's relocation until the next
    # rebuild; its distance would then describe the stale point, so
    # hand none to the physics (object identity proves liveness).
    kept_km: Optional[np.ndarray] = distances[keep]
    for i, participant in zip(keep.tolist(), kept):
        if nearby[i][0] is not participant.actual_location:
            kept_km = None
            break
    if isinstance(challengee.cheat, GossipClique):
        participants = state.participants
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


class PoCPhase(Phase):
    """Runs the day's thinned challenge schedule.

    ``candidates_impl`` is swappable: equivalence tests monkeypatch it
    with ``candidates_for_reference`` from ``tests/reference_twins.py``.
    """

    name = "poc"
    candidates_impl = staticmethod(candidates_for)

    def run_day(self, state: WorldState, day: int) -> None:
        rng = state.hub.stream("poc")
        batch = state.batch
        activity = state.activity
        online = [p for p in state.participants.values() if p.online]
        if len(online) < 2:
            return
        n_challenges = int(round(
            len(online) * state.config.challenges_per_hotspot_day
        ))
        n_challenges = max(n_challenges, 1 if len(online) >= 10 else 0)
        checker = state.checker
        for _ in range(n_challenges):
            challenger = online[int(rng.integers(len(online)))]
            challengee = challenger
            while challengee.gateway == challenger.gateway:
                challengee = online[int(rng.integers(len(online)))]
            candidates, candidate_km = self.candidates_impl(
                state, challengee, rng
            )
            channel_plan = plan_for_country(
                state.world.hotspots[challengee.gateway].city.country
            )
            outcome = run_challenge(
                challenger=challenger,
                challengee=challengee,
                candidates=candidates,
                rng=rng,
                checker=checker,
                plan=channel_plan,
                distances_km=candidate_km,
            )
            block = day * _BLOCKS_PER_DAY + int(rng.integers(_BLOCKS_PER_DAY))
            # Challenges involving hotspots deployed today must land
            # after their add_gateway blocks.
            block = max(
                block,
                state.world.hotspots[challenger.gateway].added_block + 1,
                state.world.hotspots[challengee.gateway].added_block + 1,
            )
            batch.append((block, outcome.request))
            batch.append((block, outcome.receipts))
            activity.poc_events.append(outcome.event)
