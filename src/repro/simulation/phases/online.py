"""OnlinePhase: the daily availability flip over the whole fleet."""

from __future__ import annotations

import numpy as np

from repro.simulation.phases.base import Phase
from repro.simulation.state import WorldState

__all__ = ["OnlinePhase", "update_online"]


def update_online(state: WorldState, day: int) -> None:
    """Daily availability flip over the fleet columns.

    One batched roll over the fleet (identical stream consumption to
    the per-gateway loop it replaced: same count, same deployment
    order), one array compare against the contiguous uptime column —
    no per-day list materialisation — and Python-level writes only
    where the state actually changed: unchanged hotspots already hold
    the target value, so skipping them is bit-identical by
    construction. New deploys append with ``online=True`` (the
    SimHotspot/PocParticipant constructor default), so the column is
    always fleet-length and needs no padding.
    """
    rng = state.hub.stream("uptime")
    cols = state.fleet
    n = cols.n
    if n == 0:
        return
    rolls = rng.random(n)
    flags = rolls < cols.uptime
    hotspots = cols.hotspots
    participants = cols.participants
    for i in np.flatnonzero(flags != cols.online).tolist():
        online = bool(flags[i])
        hotspots[i].online = online
        participant = participants[i]
        if participant is not None:
            participant.online = online
    cols.online[:] = flags
    np.logical_and(flags, cols.is_poc, out=cols.poc_online)
    cols.online_day = day


class OnlinePhase(Phase):
    """Applies the day's online/offline flips.

    The implementation is swappable: equivalence tests monkeypatch
    ``impl`` with ``update_online_reference`` from
    ``tests/reference_twins.py`` and assert the digest does not move.
    """

    name = "online"
    impl = staticmethod(update_online)

    def run_day(self, state: WorldState, day: int) -> None:
        self.impl(state, day)
