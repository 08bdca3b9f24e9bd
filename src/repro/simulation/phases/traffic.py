"""TrafficPhase: LoRaWAN data traffic settled through state channels.

The day runs in two steps. :meth:`TrafficPhase._plan_day` is the one
place the ``"traffic"`` RNG stream is drawn: volumes, spammer
designation and per-channel packet attribution, in a fixed order.
:meth:`TrafficPhase._apply_channel` then consumes no randomness: for
each planned channel, in channel order, it builds the
``StateChannelOpen``/``StateChannelClose`` pair (sorted summaries,
stake arithmetic), credits the stake, appends both transactions and
tallies per-hotspot activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import units
from repro.chain.crypto import Address
from repro.chain.transactions import (
    StateChannelClose,
    StateChannelOpen,
    StateChannelSummary,
)
from repro.simulation.phases.base import Phase
from repro.simulation.state import WorldState

__all__ = ["ChannelPlan", "TrafficPhase", "ferry_weights"]

_BLOCKS_PER_DAY = units.BLOCKS_PER_DAY


def ferry_weights(
    state: WorldState, day: int, rng: np.random.Generator
) -> Dict[Address, float]:
    """Which hotspots ferry organic data: commercial fleets dominate.

    Membership in the ferrying set is a stable property of where
    devices actually are (``SimHotspot.ferries_data``, fixed at
    deployment) — not a daily redraw, which would eventually hand
    every city hotspot a data transaction and erase the paper's
    application-vs-mining owner split (§4.3).

    Columnar: the would-ferry set is the ``ferry_weight`` fleet column
    (non-zero for a few percent of slots, maintained on deploy and
    ownership change), and the day's online filter is one vectorised
    mask. No RNG is involved, and ascending slot order *is* deployment
    order, so packet attribution (which tie-breaks equal weights by
    insertion order) is bit-identical to the old incrementally
    maintained dict — with no insertion-order staleness to track.
    """
    cols = state.fleet
    if cols.n == 0:
        return {}
    mask = cols.ferry_weight > 0.0
    mask &= cols.online_mask(day)
    weights = cols.ferry_weight
    gateways = cols.gateways
    return {
        gateways[i]: float(weights[i])
        for i in np.flatnonzero(mask).tolist()
    }


@dataclass(frozen=True)
class ChannelPlan:
    """One planned state channel, with every random draw already made."""

    owner: Address
    oui: int
    channel_id: str
    open_block: int
    close_block: int
    alloc: Tuple[Tuple[Address, int], ...]
    expire_blocks: int


class TrafficPhase(Phase):
    """Generates the day's traffic and its on-chain state channels.

    ``ferry_impl`` is swappable: equivalence tests monkeypatch it with
    ``ferry_weights_reference`` from ``tests/reference_twins.py``.
    """

    name = "traffic"
    ferry_impl = staticmethod(ferry_weights)

    def run_day(self, state: WorldState, day: int) -> None:
        for plan in self._plan_day(state, day):
            self._apply_channel(state, plan)

    # ------------------------------------------------------------- plan --

    def _plan_day(self, state: WorldState, day: int) -> List[ChannelPlan]:
        """Every ``"traffic"`` stream draw of the day — volumes, spammer
        designation, per-channel attribution — in a fixed order
        (transaction assembly draws no randomness, so it happens after
        all of them)."""
        rng = state.hub.stream("traffic")
        traffic = state.traffic.day_traffic(day, rng)
        weights = self.ferry_impl(state, day, rng)
        if not weights:
            return []

        if traffic.spam_packets > 0 and not state.spammers:
            self._designate_spammers(state, rng)
        spam_weights = self._spam_weights(state, day)

        plans: List[ChannelPlan] = []
        # Console channels: one open/close pair per close slot.
        closes = max(1, int(1440 / state.config.console_close_blocks / 2))
        per_close = traffic.console_packets // closes
        spam_per_close = traffic.spam_packets // closes
        for slot in range(closes):
            close_block = day * _BLOCKS_PER_DAY + (slot + 1) * (
                _BLOCKS_PER_DAY // closes
            ) - 1
            open_block = close_block - state.config.console_close_blocks
            alloc = state.traffic.attribute_packets(per_close, weights, rng)
            if spam_per_close > 0 and spam_weights:
                spam_alloc = state.traffic.attribute_packets(
                    spam_per_close, spam_weights, rng
                )
                for gw, count in spam_alloc.items():
                    alloc[gw] = alloc.get(gw, 0) + count
            plans.append(self._plan_channel(
                state, state.console_owner, oui=1 + slot % 2,
                open_block=open_block, close_block=close_block, alloc=alloc,
                expire_blocks=state.config.console_close_blocks * 2,
            ))

        # Third-party routers: later, sparser, longer channels.
        third_closes = state.traffic.channels_per_day(third_party=True)
        n_third = int(third_closes) + (
            1 if rng.random() < (third_closes % 1.0) else 0
        )
        if traffic.third_party_packets > 0 and n_third > 0:
            per_third = traffic.third_party_packets // n_third
            third_ouis = [oui for oui in state.oui_owners if oui > 2]
            for _ in range(n_third):
                oui = third_ouis[int(rng.integers(len(third_ouis)))]
                close_block = day * _BLOCKS_PER_DAY + int(
                    rng.integers(500, _BLOCKS_PER_DAY)
                )
                alloc = state.traffic.attribute_packets(
                    per_third, weights, rng
                )
                plans.append(self._plan_channel(
                    state, state.oui_owners[oui], oui=oui,
                    open_block=close_block - 480, close_block=close_block,
                    alloc=alloc, expire_blocks=960,
                ))
        return plans

    @staticmethod
    def _plan_channel(
        state: WorldState,
        owner: Address,
        oui: int,
        open_block: int,
        close_block: int,
        alloc: Dict[Address, int],
        expire_blocks: int,
    ) -> ChannelPlan:
        state.channel_seq += 1
        return ChannelPlan(
            owner=owner,
            oui=oui,
            channel_id=f"sc-{oui}-{state.channel_seq}",
            open_block=open_block,
            close_block=close_block,
            alloc=tuple(alloc.items()),
            expire_blocks=expire_blocks,
        )

    # ------------------------------------------------------------ apply --

    @staticmethod
    def _apply_channel(state: WorldState, plan: ChannelPlan) -> None:
        """Settle one planned channel: build its open/close pair, credit
        the stake, append both transactions and tally per-hotspot
        activity."""
        stake = max(sum(count for _, count in plan.alloc), 10_000)
        open_txn = StateChannelOpen(
            channel_id=plan.channel_id, owner=plan.owner, oui=plan.oui,
            amount_dc=stake, expire_within_blocks=plan.expire_blocks,
        )
        close_txn = StateChannelClose(
            channel_id=plan.channel_id, owner=plan.owner, oui=plan.oui,
            summaries=tuple(
                StateChannelSummary(
                    hotspot=gw, num_packets=count, num_dcs=count
                )
                for gw, count in sorted(plan.alloc)
            ),
        )
        state.chain.ledger.credit_dc(plan.owner, stake)
        state.batch.append((max(plan.open_block, 2), open_txn))
        state.batch.append((plan.close_block, close_txn))
        activity = state.activity
        for gw, count in plan.alloc:
            hotspot = state.world.hotspots.get(gw)
            if hotspot is None:
                continue
            key = (gw, hotspot.owner)
            activity.data_packets[key] = (
                activity.data_packets.get(key, 0) + count
            )
            activity.data_dcs[key] = activity.data_dcs.get(key, 0) + count

    # --------------------------------------------------------- spammers --

    @staticmethod
    def _spam_weights(state: WorldState, day: int) -> Dict[Address, float]:
        """Online hotspots owned by designated spammers, columnar: an
        owner-id membership mask against the owner column instead of
        the old O(fleet) Python walk over ``world.hotspots``. Ascending
        slot order preserves the walk's deployment-order iteration."""
        cols = state.fleet
        if not state.spammers or cols.n == 0:
            return {}
        spammer_ids = [
            cols.owner_slots[wallet]
            for wallet in state.spammers
            if wallet in cols.owner_slots
        ]
        if not spammer_ids:
            return {}
        mask = np.isin(
            cols.owner_index, np.asarray(spammer_ids, dtype=np.int32)
        )
        mask &= cols.online_mask(day)
        gateways = cols.gateways
        return {gateways[i]: 1.0 for i in np.flatnonzero(mask).tolist()}

    @staticmethod
    def _designate_spammers(
        state: WorldState, rng: np.random.Generator
    ) -> None:
        """Pick the arbitrage gamers once DC rewards go live (§5.3.2)."""
        individuals = [
            o.wallet for o in state.world.owners.values()
            if o.archetype in ("individual", "repeat") and o.hotspot_count >= 1
        ]
        n = min(6, len(individuals))
        if n == 0:
            return
        picks = rng.choice(len(individuals), size=n, replace=False)
        state.spammers = [individuals[int(i)] for i in picks]
