"""MovesPhase: scheduled relocations (silent movers never re-assert)."""

from __future__ import annotations

from typing import Dict

from repro import units
from repro.chain.crypto import Address
from repro.chain.transactions import AssertLocation
from repro.errors import SimulationError
from repro.geo.geodesy import LatLon
from repro.geo.hexgrid import HexGrid
from repro.poc.cheats import SilentMover
from repro.radio.propagation import environment_for_city
from repro.simulation.phases.base import Phase
from repro.simulation.state import WorldState

__all__ = ["MovesPhase"]

_BLOCKS_PER_DAY = units.BLOCKS_PER_DAY


class MovesPhase(Phase):
    """Executes the day's move queue against the world and the chain."""

    name = "moves"

    def run_day(self, state: WorldState, day: int) -> None:
        rng = state.hub.stream("moves")
        vars = state.chain.vars
        batch = state.batch
        transferred_today = state.transferred_today
        last_block_today: Dict[Address, int] = {}
        for gateway, move in state.move_queue.pop(day, []):
            hotspot = state.world.hotspots.get(gateway)
            if hotspot is None:
                continue
            if gateway in transferred_today:
                # Transfer and move in one day would interleave blocks
                # inconsistently with ledger ownership; defer the move.
                if day + 1 < state.config.n_days:
                    move.day = float(day + 1)
                    state.move_queue.setdefault(day + 1, []).append(
                        (gateway, move)
                    )
                continue
            if move.kind == "short":
                target = state.moves.short_move_target(
                    hotspot.actual_location, hotspot.city, rng
                )
                new_city = hotspot.city
            elif move.kind == "long":
                new_city = state.moves.long_move_target(
                    day, hotspot.in_us, state.world.cities, rng
                )
                target = state.world.cities.sample_location_in_city(
                    rng, new_city
                )
            elif move.kind == "to_null":
                target = LatLon(0.0, 0.0)
                new_city = hotspot.city
            elif move.kind == "from_null":
                target = state.world.cities.sample_location_in_city(
                    rng, hotspot.city
                )
                new_city = hotspot.city
            else:
                raise SimulationError(f"unknown move kind {move.kind!r}")

            silent = (
                isinstance(hotspot.cheat, SilentMover)
                and move.kind == "long"
            )
            state.world.relocate(hotspot, target, new_city)
            slot = state.fleet.index[gateway]
            state.fleet.relocate(slot, hotspot)
            if hotspot.antenna_gain_dbi <= 2.0:
                hotspot.environment = environment_for_city(
                    new_city.population,
                    new_city.location.distance_km(target),
                    new_city.scatter_radius_km(),
                )
            participant = state.participants.get(gateway)
            if participant is not None:
                participant.actual_location = target
                participant.environment = hotspot.environment
            if silent:
                continue  # physically moved, never re-asserts (§7.1)

            nonce = hotspot.assert_nonce + 1
            fee = 0
            if nonce > vars.free_location_asserts:
                fee = (
                    vars.assert_location_fee_dc
                    + vars.assert_location_staking_fee_dc
                )
                state.chain.ledger.credit_dc(hotspot.owner, fee)
            asserted = (
                LatLon(0.0, 0.0) if move.kind == "to_null"
                else HexGrid.quantize(target)
            )
            hotspot.asserted_location = asserted
            hotspot.assert_nonce = nonce
            hotspot.move_days.append(day)
            if participant is not None:
                participant.asserted_location = asserted
            block = day * _BLOCKS_PER_DAY + int(
                (move.day - int(move.day)) * _BLOCKS_PER_DAY
            )
            # Same-day moves must land after the deployment's block and
            # after this hotspot's earlier asserts (nonce ordering).
            block = max(
                block,
                hotspot.added_block + 1,
                last_block_today.get(gateway, -1) + 1,
            )
            last_block_today[gateway] = block
            batch.append((block, AssertLocation(
                gateway=gateway,
                owner=hotspot.owner,
                location_token=HexGrid.encode_cell(asserted).token,
                nonce=nonce,
                fee_dc=fee,
            )))
