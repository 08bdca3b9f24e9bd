"""Simulation engine: phase scheduling over a serializable WorldState.

The engine is now a thin shell: all mutable run state lives in
:class:`repro.simulation.state.WorldState`, each slice of the day's work
is a :class:`~repro.simulation.phases.base.Phase` subsystem under
:mod:`repro.simulation.phases`, and
:class:`~repro.simulation.scheduler.PhaseScheduler` runs them in order —
deploys, transfers, moves, availability, the weekly index rebuild,
Proof-of-Coverage, traffic, rewards, encashment, the mint, and the
growth log. The engine owns only the run loop itself: bootstrap,
day iteration and day-level checkpointing (``WorldState.save``).

The result bundles the chain half (the chain and its ledger, what the
ETL replica ingests) with the world half (ground truth analyses score
against). It is assembled from the final state alone
(:meth:`SimulationResult.from_state`, which also builds the end-of-run
peerbook), so a saved final state reloads as the same result without
running a day: a scenario-cache entry is that saved state, and
:meth:`SimulationResult.from_checkpoint` builds each of its halves when
first read.

The day loop's modules (the state, its phases and their numpy stack)
are imported where a run or a world half needs them, so loading a
cached result and reading its chain half, as a chain follower does,
loads none of them.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.chain.block import Block
    from repro.chain.blockchain import Blockchain
    from repro.chain.crypto import Address
    from repro.economics.oracle import PriceOracle
    from repro.p2p.peerbook import Peerbook
    from repro.rng import RngHub
    from repro.simulation.checkpoint import Checkpoint
    from repro.simulation.phases import Phase
    from repro.simulation.scenario import ScenarioConfig
    from repro.simulation.state import GrowthLogRow, WorldState
    from repro.simulation.world import World

__all__ = ["SimulationResult", "SimulationEngine"]


class SimulationResult:
    """Everything one scenario run produced, in two halves.

    The **chain half** is :attr:`chain`, the log-backed chain with its
    replayed ledger: what the ETL replica ingests. The **world half** is
    the rest of the final state: :attr:`world`, :attr:`peerbook`,
    :attr:`oracle`, :attr:`growth_log`, the owner maps and :attr:`state`,
    the ground truth analyses score against. A run hands over both
    halves built (:meth:`from_state`); a warm load hands over a builder
    for each (:meth:`from_checkpoint`), since no consumer of a loaded
    result needs both, and each half is built on its first read, once.
    :attr:`tip` builds neither on a warm load.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        chain: Callable[[], Blockchain],
        world: Callable[[], Tuple[WorldState, Peerbook]],
        day_loop_timings: Optional[Dict[str, float]] = None,
        tip: Optional[Callable[[], Block]] = None,
    ) -> None:
        self.config = config
        #: Cumulative wall-clock seconds per day-loop phase, filled by
        #: :meth:`SimulationEngine.run` (``None`` on a load, which runs
        #: no day). Never saved, so recording it never perturbs the
        #: scenario digest.
        self.day_loop_timings = day_loop_timings
        self._build_chain = chain
        self._build_world = world
        self._read_tip = tip

    @classmethod
    def from_state(
        cls,
        state: WorldState,
        day_loop_timings: Optional[Dict[str, float]] = None,
    ) -> "SimulationResult":
        """The result of a finished run's final state; builds the
        peerbook and runs no day."""
        _require_finished(state.day, state.config)
        halves = (state, _build_peerbook(state))
        return cls(
            state.config, lambda: state.chain, lambda: halves,
            day_loop_timings,
        )

    @classmethod
    def from_checkpoint(cls, checkpoint: Checkpoint) -> "SimulationResult":
        """The result of a finished run's checkpoint, which has passed
        every check and whose halves are built when first read."""
        _require_finished(checkpoint.day, checkpoint.config)

        def world() -> Tuple[WorldState, Peerbook]:
            state = checkpoint.world()
            return state, _build_peerbook(state)

        return cls(checkpoint.config, checkpoint.chain, world,
                   tip=checkpoint.tip)

    @cached_property
    def chain(self) -> Blockchain:
        """The chain half."""
        return self._build_chain()

    @property
    def tip(self) -> Block:
        """The chain's tip block; a warm load decodes it from the last
        frame of its log instead of building the chain half."""
        if self._read_tip is None:
            return self.chain.tip
        return self._read_tip()

    @cached_property
    def _world_half(self) -> Tuple[WorldState, Peerbook]:
        return self._build_world()

    @property
    def state(self) -> WorldState:
        """The final day-boundary state this result was assembled from:
        what :func:`repro.experiments.snapshot.save_result` persists."""
        return self._world_half[0]

    @property
    def world(self) -> World:
        return self.state.world

    @property
    def peerbook(self) -> Peerbook:
        return self._world_half[1]

    @property
    def oracle(self) -> PriceOracle:
        return self.state.oracle

    @property
    def growth_log(self) -> List[GrowthLogRow]:
        return self.state.growth_log

    @property
    def console_owner(self) -> Address:
        return self.state.console_owner

    @property
    def oui_owners(self) -> Dict[int, Address]:
        return self.state.oui_owners

    @property
    def spammer_owners(self) -> List[Address]:
        return self.state.spammers

    @property
    def scale_factor(self) -> float:
        """Fleet scale relative to the real network."""
        return self.config.scale_factor


def _require_finished(day: int, config: ScenarioConfig) -> None:
    if day != config.n_days:
        raise SimulationError(
            f"state is at day {day} of {config.n_days}; "
            f"only a finished run has a result"
        )


class SimulationEngine:
    """Runs one scenario end to end. Use :meth:`run`.

    Construct from a :class:`ScenarioConfig` for a fresh run, from a
    prepared :class:`WorldState` (``state=``) to continue one, or via
    :meth:`resume` to restart from an on-disk checkpoint. A custom
    ``phases`` list replaces :func:`~repro.simulation.phases.
    default_phases` — order is semantic, see that function.
    """

    def __init__(
        self,
        config: Optional[ScenarioConfig] = None,
        *,
        state: Optional[WorldState] = None,
        phases: Optional[List[Phase]] = None,
    ) -> None:
        from repro.simulation.scheduler import PhaseScheduler
        from repro.simulation.state import WorldState

        if state is None:
            if config is None:
                raise SimulationError(
                    "SimulationEngine needs a config or a state"
                )
            state = WorldState.create(config)
        elif config is not None and config != state.config:
            raise SimulationError(
                "config does not match the supplied state's config"
            )
        self.state = state
        self.scheduler = PhaseScheduler(phases)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: Union[str, Path],
        *,
        phases: Optional[List[Phase]] = None,
    ) -> "SimulationEngine":
        """Engine positioned at a checkpoint's next unsimulated day."""
        from repro.simulation.state import WorldState

        return cls(state=WorldState.load(checkpoint_dir), phases=phases)

    # Back-compat accessors: the run state used to live directly on the
    # engine; analyses, tests, and the CLI still reach it this way.

    @property
    def config(self) -> ScenarioConfig:
        return self.state.config

    @property
    def hub(self) -> RngHub:
        return self.state.hub

    @property
    def world(self) -> World:
        return self.state.world

    @property
    def chain(self) -> Blockchain:
        return self.state.chain

    @property
    def oracle(self) -> PriceOracle:
        return self.state.oracle

    @property
    def phase_timings(self) -> Dict[str, float]:
        """Cumulative per-phase wall-clock (the ``--profile`` source)."""
        return self.scheduler.timings

    # ------------------------------------------------------------------ run --

    def run(
        self,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        stop_after_day: Optional[int] = None,
    ) -> Optional[SimulationResult]:
        """Execute the scenario and return the result bundle.

        The chain is log-backed: an append-to-disk
        :class:`~repro.chain.chainlog.ChainLog` takes each day's
        finalized blocks out of memory at the day boundary, keeping the
        chain's RSS footprint bounded regardless of run length; blocks
        rematerialize lazily wherever the result is read.

        With ``checkpoint_every=N`` (requires ``checkpoint_dir``), the
        full run state is saved after every N-th completed day — each
        save atomically replaces the previous one, so the directory
        always holds the latest consistent checkpoint. With
        ``stop_after_day=D``, the run halts once D days are complete,
        saves a final checkpoint, and returns ``None``; a later
        :meth:`resume` continues bit-identically to an uninterrupted
        run.
        """
        state = self.state
        n_days = state.config.n_days
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError("checkpoint_every must be >= 1")
        if checkpoint_every and checkpoint_dir is None:
            raise SimulationError("checkpoint_every requires checkpoint_dir")
        if stop_after_day is not None and stop_after_day < 1:
            raise SimulationError("stop_after_day must be >= 1")

        if state.chain.chain_log is None:
            from repro.chain.chainlog import ChainLog

            state.chain.attach_log(ChainLog())
        run_started = perf_counter()
        first_day = state.day
        if state.console_owner is None:
            state.bootstrap_routers()

        for day in range(state.day, n_days):
            self.scheduler.run_day(state, day)
            state.day = day + 1
            # Day boundary: the batch is minted and nothing holds a
            # block reference, so spill the finalized prefix. Runs
            # before the checkpoint so a save raw-copies frames.
            state.chain.evict_finalized()
            if state.day >= n_days:
                break
            if stop_after_day is not None and state.day >= stop_after_day:
                if checkpoint_dir is None:
                    raise SimulationError(
                        "stop_after_day requires checkpoint_dir"
                    )
                self._checkpoint(checkpoint_dir)
                obs.counter("engine.days", state.day - first_day)
                return None
            if (
                checkpoint_every
                and checkpoint_dir is not None
                and state.day % checkpoint_every == 0
            ):
                self._checkpoint(checkpoint_dir)

        result = SimulationResult.from_state(
            state, dict(self.scheduler.timings)
        )
        wall_s = perf_counter() - run_started
        obs.counter("engine.runs")
        # The days this call simulated: none when resuming a finished
        # run, the remainder when resuming a stopped one.
        obs.counter("engine.days", state.day - first_day)
        self.scheduler.publish_metrics()
        obs.trace_event(
            "engine.run",
            seed=state.config.seed,
            n_days=state.config.n_days,
            blocks=state.chain.height,
            wall_s=round(wall_s, 4),
            phases={
                name: round(seconds, 4)
                for name, seconds in self.scheduler.timings.items()
            },
        )
        return result

    def _checkpoint(self, directory: Union[str, Path]) -> None:
        started = perf_counter()
        self.state.save(directory)
        obs.counter("engine.checkpoints")
        obs.observe("engine.checkpoint_save", perf_counter() - started)


def _build_peerbook(state: WorldState) -> Peerbook:
    """The end-of-run peerbook, a function of the final state alone.

    Its relay draws come from a fresh hub's ``"relay"`` stream: the day
    loop never draws that stream, so the draws equal the run hub's,
    and a reloaded final state rebuilds the same peerbook.
    """
    from repro.p2p.peerbook import Peerbook
    from repro.rng import RngHub

    rng = RngHub(state.config.seed).stream("relay")
    peerbook = Peerbook()
    publics: List[Address] = []
    for hotspot in state.world.hotspots.values():
        if not hotspot.online or hotspot.backhaul is None:
            continue
        if hotspot.backhaul.has_public_ip:
            peerbook.add_direct(hotspot.gateway, hotspot.backhaul.ip)
            publics.append(hotspot.gateway)
    if not publics:
        return peerbook
    # Selection is geography-blind (the Fig. 11 result) but not
    # perfectly uniform: some relays are far more discoverable
    # (long-lived, well-connected), which produces the heavy tail of
    # Fig. 10 — one relay carrying dozens of peers.
    weights = rng.pareto(1.7, size=len(publics)) + 0.10
    weights = weights / weights.sum()
    for hotspot in state.world.hotspots.values():
        if not hotspot.online or hotspot.backhaul is None:
            continue
        if hotspot.backhaul.has_public_ip:
            continue
        relay = publics[int(rng.choice(len(publics), p=weights))]
        peerbook.add_relayed(hotspot.gateway, relay)
    for hotspot in state.world.hotspots.values():
        if not hotspot.online:
            peerbook.add_empty(hotspot.gateway)
    return peerbook
