"""Generative model of the Helium network's history.

This package *writes* the blockchain the analyses read. Day by day it
deploys hotspots into a synthetic geography (adoption is batch-limited
and US-first, §4.2), assigns them to heavy-tailed owners (§4.3), moves
them (test-then-deploy, (0,0) artifacts, silent movers — §4.1, §7.1),
resells them (§4.3.3), runs thinned Proof-of-Coverage over real radio
geometry (§2.3), generates data traffic including the HIP 10 arbitrage
episode (§5.3), mints rewards, and assigns backhaul/NAT/relays (§6).

Architecture: all mutable run state lives in
:class:`~repro.simulation.state.WorldState` (serializable to a
day-level checkpoint and back, bit-identically); each slice of the day
loop is a :class:`~repro.simulation.phases.base.Phase` subsystem under
:mod:`repro.simulation.phases`; the
:class:`~repro.simulation.scheduler.PhaseScheduler` runs them in order
and owns the per-phase timings; and
:class:`~repro.simulation.engine.SimulationEngine` is the thin run loop
(bootstrap, day iteration, checkpointing, result assembly) on top.

Every marginal the paper reports is a *calibration target*; EXPERIMENTS.md
records how close the defaults land.

The re-exported names resolve on first use (:mod:`repro._exports`), and
checking and loading a saved run (:mod:`repro.simulation.checkpoint`)
needs no numpy: a process that follows a cached run's chain, such as
``python -m repro.etl ingest``, imports neither the world state nor the
day loop.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.simulation.scenario": ["ScenarioConfig"],
    "repro.simulation.world": ["World", "SimHotspot"],
    "repro.simulation.engine": ["SimulationEngine", "SimulationResult"],
    "repro.simulation.state": ["WorldState"],
    "repro.simulation.scheduler": ["PhaseScheduler"],
})
