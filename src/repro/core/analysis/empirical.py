"""Assembled empirical analyses (§8.1, §8.2.2).

Thin composition layer over :mod:`repro.field`: builds the paper's two
experiment classes (stationary best-case, neighbourhood walks) on top of
a simulated world, and reduces them to the numbers §8 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.field.counter_app import CounterAppExperiment
from repro.field.reconcile import AckTable, Hip15Accuracy, MissRunStats
from repro.field.walks import WalkExperiment, generate_walk
from repro.geo.geodesy import LatLon, haversine_km_many, latlon_arrays
from repro.lorawan.network import NetworkHotspot
from repro.radio.propagation import Environment
from repro.simulation.world import World

__all__ = [
    "hotspot_field_near",
    "StationaryReport",
    "run_stationary",
    "WalkReport",
    "run_walk",
]


def hotspot_field_near(
    world: World,
    center: LatLon,
    radius_km: float = 12.0,
) -> List[NetworkHotspot]:
    """Online hotspots near a site, as data-plane objects.

    Relay status comes from the hotspot's backhaul NAT flag, which is
    what slows its downlinks (Fig. 16's rarely-chosen relayed hotspot).

    Deliberately *not* served by ``world.index``: the live index lags a
    silent mover's relocation until its next rebuild and returns hits
    in bucket-insertion order, so the same world produces a different
    field in-memory than after a snapshot round-trip — and downstream
    field experiments consume RNG per hotspot in field order. One
    vectorised haversine pass over the fleet plus a gateway sort makes
    the field a pure function of the world's contents, so serial runs
    and farm workers produce byte-identical reports.
    """
    fleet = list(world.hotspots.values())
    if not fleet:
        raise AnalysisError(f"no online hotspots within {radius_km} km of {center}")
    lats, lons = latlon_arrays(h.actual_location for h in fleet)
    km = haversine_km_many(center.lat, center.lon, lats, lons)
    near = [
        sim_hotspot
        for sim_hotspot, distance in zip(fleet, km.tolist())
        if distance <= radius_km
        and sim_hotspot.online
        and not sim_hotspot.is_validator
    ]
    near.sort(key=lambda sim_hotspot: sim_hotspot.gateway)
    hotspots: List[NetworkHotspot] = []
    for sim_hotspot in near:
        relayed = (
            sim_hotspot.backhaul.behind_nat
            if sim_hotspot.backhaul is not None
            else False
        )
        hotspots.append(NetworkHotspot(
            gateway=sim_hotspot.gateway,
            location=sim_hotspot.actual_location,
            environment=sim_hotspot.environment,
            relayed=relayed,
        ))
    if not hotspots:
        raise AnalysisError(f"no online hotspots within {radius_km} km of {center}")
    return hotspots


@dataclass
class StationaryReport:
    """§8.1 numbers for one stationary run."""

    prr: float
    prr_excluding_outages: float
    packets_sent: int
    miss_runs: MissRunStats
    acks: AckTable


def run_stationary(
    world: World,
    site: LatLon,
    rng: np.random.Generator,
    duration_hours: float = 24.0,
    outages: Optional[List[Tuple[float, float]]] = None,
    environment: Environment = Environment.SUBURBAN,
) -> StationaryReport:
    """The best-case test: a fixed sensor amid the simulated fleet."""
    field = hotspot_field_near(world, site)
    experiment = CounterAppExperiment(
        field, site, device_environment=environment
    )
    result = experiment.run(rng, duration_hours=duration_hours, outages=outages)
    return StationaryReport(
        prr=result.prr,
        prr_excluding_outages=result.prr_excluding_outages(),
        packets_sent=result.packets_sent,
        miss_runs=result.tally.miss_run_stats(),
        acks=result.tally.ack_table(),
    )


@dataclass
class WalkReport:
    """§8.2.2 numbers for one walk."""

    prr: float
    packets_sent: int
    acks: AckTable
    hip15: Hip15Accuracy


def run_walk(
    world: World,
    start: LatLon,
    rng: np.random.Generator,
    environment: Environment = Environment.STREET_LEVEL,
    n_legs: int = 24,
) -> WalkReport:
    """One neighbourhood walk through the simulated fleet."""
    field = hotspot_field_near(world, start)
    experiment = WalkExperiment(field, environment=environment)
    trace = generate_walk(start, rng, n_legs=n_legs)
    result = experiment.run(trace, rng)
    return WalkReport(
        prr=result.prr,
        packets_sent=result.packets_sent,
        acks=result.tally.ack_table(),
        hip15=result.hip15.accuracy(),
    )
