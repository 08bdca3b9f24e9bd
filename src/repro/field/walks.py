"""Neighbourhood walk tests (§8.2.2; Figure 15, Tables 2 and 3).

"We plan neighbourhood walks through areas with varying hotspot density.
While walking, we carry an edge device running the counter app ... We
add GPS coordinates and a timestamp to the app payload."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.field.reconcile import Hip15Tally, ReceptionTally
from repro.geo.geodesy import LatLon, destination
from repro.lorawan.console import Console
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials
from repro.lorawan.network import LoraWanNetwork, NetworkHotspot
from repro.radio.propagation import Environment

__all__ = ["WalkTrace", "generate_walk", "WalkExperiment", "WalkResult"]

#: Typical walking speed in km/h.
WALK_SPEED_KMH: float = 4.5


@dataclass(frozen=True)
class WalkTrace:
    """A planned walking route as timed GPS fixes."""

    points: Tuple[Tuple[float, LatLon], ...]  # (time_s, position)

    @property
    def duration_s(self) -> float:
        """Total walk time."""
        return self.points[-1][0] if self.points else 0.0

    def position_at(self, t_s: float) -> LatLon:
        """Linear interpolation of position at time ``t_s``."""
        points = self.points
        if t_s <= points[0][0]:
            return points[0][1]
        for (t1, p1), (t2, p2) in zip(points, points[1:]):
            if t1 <= t_s <= t2:
                alpha = (t_s - t1) / max(t2 - t1, 1e-9)
                return LatLon(
                    p1.lat + alpha * (p2.lat - p1.lat),
                    p1.lon + alpha * (p2.lon - p1.lon),
                )
        return points[-1][1]


def generate_walk(
    start: LatLon,
    rng: np.random.Generator,
    n_legs: int = 24,
    leg_km: float = 0.25,
    speed_kmh: float = WALK_SPEED_KMH,
    max_turn_deg: float = 60.0,
) -> WalkTrace:
    """A neighbourhood walk with persistent heading.

    Legs follow streets, not Brownian motion: each leg turns at most
    ``max_turn_deg`` from the previous one, so the route drifts outward
    through "areas with varying hotspot density" (§8.2.2) — including
    the coverage gaps where the paper's red dots cluster.
    """
    if n_legs < 1:
        raise SimulationError("a walk needs at least one leg")
    points: List[Tuple[float, LatLon]] = [(0.0, start)]
    heading = float(rng.uniform(0.0, 360.0))
    now = 0.0
    position = start
    leg_s = leg_km / speed_kmh * 3600.0
    for _ in range(n_legs):
        heading = (heading + float(rng.uniform(-max_turn_deg, max_turn_deg))) % 360.0
        position = destination(position, heading, leg_km)
        now += leg_s
        points.append((now, position))
    return WalkTrace(points=tuple(points))


@dataclass
class WalkResult:
    """Everything one walk produced, as running counts: the uplinks'
    :class:`ReceptionTally` and their HIP-15 scoring, not the records."""

    tally: ReceptionTally
    hip15: Hip15Tally
    trace: WalkTrace

    @property
    def packets_sent(self) -> int:
        """Uplinks attempted during the walk."""
        return self.tally.packets_sent

    @property
    def prr(self) -> float:
        """Cloud-side packet reception ratio of the walk."""
        if not self.tally.packets_sent:
            raise SimulationError("walk produced no packets")
        return self.tally.prr()


class WalkExperiment:
    """Drives the counter app along a walk through a hotspot field."""

    def __init__(
        self,
        hotspots: Sequence[NetworkHotspot],
        environment: Environment = Environment.STREET_LEVEL,
        blackout_probability: float = 0.26,
    ) -> None:
        if not hotspots:
            raise SimulationError("the experiment needs at least one hotspot")
        self.console = Console(owner="wal_console_walk", oui=1)
        self.network = LoraWanNetwork(
            hotspots,
            self.console,
            device_environment=environment,
            uplink_blackout_probability=blackout_probability,
        )
        self.hotspots = list(hotspots)

    def run(self, trace: WalkTrace, rng: np.random.Generator) -> WalkResult:
        """Walk the trace, sending free-running confirmed uplinks."""
        credentials = DeviceCredentials.generate("walk-app")
        self.console.register_user_device("wal_walker", credentials)
        self.console.open_channel(at_block=0)
        device = EdgeDevice(credentials, DeviceConfig(confirmed=True))
        device.accept_join(self.console.join(credentials))
        now = 0.0
        tally = ReceptionTally()
        hip15 = Hip15Tally()
        while now < trace.duration_s:
            device.location = trace.position_at(now)
            record = self.network.send_uplink(device, rng, now)
            tally.add(record)
            hip15.add(record)
            now = device.last_uplink.next_send_at_s
        return WalkResult(tally=tally, hip15=hip15, trace=trace)
