"""The stationary counter-app experiment (§8.1).

"We load a basic app on the device which sends an incrementing counter.
The app is a free-running send ... We run this app for about 24 hours
and see a packet reception ratio of 68.61%. We see occasional outages in
the network of around 2 hours."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.field.reconcile import ReceptionTally
from repro.geo.geodesy import LatLon
from repro.lorawan.console import Console
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials
from repro.lorawan.network import LoraWanNetwork, NetworkHotspot
from repro.radio.propagation import Environment

__all__ = ["CounterAppResult", "CounterAppExperiment"]


@dataclass
class CounterAppResult:
    """Outcome of one stationary run.

    Carries the run's :class:`ReceptionTally`, not its records: a 24 h
    run sends ~56k uplinks and every §8.1 statistic is a running count.
    """

    tally: ReceptionTally
    duration_hours: float
    outages: List[Tuple[float, float]]

    @property
    def packets_sent(self) -> int:
        """Total uplinks the device attempted."""
        return self.tally.packets_sent

    @property
    def prr(self) -> float:
        """Cloud-side packet reception ratio."""
        if not self.tally.packets_sent:
            raise SimulationError("no packets sent")
        return self.tally.prr()

    def prr_excluding_outages(self) -> float:
        """PRR over the packets sent outside outage windows."""
        kept = self.tally.sent_outside_outage
        if not kept:
            raise SimulationError("every packet fell inside an outage window")
        return self.tally.delivered_outside_outage / kept


class CounterAppExperiment:
    """Best-case stationary test harness.

    Args:
        hotspots: the surrounding fleet (gateway/location/relayed).
        device_location: where the sensor sits.
        device_environment: propagation class at the sensor.
        blackout_probability: correlated uplink loss floor.
    """

    def __init__(
        self,
        hotspots: Sequence[NetworkHotspot],
        device_location: LatLon,
        device_environment: Environment = Environment.SUBURBAN,
        blackout_probability: float = 0.26,
    ) -> None:
        if not hotspots:
            raise SimulationError("the experiment needs at least one hotspot")
        self.console = Console(owner="wal_console_field", oui=1)
        self.network = LoraWanNetwork(
            hotspots,
            self.console,
            device_environment=device_environment,
            uplink_blackout_probability=blackout_probability,
        )
        self.device_location = device_location

    def run(
        self,
        rng: np.random.Generator,
        duration_hours: float = 24.0,
        outages: Optional[List[Tuple[float, float]]] = None,
    ) -> CounterAppResult:
        """Run the free-running app for ``duration_hours``.

        Args:
            rng: random stream.
            duration_hours: wall-clock length of the run.
            outages: optional (start_h, end_h) network outage windows —
                the May run's ~2 h firmware gaps.
        """
        outages = outages or []
        for start_h, end_h in outages:
            self.network.add_outage(start_h * 3600.0, end_h * 3600.0)
        credentials = DeviceCredentials.generate("counter-app")
        self.console.register_user_device("wal_field_user", credentials)
        self.console.open_channel(at_block=0)
        device = EdgeDevice(
            credentials,
            DeviceConfig(confirmed=True),
            location=self.device_location,
        )
        device.accept_join(self.console.join(credentials))

        horizon_s = duration_hours * 3600.0
        now = 0.0
        channel_block = 0
        tally = ReceptionTally()
        while now < horizon_s:
            # The Console rolls channels every ~2 h of blocks.
            block = int(now / 60.0)
            if block - channel_block >= self.console.config.channel_expire_blocks:
                self.console.close_channel()
                self.console.open_channel(at_block=block)
                channel_block = block
            tally.add(self.network.send_uplink(device, rng, now))
            now = device.log[-1].next_send_at_s
        return CounterAppResult(
            tally=tally,
            duration_hours=duration_hours,
            outages=outages,
        )
