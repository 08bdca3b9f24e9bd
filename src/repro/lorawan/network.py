"""End-to-end LoRaWAN data plane: device ⇄ hotspots ⇄ router.

This is the runtime the §8 field experiments drive: an uplink is sampled
against every hotspot in radio range, surviving copies race through
packet forwarders and backhaul to the router, the router buys the first
copy and — for confirmed uplinks — tries to land an ACK inside the 1 s /
2 s receive windows through one of the purchasing gateways.

Loss processes modelled (each visible in the paper's data):

* radio loss per device→hotspot link (log-distance + shadowing),
* a correlated per-uplink "blackout" (collisions/interference at the
  device: when it fires, *no* hotspot hears the packet — the source of
  the single-miss-dominated ~25 % loss floor in §8.1),
* forwarder→miner UDP datagram loss (no retries),
* router outages (the ~2 h firmware-release gaps in the May test),
* ACK-window misses from backhaul + processing latency (relayed
  hotspots are slower — why the paper's own relayed hotspot is "rarely
  chosen by the Console", Fig. 16),
* downlink asymmetry (uplink is easier than downlink, §8.2.2 [21]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.crypto import Address
from repro.errors import LoraWanError
from repro.geo.geodesy import LatLon
from repro.geo.spatialindex import SpatialIndex
from repro.lorawan.device import EdgeDevice
from repro.lorawan.forwarder import PacketForwarder
from repro.lorawan.router import HeliumRouter, PacketOffer
from repro.lorawan.routing import RouterFrontend
from repro.radio.lora import sensitivity_dbm
from repro.radio.propagation import Environment, LinkBudget, PropagationModel

__all__ = ["NetworkHotspot", "TransmissionRecord", "LoraWanNetwork"]

#: Hotspots beyond this distance are not candidate receivers for a
#: ground-level device (generous; urban device range is ~1–3 km).
DEVICE_QUERY_RADIUS_KM: float = 30.0

#: Only the nearest N hotspots are evaluated per uplink: beyond that,
#: receptions would be redundant copies the router dedups anyway.
MAX_RECEIVER_CANDIDATES: int = 20

#: Extra path loss on the downlink: "the LoRa PHY is asymmetric; said
#: simply, uplink (edge→gateway) is easier than downlink" (§8.2.2).
DOWNLINK_PENALTY_DB: float = 12.0

#: Residual per-ACK downlink failure (RX window timing slop, RX2
#: data-rate mismatch, device-side desense). Together with the path-loss
#: penalty this produces the paper's 12–20 % "incorrect NACK" rates —
#: packets the cloud received whose ACK never reached the device.
DOWNLINK_LOSS_PROBABILITY: float = 0.13


@dataclass
class NetworkHotspot:
    """A hotspot as the data plane sees it."""

    gateway: Address
    location: LatLon
    environment: Environment = Environment.SUBURBAN
    relayed: bool = False
    online: bool = True
    forwarder: PacketForwarder = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.forwarder is None:
            self.forwarder = PacketForwarder(self.gateway)

    def uplink_backhaul_latency_s(self, rng: np.random.Generator) -> float:
        """Hotspot→router latency; relayed hotspots pay the circuit tax."""
        base = float(rng.lognormal(np.log(0.06), 0.4))
        if self.relayed:
            base += float(rng.lognormal(np.log(0.35), 0.5))
        return base

    def downlink_latency_s(self, rng: np.random.Generator) -> float:
        """Router→hotspot→air latency for a scheduled downlink."""
        return self.uplink_backhaul_latency_s(rng)


@dataclass
class TransmissionRecord:
    """Ground truth for one uplink, for the §8 reconciliation analyses."""

    fcnt: int
    sent_at_s: float
    device_location: LatLon
    receiving_gateways: List[Address] = field(default_factory=list)
    delivered_to_cloud: bool = False
    acked: bool = False
    ack_window: Optional[int] = None
    blackout: bool = False
    in_outage: bool = False
    nearest_hotspot_km: Optional[float] = None


class LoraWanNetwork:
    """The assembled data plane for one router and a hotspot fleet.

    Args:
        hotspots: deployed hotspots.
        router: the router/Console buying this device's packets.
        device_environment: propagation class for device↔hotspot links
            (ground level, so typically worse than hotspot↔hotspot).
        uplink_blackout_probability: correlated per-uplink loss (device-
            side collision/interference: no hotspot hears the packet).
        hotspot_sensitivity_margin_db: demodulation margin above the
            theoretical sensitivity for hotspot receivers.
    """

    def __init__(
        self,
        hotspots: Sequence[NetworkHotspot],
        router: "HeliumRouter | RouterFrontend",
        device_environment: Environment = Environment.URBAN,
        uplink_blackout_probability: float = 0.26,
        hotspot_sensitivity_margin_db: float = 2.0,
    ) -> None:
        if not (0.0 <= uplink_blackout_probability < 1.0):
            raise LoraWanError(
                f"blackout probability must be in [0, 1): "
                f"{uplink_blackout_probability}"
            )
        self.hotspots = list(hotspots)
        # Either a single router (the common Console-only case) or a
        # RouterFrontend dispatching by devaddr slab (Figure 1's
        # multi-router lookup).
        self._frontend = router if isinstance(router, RouterFrontend) else None
        self.router = None if self._frontend is not None else router
        self.device_environment = device_environment
        self.uplink_blackout_probability = uplink_blackout_probability
        self.hotspot_sensitivity_margin_db = hotspot_sensitivity_margin_db
        self._index: SpatialIndex[NetworkHotspot] = SpatialIndex(cell_deg=0.25)
        for hotspot in self.hotspots:
            self._index.insert(hotspot.location, hotspot)
        self._outages: List[Tuple[float, float]] = []
        # Running PRR counters; each send's record goes to its caller.
        self._sent = 0
        self._delivered = 0
        # Candidate lists are cached on a ~50 m position grid: stationary
        # devices hit one entry, walking devices reuse entries for the
        # few metres between consecutive sends.
        self._near_cache: Dict[Tuple[int, int], List[Tuple[float, NetworkHotspot]]] = {}
        self._model_cache: Dict[Tuple[Environment, float, float], PropagationModel] = {}
        # Blackout process state: losses are refractory (a collision is
        # rarely followed by another — the paper's losses are 83.5 %
        # single-misses), with rare multi-packet micro-outages providing
        # the long-run tail (the paper's one 34-packet run).
        self._last_was_blackout = False
        self._micro_outage_remaining = 0

    # -- outage control ------------------------------------------------------

    def add_outage(self, start_s: float, end_s: float) -> None:
        """Schedule a router/network outage window (§8.1 firmware gaps)."""
        if end_s <= start_s:
            raise LoraWanError(f"outage must have positive duration: {start_s}..{end_s}")
        self._outages.append((start_s, end_s))

    def in_outage(self, now_s: float) -> bool:
        """Whether an outage window covers ``now_s``."""
        return any(start <= now_s < end for start, end in self._outages)

    # -- data plane -------------------------------------------------------------

    def hotspots_near(
        self, location: LatLon, radius_km: float = DEVICE_QUERY_RADIUS_KM
    ) -> List[Tuple[float, NetworkHotspot]]:
        """(distance, hotspot) pairs within radius, nearest first.

        Results are truncated to :data:`MAX_RECEIVER_CANDIDATES` and
        cached on a ~50 m grid, so repeated sends from one spot cost one
        index query total. The distances are measured from the exact
        location of the first call that lands in a cell, and every later
        call in that cell reuses them: a walker gets distances up to
        ~50 m off from where it actually is.
        """
        key = (int(location.lat * 2000), int(location.lon * 2000))
        cached = self._near_cache.get(key)
        if cached is not None:
            return cached
        pairs = [
            (location.distance_km(point), hotspot)
            for point, hotspot in self._index.within_radius(location, radius_km)
        ]
        pairs.sort(key=lambda pair: pair[0])
        pairs = pairs[:MAX_RECEIVER_CANDIDATES]
        if len(self._near_cache) > 20_000:
            self._near_cache.clear()
        self._near_cache[key] = pairs
        return pairs

    def _model(
        self, environment: Environment, tx_power_dbm: float, gain_dbi: float
    ) -> PropagationModel:
        """Cached propagation model per (environment, link budget)."""
        key = (environment, tx_power_dbm, gain_dbi)
        model = self._model_cache.get(key)
        if model is None:
            model = PropagationModel(
                environment,
                LinkBudget(tx_power_dbm=tx_power_dbm, antenna_gain_dbi=gain_dbi),
            )
            self._model_cache[key] = model
        return model

    def send_uplink(
        self,
        device: EdgeDevice,
        rng: np.random.Generator,
        now_s: float,
        freq_mhz: float = 904.6,
    ) -> TransmissionRecord:
        """Transmit one uplink from ``device`` and run it end-to-end."""
        frame = device.build_uplink(now_s, freq_mhz)
        self._sent += 1
        record = TransmissionRecord(
            fcnt=frame.fcnt,
            sent_at_s=now_s,
            device_location=device.location,
        )
        nearby = self.hotspots_near(device.location)
        if nearby:
            record.nearest_hotspot_km = nearby[0][0]

        if self._sample_blackout(rng):
            record.blackout = True
            return record

        airtime_s = device.airtime_ms() / 1000.0
        sensitivity = (
            sensitivity_dbm(device.config.sf)
            + self.hotspot_sensitivity_margin_db
        )
        offers: List[PacketOffer] = []
        receiving: Dict[Address, NetworkHotspot] = {}
        for distance_km, hotspot in nearby:
            if not hotspot.online:
                continue
            model = self._model(
                self.device_environment, device.config.tx_power_dbm, 0.0
            )
            rssi = model.sample_rssi_dbm(max(distance_km, 1e-3), rng)
            if rssi < sensitivity:
                continue
            forwarded = hotspot.forwarder.forward_uplink(frame, rng)
            if forwarded is None:
                continue  # UDP datagram lost, no retries
            receiving[hotspot.gateway] = hotspot
            record.receiving_gateways.append(hotspot.gateway)
            offers.append(PacketOffer(
                gateway=hotspot.gateway,
                frame_id=frame.frame_id,
                payload_bytes=len(frame.payload),
                arrival_s=now_s + airtime_s + hotspot.uplink_backhaul_latency_s(rng),
                gateway_downlink_latency_s=hotspot.downlink_latency_s(rng),
            ))

        if self.in_outage(now_s):
            record.in_outage = True
            return record

        if self._frontend is not None:
            try:
                owning_router = self._frontend.router_for(frame.dev_addr)
            except LoraWanError:
                # Unrouteable devaddr: hotspots drop the packet.
                return record
        else:
            owning_router = self.router
        report = owning_router.deliver(frame, offers, rng)
        record.delivered_to_cloud = report.delivered_to_cloud
        self._delivered += report.delivered_to_cloud
        if report.ack_via is not None and report.ack_window is not None:
            ack_hotspot = receiving[report.ack_via]
            ack_hotspot.forwarder.send_downlink()
            distance_km = device.location.distance_km(ack_hotspot.location)
            downlink_model = self._model(
                self.device_environment,
                27.0 - DOWNLINK_PENALTY_DB,
                ack_hotspot_gain(ack_hotspot),
            )
            rssi = downlink_model.sample_rssi_dbm(max(distance_km, 1e-3), rng)
            timing_ok = float(rng.random()) >= DOWNLINK_LOSS_PROBABILITY
            if timing_ok and rssi >= -134.0:  # device sensitivity (ST board)
                device.receive_ack(frame.fcnt, report.ack_window)
                record.acked = True
                record.ack_window = report.ack_window
        return record

    def _sample_blackout(self, rng: np.random.Generator) -> bool:
        """One draw of the correlated uplink-loss process."""
        if self._micro_outage_remaining > 0:
            self._micro_outage_remaining -= 1
            self._last_was_blackout = True
            return True
        probability = self.uplink_blackout_probability
        if self._last_was_blackout:
            probability *= 0.30  # refractory: singles dominate
        blackout = float(rng.random()) < probability
        self._last_was_blackout = blackout
        if not blackout and float(rng.random()) < 1.0 / 6000.0:
            # Rare router/concentrator hiccup: a 15–40 packet run.
            self._micro_outage_remaining = int(rng.integers(15, 41))
        return blackout

    # -- stats ----------------------------------------------------------------------

    @property
    def routers(self):
        """Every router behind this network (one or the frontend's set)."""
        if self._frontend is not None:
            return self._frontend.routers
        return [self.router]

    def packet_reception_ratio(self) -> float:
        """Cloud-side PRR over every uplink sent so far."""
        if not self._sent:
            raise LoraWanError("no transmissions recorded")
        return self._delivered / self._sent


def ack_hotspot_gain(hotspot: NetworkHotspot) -> float:
    """Antenna gain assumed for a hotspot's downlink transmission."""
    return 1.2
