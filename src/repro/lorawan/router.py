"""Helium router: buys packets from hotspots and races the ACK windows.

"Thus the cloud service must (1) learn of a proffered packet, (2) return
a signed commitment to pay, (3) receive payload data, (4) generate an
acknowledgment, and (5) send a signed commitment to pay for
acknowledgment to a hotspot in under 1 s (or, with less reliability 2 s)
for each data packet." (§5.2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.crypto import Address
from repro.chain.state_channel import StateChannelTracker
from repro.chain.transactions import StateChannelClose, StateChannelOpen
from repro.errors import JoinError, LoraWanError
from repro.lorawan.keys import DeviceCredentials, SessionKeys
from repro.lorawan.mac import RX1_DELAY_S, RX2_DELAY_S, UplinkFrame

__all__ = ["RouterConfig", "PacketOffer", "DeliveryReport", "HeliumRouter"]


@dataclass(frozen=True)
class RouterConfig:
    """Operational parameters of a router deployment."""

    #: Median processing latency for the proffer→purchase→ACK pipeline.
    processing_latency_median_s: float = 0.25
    #: Lognormal sigma of processing latency.
    processing_latency_sigma: float = 0.5
    #: Probability the router buys a redundant copy of a packet it
    #: already purchased ("it can still choose to buy as many copies of
    #: a packet as it wishes", §5.1).
    duplicate_purchase_rate: float = 0.05
    #: DC staked per state channel.
    channel_stake_dc: int = 50_000
    #: Channel lifetime in blocks; the Console "closes a state channel
    #: roughly every 120 blocks" on a 240-block expiry (§5.1, Fig. 8).
    channel_expire_blocks: int = 240
    #: DC charged per packet (chain var; 1 DC buys 24 bytes).
    dc_per_packet: int = 1
    #: Safety margin the downlink needs inside a receive window.
    window_guard_s: float = 0.15


@dataclass(frozen=True)
class PacketOffer:
    """A hotspot's offer to sell a received packet (metadata only)."""

    gateway: Address
    frame_id: str
    payload_bytes: int
    arrival_s: float  # when the offer reached the router
    gateway_downlink_latency_s: float  # router→gateway→air latency


@dataclass
class DeliveryReport:
    """What the router did with one uplink frame."""

    frame_id: str
    purchased_from: List[Address] = field(default_factory=list)
    delivered_to_cloud: bool = False
    ack_via: Optional[Address] = None
    ack_window: Optional[int] = None


class HeliumRouter:
    """A LoRaWAN router with Helium state-channel payment semantics.

    Args:
        owner: router wallet address.
        oui: registered organisation identifier.
        config: operational parameters.
    """

    def __init__(
        self, owner: Address, oui: int, config: RouterConfig = RouterConfig()
    ) -> None:
        self.owner = owner
        self.oui = oui
        self.config = config
        self._devices_by_eui: Dict[str, DeviceCredentials] = {}
        self._sessions: Dict[str, SessionKeys] = {}
        self._join_nonce = 0
        self._channel_seq = 0
        self.active_channel: Optional[StateChannelTracker] = None
        #: Frames delivered to the cloud, per device address.
        self.cloud_deliveries: Dict[str, int] = {}
        self.closed_channels: List[StateChannelClose] = []

    # -- device management ----------------------------------------------------

    def register_device(self, credentials: DeviceCredentials) -> None:
        """Register a device (the Console provisioning step, §2.1)."""
        if credentials.dev_eui in self._devices_by_eui:
            raise JoinError(f"device already registered: {credentials.dev_eui}")
        self._devices_by_eui[credentials.dev_eui] = credentials

    def join(self, credentials: DeviceCredentials) -> SessionKeys:
        """OTAA join: authenticate a registered device, mint a session.

        Raises:
            JoinError: for unregistered devices or AppKey mismatch.
        """
        known = self._devices_by_eui.get(credentials.dev_eui)
        if known is None:
            raise JoinError(f"join from unregistered device {credentials.dev_eui}")
        if known.app_key != credentials.app_key:
            raise JoinError(f"AppKey mismatch for device {credentials.dev_eui}")
        self._join_nonce += 1
        session = SessionKeys.derive(credentials, self._join_nonce)
        self._sessions[session.dev_addr] = session
        return session

    def knows_device(self, dev_addr: str) -> bool:
        """Whether a dev_addr belongs to one of this router's sessions."""
        return dev_addr in self._sessions

    # -- state channels ---------------------------------------------------------

    def open_channel(self, at_block: int) -> StateChannelOpen:
        """Open a fresh state channel (caller submits the txn on-chain).

        Raises:
            LoraWanError: when a channel is already open.
        """
        if self.active_channel is not None:
            raise LoraWanError("router already has an open channel")
        self._channel_seq += 1
        channel_id = f"sc-{self.oui}-{self._channel_seq}"
        self.active_channel = StateChannelTracker(
            channel_id=channel_id,
            owner=self.owner,
            oui=self.oui,
            amount_dc=self.config.channel_stake_dc,
            open_block=at_block,
            expire_block=at_block + self.config.channel_expire_blocks,
        )
        return StateChannelOpen(
            channel_id=channel_id,
            owner=self.owner,
            oui=self.oui,
            amount_dc=self.config.channel_stake_dc,
            expire_within_blocks=self.config.channel_expire_blocks,
        )

    def close_channel(self) -> StateChannelClose:
        """Close the active channel and return the closing transaction."""
        if self.active_channel is None:
            raise LoraWanError("no open channel to close")
        close = self.active_channel.build_close()
        self.closed_channels.append(close)
        self.active_channel = None
        return close

    @property
    def needs_channel(self) -> bool:
        """True when the router cannot currently buy packets."""
        return self.active_channel is None

    # -- data plane --------------------------------------------------------------

    def sample_processing_latency_s(self, rng: np.random.Generator) -> float:
        """One draw of proffer→purchase→ACK pipeline latency."""
        mu = math.log(self.config.processing_latency_median_s)
        return float(rng.lognormal(mu, self.config.processing_latency_sigma))

    def deliver(
        self,
        frame: UplinkFrame,
        offers: Sequence[PacketOffer],
        rng: np.random.Generator,
    ) -> DeliveryReport:
        """Process all offers for one uplink frame.

        Buys the first-arriving copy (plus occasional duplicates), counts
        the delivery, and — for confirmed uplinks — schedules the ACK via
        the gateway that can land it soonest, if any window is makeable.
        """
        report = DeliveryReport(frame_id=frame.frame_id)
        if not offers:
            return report
        if not self.knows_device(frame.dev_addr):
            raise LoraWanError(f"frame from unknown session {frame.dev_addr}")
        if self.active_channel is None:
            # No open channel: the router cannot commit to pay, packets
            # are never released (a §8.1-style outage path).
            return report

        dcs = max(1, math.ceil(len(frame.payload) / 24)) * self.config.dc_per_packet
        ordered = sorted(offers, key=lambda o: o.arrival_s)
        bought_any = False
        for i, offer in enumerate(ordered):
            is_first = not bought_any
            want_duplicate = (
                bought_any
                and float(rng.random()) < self.config.duplicate_purchase_rate
            )
            if not (is_first or want_duplicate):
                continue
            if not self.active_channel.can_purchase(offer.gateway, dcs):
                continue
            self.active_channel.record_purchase(offer.gateway, 1, dcs)
            report.purchased_from.append(offer.gateway)
            bought_any = True
        if bought_any:
            self.cloud_deliveries[frame.dev_addr] = (
                self.cloud_deliveries.get(frame.dev_addr, 0) + 1
            )
            report.delivered_to_cloud = True
            if frame.confirmed:
                self._schedule_ack(frame, ordered, report, rng)
        return report

    def _schedule_ack(
        self,
        frame: UplinkFrame,
        ordered_offers: Sequence[PacketOffer],
        report: DeliveryReport,
        rng: np.random.Generator,
    ) -> None:
        processing = self.sample_processing_latency_s(rng)
        best: Optional[Tuple[int, PacketOffer]] = None
        for offer in ordered_offers:
            if offer.gateway not in report.purchased_from:
                continue
            ready = offer.arrival_s + processing + offer.gateway_downlink_latency_s
            guard = self.config.window_guard_s
            rx1_at = frame.sent_at_s + RX1_DELAY_S
            rx2_at = frame.sent_at_s + RX2_DELAY_S
            if ready <= rx1_at - guard:
                window = 1
            elif ready <= rx2_at - guard:
                window = 2
            else:
                continue
            if best is None or window < best[0]:
                best = (window, offer)
        if best is not None:
            report.ack_window, offer = best
            report.ack_via = offer.gateway

    # -- stats ---------------------------------------------------------------------

    def cloud_reception_count(self) -> int:
        """Frames that made it to the cloud."""
        return sum(self.cloud_deliveries.values())
