"""Edge device model: OTAA join, uplinks, ACK windows (§2.2, §8.1).

The device mirrors the paper's test firmware: a "free-running send" that
transmits a new confirmed uplink as soon as the previous one's response
window closes — one packet per ~1 s when ACKed in RX1, one per ~2 s when
the ACK never arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import JoinError, LoraWanError
from repro.geo.geodesy import LatLon
from repro.lorawan.keys import DeviceCredentials, SessionKeys
from repro.lorawan.mac import RX1_DELAY_S, RX2_DELAY_S, UplinkFrame
from repro.radio.lora import LoRaParams, SpreadingFactor, airtime_ms

__all__ = ["DeviceConfig", "UplinkResult", "EdgeDevice"]


@dataclass(frozen=True)
class DeviceConfig:
    """Radio and app parameters of an edge device."""

    tx_power_dbm: float = 20.0
    sf: SpreadingFactor = SpreadingFactor.SF9
    payload_bytes: int = 24
    confirmed: bool = True

    @property
    def lora_params(self) -> LoRaParams:
        """PHY parameters derived from the configured SF."""
        return LoRaParams(sf=self.sf)


@dataclass(slots=True)
class UplinkResult:
    """What the device recorded for one uplink (its SD-card log row).

    Slotted: a 24 h free-running run logs ~56k of these.
    """

    fcnt: int
    sent_at_s: float
    location: LatLon
    acked: bool = False
    ack_window: Optional[int] = None

    @property
    def next_send_at_s(self) -> float:
        """When the free-running app may transmit again.

        RX1 ACK → ~1 s cycle; no ACK → the device waits out RX2 (~2 s),
        exactly the footnote-15 cadence.
        """
        if self.acked and self.ack_window == 1:
            return self.sent_at_s + RX1_DELAY_S + 0.05
        if self.acked and self.ack_window == 2:
            return self.sent_at_s + RX2_DELAY_S + 0.05
        return self.sent_at_s + RX2_DELAY_S + 0.1


class EdgeDevice:
    """A LoRaWAN end device with a free-running counter app.

    Args:
        credentials: pre-provisioned identity.
        config: radio/app parameters.
        location: current position (walk tests move it between sends).
    """

    def __init__(
        self,
        credentials: DeviceCredentials,
        config: DeviceConfig = DeviceConfig(),
        location: LatLon = LatLon(0.0, 0.0),
    ) -> None:
        self.credentials = credentials
        self.config = config
        self.location = location
        self.session: Optional[SessionKeys] = None
        self.fcnt = 0
        self.log: List[UplinkResult] = []

    # -- activation ---------------------------------------------------------

    @property
    def is_joined(self) -> bool:
        """True once OTAA has completed."""
        return self.session is not None

    def accept_join(self, session: SessionKeys) -> None:
        """Install session keys from a join-accept."""
        if self.session is not None:
            raise JoinError("device already joined")
        self.session = session
        self.fcnt = 0

    # -- data plane -----------------------------------------------------------

    def airtime_ms(self) -> float:
        """Time on air of one of this device's uplinks."""
        return airtime_ms(self.config.payload_bytes + 13, self.config.lora_params)

    def build_uplink(self, now_s: float, freq_mhz: float) -> UplinkFrame:
        """Construct the next counter-app uplink.

        The payload encodes the frame counter (the paper's incrementing
        counter) plus the GPS fix the walk tests append (§8.2.2).
        """
        if self.session is None:
            raise LoraWanError("device must join before sending data")
        payload = (
            f"{self.fcnt}:{self.location.lat:.5f}:{self.location.lon:.5f}"
        ).encode("ascii")
        frame = UplinkFrame(
            dev_addr=self.session.dev_addr,
            fcnt=self.fcnt,
            payload=payload,
            confirmed=self.config.confirmed,
            freq_mhz=freq_mhz,
            sf=self.config.sf,
            sent_at_s=now_s,
        )
        self.log.append(UplinkResult(
            fcnt=self.fcnt, sent_at_s=now_s, location=self.location
        ))
        self.fcnt += 1
        return frame

    def receive_ack(self, fcnt: int, window: int) -> None:
        """Record an ACK heard in receive window ``window``."""
        for result in reversed(self.log):
            if result.fcnt == fcnt:
                result.acked = True
                result.ack_window = window
                return
        raise LoraWanError(f"ACK for unknown fcnt {fcnt}")

    # -- stats ----------------------------------------------------------------

    def packets_sent(self) -> int:
        """Total uplinks attempted."""
        return len(self.log)

    def ack_rate(self) -> float:
        """Fraction of uplinks the device believes were acknowledged."""
        if not self.log:
            raise LoraWanError("no uplinks sent yet")
        return sum(1 for r in self.log if r.acked) / len(self.log)
