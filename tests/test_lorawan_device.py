"""Edge device state machine tests."""

import pytest

from repro.errors import JoinError, LoraWanError
from repro.geo.geodesy import LatLon
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials, SessionKeys


@pytest.fixture()
def device() -> EdgeDevice:
    return EdgeDevice(
        DeviceCredentials.generate("dev"), location=LatLon(32.7, -117.1)
    )


def _join(device):
    session = SessionKeys.derive(device.credentials, 1)
    device.accept_join(session)
    return session


class TestJoin:
    def test_initially_unjoined(self, device):
        assert not device.is_joined

    def test_join_installs_session(self, device):
        _join(device)
        assert device.is_joined
        assert device.fcnt == 0

    def test_double_join_rejected(self, device):
        _join(device)
        with pytest.raises(JoinError):
            device.accept_join(SessionKeys.derive(device.credentials, 2))

    def test_send_before_join_rejected(self, device):
        with pytest.raises(LoraWanError):
            device.build_uplink(0.0, 904.6)


class TestUplinks:
    def test_fcnt_increments(self, device):
        _join(device)
        for expected in range(5):
            frame = device.build_uplink(float(expected), 904.6)
            assert frame.fcnt == expected
        assert device.packets_sent() == 5

    def test_payload_carries_counter_and_gps(self, device):
        _join(device)
        frame = device.build_uplink(0.0, 904.6)
        counter, lat, lon = frame.payload.decode().split(":")
        assert int(counter) == 0
        assert float(lat) == pytest.approx(32.7)
        assert float(lon) == pytest.approx(-117.1)

    def test_free_running_cadence(self, device):
        # footnote 15: ACK in RX1 → ~1 s cycle; no ACK → ~2 s cycle.
        _join(device)
        device.build_uplink(0.0, 904.6)
        device.receive_ack(0, window=1)
        assert device.last_uplink.next_send_at_s == pytest.approx(1.05)
        device.build_uplink(5.0, 904.6)
        assert device.last_uplink.next_send_at_s == pytest.approx(7.1)

    def test_ack_for_unknown_fcnt_rejected(self, device):
        _join(device)
        device.build_uplink(0.0, 904.6)
        with pytest.raises(LoraWanError):
            device.receive_ack(99, window=1)

    def test_ack_for_superseded_fcnt_rejected(self, device):
        # A downlink ACK acknowledges the last confirmed uplink only.
        _join(device)
        device.build_uplink(0.0, 904.6)
        device.build_uplink(2.0, 904.6)
        with pytest.raises(LoraWanError):
            device.receive_ack(0, window=1)

    def test_ack_rate(self, device):
        _join(device)
        windows = {0: 1, 2: 2}  # frames ACKed while in flight
        for i in range(4):
            device.build_uplink(float(i), 904.6)
            if i in windows:
                device.receive_ack(i, windows[i])
                device.receive_ack(i, windows[i])  # a repeat counts once
        assert device.ack_rate() == pytest.approx(0.5)

    def test_ack_rate_requires_traffic(self, device):
        _join(device)
        with pytest.raises(LoraWanError):
            device.ack_rate()

    def test_airtime_positive(self, device):
        assert device.airtime_ms() > 0
