"""End-to-end data-plane tests (device ⇄ hotspots ⇄ router)."""

import pytest

from repro.errors import LoraWanError
from repro.geo.geodesy import LatLon, destination
from repro.lorawan.console import Console
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials
from repro.lorawan.network import LoraWanNetwork, NetworkHotspot
from repro.radio.propagation import Environment


def _setup(rng, n_hotspots=6, blackout=0.0, env=Environment.SUBURBAN):
    base = LatLon(32.75, -117.15)
    hotspots = [
        NetworkHotspot(
            f"hs_{i}",
            destination(base, 60.0 * i, 0.3 + 0.2 * i),
            relayed=(i % 2 == 0),
        )
        for i in range(n_hotspots)
    ]
    console = Console("wal_console")
    console.open_channel(at_block=0)
    network = LoraWanNetwork(
        hotspots, console,
        device_environment=env,
        uplink_blackout_probability=blackout,
    )
    creds = DeviceCredentials.generate("dev")
    console.register_user_device("wal_user", creds)
    device = EdgeDevice(creds, DeviceConfig(), location=base)
    device.accept_join(console.join(creds))
    return network, console, device


class TestSendUplink:
    def test_nearby_device_delivers(self, rng):
        network, console, device = _setup(rng)
        delivered = 0
        for i in range(50):
            record = network.send_uplink(device, rng, float(i * 3))
            delivered += record.delivered_to_cloud
        assert delivered >= 45  # no blackout, hotspots at ~300 m
        assert console.cloud_reception_count() == delivered

    def test_blackout_blocks_everything(self, rng):
        network, _, device = _setup(rng, blackout=0.999)
        record = network.send_uplink(device, rng, 0.0)
        assert record.blackout
        assert not record.receiving_gateways
        assert not record.delivered_to_cloud

    def test_remote_device_hears_nothing(self, rng):
        network, _, device = _setup(rng)
        device.location = LatLon(45.0, -90.0)  # ~2,900 km away
        record = network.send_uplink(device, rng, 0.0)
        assert not record.delivered_to_cloud
        assert record.nearest_hotspot_km is None

    def test_outage_blocks_router_not_radio(self, rng):
        network, _, device = _setup(rng)
        network.add_outage(0.0, 100.0)
        record = network.send_uplink(device, rng, 50.0)
        assert record.in_outage
        assert not record.delivered_to_cloud

    def test_invalid_outage_rejected(self, rng):
        network, _, _ = _setup(rng)
        with pytest.raises(LoraWanError):
            network.add_outage(10.0, 5.0)

    def test_acks_reach_device(self, rng):
        network, _, device = _setup(rng)
        acked = 0
        for i in range(60):
            record = network.send_uplink(device, rng, float(i * 3))
            acked += record.acked
        assert acked >= 30  # most confirmed uplinks get their ACK
        assert device.ack_rate() == pytest.approx(acked / 60)

    def test_prr_requires_traffic(self, rng):
        network, _, _ = _setup(rng)
        with pytest.raises(LoraWanError):
            network.packet_reception_ratio()

    def test_bad_blackout_probability_rejected(self, rng):
        base = LatLon(32.75, -117.15)
        hotspot = NetworkHotspot("hs", base)
        with pytest.raises(LoraWanError):
            LoraWanNetwork([hotspot], Console("wal"), uplink_blackout_probability=1.5)


class TestBlackoutProcess:
    def test_refractory_reduces_doubles(self, rng):
        network, _, device = _setup(rng, blackout=0.3)
        records = [
            network.send_uplink(device, rng, float(i * 2)) for i in range(3000)
        ]
        losses = [r.blackout for r in records]
        singles = doubles = 0
        run = 0
        for lost in losses + [False]:
            if lost:
                run += 1
            else:
                if run == 1:
                    singles += 1
                elif run >= 2:
                    doubles += 1
                run = 0
        # Refractory process: single-loss runs dominate heavily.
        assert singles > 4 * doubles

    def test_candidate_cache_consistency(self, rng):
        network, _, device = _setup(rng)
        first = network.hotspots_near(device.location)
        second = network.hotspots_near(device.location)
        assert first is second  # cached
        assert [h.gateway for _, h in first] == sorted(
            (g for g in (h.gateway for _, h in first)),
            key=lambda g: next(d for d, h in first if h.gateway == g),
        )


class TestRelayLatencyEffect:
    def test_relayed_hotspots_slower(self, rng):
        base = LatLon(32.75, -117.15)
        direct = NetworkHotspot("hs_d", base, relayed=False)
        relayed = NetworkHotspot("hs_r", base, relayed=True)
        direct_lat = [direct.uplink_backhaul_latency_s(rng) for _ in range(300)]
        relayed_lat = [relayed.uplink_backhaul_latency_s(rng) for _ in range(300)]
        assert (sum(relayed_lat) / 300) > (sum(direct_lat) / 300) + 0.2
