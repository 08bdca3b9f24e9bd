"""Multi-router data-plane tests: Figure 1's routing end to end."""

import pytest

from repro.geo.geodesy import LatLon, destination
from repro.lorawan.console import Console
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials, SessionKeys
from repro.lorawan.network import LoraWanNetwork, NetworkHotspot
from repro.lorawan.router import HeliumRouter
from repro.lorawan.routing import RouterFrontend


@pytest.fixture()
def multi_stack(rng):
    base = LatLon(32.75, -117.15)
    hotspots = [
        NetworkHotspot(f"hs_{i}", destination(base, 60.0 * i, 0.3 + 0.1 * i))
        for i in range(6)
    ]
    frontend = RouterFrontend()
    console = Console("wal_console", oui=1)
    third = HeliumRouter("wal_third", oui=5)
    frontend.add_router(console)
    frontend.add_router(third)
    console.open_channel(at_block=0)
    third.open_channel(at_block=0)
    network = LoraWanNetwork(
        hotspots, frontend, uplink_blackout_probability=0.0
    )
    return network, frontend, console, third, base


class TestMultiRouterDispatch:
    def test_each_router_gets_its_own_devices_packets(self, multi_stack, rng):
        network, frontend, console, third, base = multi_stack
        creds_a = DeviceCredentials.generate("console-dev")
        creds_b = DeviceCredentials.generate("third-dev")
        console.register_device(creds_a)
        third.register_device(creds_b)
        device_a = EdgeDevice(creds_a, DeviceConfig(), location=base)
        device_b = EdgeDevice(creds_b, DeviceConfig(), location=base)
        device_a.accept_join(frontend.join(console, creds_a))
        device_b.accept_join(frontend.join(third, creds_b))

        for i in range(40):
            network.send_uplink(device_a, rng, float(i * 4))
            network.send_uplink(device_b, rng, float(i * 4) + 2.0)

        assert console.cloud_reception_count() >= 35
        assert third.cloud_reception_count() >= 35
        # No cross-contamination: each router only counts deliveries
        # from its own devices.
        a_addr = device_a.session.dev_addr
        b_addr = device_b.session.dev_addr
        assert list(console.cloud_deliveries) == [a_addr]
        assert list(third.cloud_deliveries) == [b_addr]

    def test_unrouteable_device_dropped(self, multi_stack, rng):
        network, frontend, console, _, base = multi_stack
        creds = DeviceCredentials.generate("stray")
        console.register_device(creds)
        device = EdgeDevice(creds, DeviceConfig(), location=base)
        # Joined directly (not via the frontend): its devaddr is outside
        # every allocated slab with overwhelming probability.
        session = console.join(creds)
        if frontend.table.route(session.dev_addr) is not None:
            pytest.skip("devaddr happened to land inside a slab")
        device.accept_join(session)
        record = network.send_uplink(device, rng, 0.0)
        assert not record.delivered_to_cloud

    def test_routers_property(self, multi_stack):
        network, frontend, console, third, _ = multi_stack
        assert set(network.routers) == {console, third}

    def test_single_router_network_unchanged(self, rng):
        base = LatLon(32.75, -117.15)
        hotspot = NetworkHotspot("hs_0", base)
        console = Console("wal_solo", oui=1)
        console.open_channel(at_block=0)
        network = LoraWanNetwork([hotspot], console,
                                 uplink_blackout_probability=0.0)
        assert network.routers == [console]
        creds = DeviceCredentials.generate("solo-dev")
        console.register_user_device("wal_user", creds)
        device = EdgeDevice(creds, DeviceConfig(), location=base)
        device.accept_join(console.join(creds))
        record = network.send_uplink(device, rng, 0.0)
        assert record.delivered_to_cloud
