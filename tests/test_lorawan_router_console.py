"""Router and Console tests: offers, purchases, ACK scheduling, billing."""

import pytest

from repro.errors import InsufficientFunds, JoinError, LoraWanError
from repro.lorawan.console import Console
from repro.lorawan.keys import DeviceCredentials
from repro.lorawan.mac import UplinkFrame
from repro.lorawan.router import HeliumRouter, PacketOffer, RouterConfig
from repro.radio.lora import SpreadingFactor


def _frame(dev_addr, fcnt=0, confirmed=True, sent_at=0.0):
    return UplinkFrame(
        dev_addr=dev_addr, fcnt=fcnt, payload=b"counter:0",
        confirmed=confirmed, freq_mhz=904.6,
        sf=SpreadingFactor.SF9, sent_at_s=sent_at,
    )


def _offer(gateway, arrival=0.3, downlink=0.05):
    return PacketOffer(
        gateway=gateway, frame_id="x", payload_bytes=9,
        arrival_s=arrival, gateway_downlink_latency_s=downlink,
    )


@pytest.fixture()
def router():
    r = HeliumRouter(owner="wal_r", oui=3, config=RouterConfig(
        processing_latency_median_s=0.1, processing_latency_sigma=0.1,
        duplicate_purchase_rate=0.0,
    ))
    creds = DeviceCredentials.generate("dev")
    r.register_device(creds)
    session = r.join(creds)
    r.open_channel(at_block=0)
    return r, session


class TestJoinFlow:
    def test_unregistered_device_rejected(self):
        router = HeliumRouter("wal_r", 3)
        with pytest.raises(JoinError):
            router.join(DeviceCredentials.generate("stranger"))

    def test_wrong_app_key_rejected(self):
        router = HeliumRouter("wal_r", 3)
        creds = DeviceCredentials.generate("dev")
        router.register_device(creds)
        forged = DeviceCredentials(
            dev_eui=creds.dev_eui, app_eui=creds.app_eui, app_key="f" * 32
        )
        with pytest.raises(JoinError):
            router.join(forged)

    def test_double_registration_rejected(self):
        router = HeliumRouter("wal_r", 3)
        creds = DeviceCredentials.generate("dev")
        router.register_device(creds)
        with pytest.raises(JoinError):
            router.register_device(creds)


class TestDelivery:
    def test_buys_first_offer_only(self, router, rng):
        r, session = router
        frame = _frame(session.dev_addr)
        report = r.deliver(frame, [
            _offer("hs_late", arrival=0.5), _offer("hs_early", arrival=0.2),
        ], rng)
        assert report.purchased_from == ["hs_early"]
        assert report.delivered_to_cloud
        assert r.cloud_deliveries == {frame.dev_addr: 1}

    def test_duplicate_purchases_possible(self, rng):
        r = HeliumRouter("wal_r", 3, RouterConfig(duplicate_purchase_rate=1.0))
        creds = DeviceCredentials.generate("dev")
        r.register_device(creds)
        session = r.join(creds)
        r.open_channel(at_block=0)
        report = r.deliver(_frame(session.dev_addr), [
            _offer("hs_a", 0.2), _offer("hs_b", 0.3), _offer("hs_c", 0.4),
        ], rng)
        assert len(report.purchased_from) == 3  # bought every copy

    def test_no_offers_no_delivery(self, router, rng):
        r, session = router
        report = r.deliver(_frame(session.dev_addr), [], rng)
        assert not report.delivered_to_cloud

    def test_unknown_session_rejected(self, router, rng):
        r, _ = router
        with pytest.raises(LoraWanError):
            r.deliver(_frame("deadbeef"), [_offer("hs_a")], rng)

    def test_no_channel_no_purchase(self, rng):
        r = HeliumRouter("wal_r", 3)
        creds = DeviceCredentials.generate("dev")
        r.register_device(creds)
        session = r.join(creds)
        report = r.deliver(_frame(session.dev_addr), [_offer("hs_a")], rng)
        assert not report.delivered_to_cloud  # nothing staked, no buy

    def test_ack_scheduled_in_rx1_when_fast(self, router, rng):
        r, session = router
        report = r.deliver(
            _frame(session.dev_addr, sent_at=0.0),
            [_offer("hs_a", arrival=0.25, downlink=0.05)], rng,
        )
        assert report.ack_via == "hs_a"
        assert report.ack_window == 1

    def test_slow_path_falls_to_rx2(self, rng):
        r = HeliumRouter("wal_r", 3, RouterConfig(
            processing_latency_median_s=1.0, processing_latency_sigma=0.01,
            duplicate_purchase_rate=0.0,
        ))
        creds = DeviceCredentials.generate("dev")
        r.register_device(creds)
        session = r.join(creds)
        r.open_channel(at_block=0)
        report = r.deliver(
            _frame(session.dev_addr),
            [_offer("hs_a", arrival=0.4, downlink=0.1)], rng,
        )
        assert report.ack_window == 2

    def test_too_slow_misses_both_windows(self, rng):
        r = HeliumRouter("wal_r", 3, RouterConfig(
            processing_latency_median_s=5.0, processing_latency_sigma=0.01,
        ))
        creds = DeviceCredentials.generate("dev")
        r.register_device(creds)
        session = r.join(creds)
        r.open_channel(at_block=0)
        report = r.deliver(
            _frame(session.dev_addr), [_offer("hs_a", 0.4)], rng,
        )
        assert report.delivered_to_cloud
        assert report.ack_window is None  # cloud has it, device NACKs

    def test_unconfirmed_uplink_gets_no_ack(self, router, rng):
        r, session = router
        report = r.deliver(
            _frame(session.dev_addr, confirmed=False),
            [_offer("hs_a", 0.2)], rng,
        )
        assert report.delivered_to_cloud
        assert report.ack_via is None


class TestChannelLifecycle:
    def test_open_then_close(self, router):
        r, _ = router
        with pytest.raises(LoraWanError):
            r.open_channel(at_block=5)  # already open
        close = r.close_channel()
        assert close.oui == 3
        assert r.needs_channel
        with pytest.raises(LoraWanError):
            r.close_channel()


class TestConsole:
    def test_minimum_purchase_enforced(self):
        console = Console("wal_c")
        with pytest.raises(LoraWanError):
            console.fund_with_usd("wal_user", 5.0)
        dc = console.fund_with_usd("wal_user", 10.0)
        # "$10 USD purchase" → 1,000,000 DC (§5.2).
        assert dc == 1_000_000

    def test_billing_deducts_at_cost(self):
        console = Console("wal_c")
        creds = DeviceCredentials.generate("dev")
        console.register_user_device("wal_user", creds)
        console.fund_with_usd("wal_user", 10.0)
        console.bill_packet(creds.dev_eui, 3)
        assert console.accounts["wal_user"].dc_balance == 999_997

    def test_billing_exhausted_account(self):
        console = Console("wal_c")
        creds = DeviceCredentials.generate("dev")
        console.register_user_device("wal_user", creds)
        with pytest.raises(InsufficientFunds):
            console.bill_packet(creds.dev_eui, 1)

    def test_burn_funding(self):
        console = Console("wal_c")
        console.fund_with_burn("wal_user", 50_000)
        assert console.accounts["wal_user"].dc_balance == 50_000
        with pytest.raises(LoraWanError):
            console.fund_with_burn("wal_user", 0)

    def test_device_account_lookup(self):
        console = Console("wal_c")
        creds = DeviceCredentials.generate("dev")
        console.register_user_device("wal_user", creds)
        account = console.account_for_device(creds.dev_eui)
        assert account is not None and account.user == "wal_user"
        assert console.account_for_device("nope") is None

    def test_unregistered_device_billing_rejected(self):
        console = Console("wal_c")
        with pytest.raises(LoraWanError):
            console.bill_packet("ghost", 1)

    def test_integrations(self):
        console = Console("wal_c")
        console.add_integration("wal_user", "http")
        assert console.accounts["wal_user"].integrations == ["http"]
