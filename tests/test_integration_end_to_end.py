"""End-to-end integration: the full §2.1 user journey on the substrate.

Walks the exact flow the paper describes for a basic user — register an
application with the Console, fund the account, register a device, OTAA
join, deploy, send data through real hotspots, get payloads in the cloud
— and then settles the hotspot payments on-chain through a state channel,
checking every balance along the way.
"""

import pytest

from repro import units
from repro.chain import Blockchain, OuiRegistration
from repro.chain.transactions import Rewards, RewardShare, RewardType, TokenBurn
from repro.geo.geodesy import LatLon, destination
from repro.lorawan.console import Console
from repro.lorawan.device import DeviceConfig, EdgeDevice
from repro.lorawan.keys import DeviceCredentials
from repro.lorawan.network import LoraWanNetwork, NetworkHotspot


@pytest.fixture()
def stack(rng):
    """A minimal live network: chain, Console with OUI 1, 5 hotspots."""
    chain = Blockchain()
    console = Console(owner="wal_console", oui=1)
    chain.ledger.credit_dc(console.owner, 50_000_000)
    chain.submit(OuiRegistration(oui=1, owner=console.owner,
                                 fee_dc=chain.vars.oui_fee_dc))
    chain.mint_block(10)
    base = LatLon(32.75, -117.15)
    hotspots = [
        NetworkHotspot(f"hs_{i}", destination(base, 72.0 * i, 0.4 + 0.2 * i))
        for i in range(5)
    ]
    network = LoraWanNetwork(
        hotspots, console, uplink_blackout_probability=0.1
    )
    return chain, console, network, base


class TestUserJourney:
    def test_full_flow(self, stack, rng):
        chain, console, network, base = stack

        # §2.1 step 1-2: register an application, deposit money.
        console.fund_with_usd("wal_user", 10.0)
        assert console.accounts["wal_user"].dc_balance == 1_000_000

        # Step 3: register a device; its stack gets blindly-copied keys.
        credentials = DeviceCredentials.generate("my-sensor")
        console.register_user_device("wal_user", credentials)
        console.add_integration("wal_user", "http")

        # The router opens a state channel on-chain before buying data.
        open_txn = console.open_channel(at_block=chain.height + 1)
        chain.submit(open_txn)
        chain.mint_block()
        assert open_txn.channel_id in chain.ledger.open_channels

        # Step 4: deploy; OTAA join; free-running sends.
        device = EdgeDevice(credentials, DeviceConfig(), location=base)
        device.accept_join(console.join(credentials))
        now = 0.0
        for _ in range(120):
            network.send_uplink(device, rng, now)
            now = device.last_uplink.next_send_at_s

        delivered = console.cloud_reception_count()
        assert delivered > 80  # payloads reached the application
        assert device.ack_rate() > 0.4

        # Bill the user per packet at cost.
        for _ in range(delivered):
            console.bill_packet(credentials.dev_eui, 1)
        assert console.accounts["wal_user"].dc_balance == 1_000_000 - delivered

        # Settle the channel on-chain: hotspots' packets are summarised,
        # spent DC burned, remainder refunded.
        close = console.close_channel()
        assert close.total_packets >= delivered  # duplicates possible
        burned_before = chain.ledger.total_dc_burned
        chain.submit(close)
        chain.mint_block()
        assert chain.ledger.total_dc_burned == burned_before + close.total_dcs
        assert open_txn.channel_id not in chain.ledger.open_channels

        # Hotspot owners get HNT for the data they ferried (§2.4 flow).
        shares = tuple(
            RewardShare(
                account=f"wal_owner_{summary.hotspot}",
                gateway=summary.hotspot,
                amount_bones=units.hnt_to_bones(0.01) * summary.num_packets,
                reward_type=RewardType.DATA_TRANSFER,
            )
            for summary in close.summaries
        )
        chain.submit(Rewards(
            epoch_start_block=0, epoch_end_block=chain.height, shares=shares
        ))
        chain.mint_block()
        for summary in close.summaries:
            wallet = chain.ledger.wallet(f"wal_owner_{summary.hotspot}")
            assert wallet.hnt_bones > 0

    def test_user_burn_funding_path(self, stack, rng):
        chain, console, network, base = stack
        # §5.2's visible path: the user burns their own HNT with the
        # Console wallet as destination.
        chain.ledger.oracle_price_usd = 10.0
        chain.submit(Rewards(
            epoch_start_block=0, epoch_end_block=10,
            shares=(RewardShare(
                "wal_user", None, units.hnt_to_bones(2.0),
                RewardType.SECURITY,
            ),),
        ))
        chain.mint_block()
        chain.submit(TokenBurn(
            payer="wal_user", payee=console.owner,
            amount_bones=units.hnt_to_bones(1.0), memo="console-funding",
        ))
        chain.mint_block()
        # 1 HNT at $10 → $10 → 1,000,000 DC landed in the Console wallet.
        credited = chain.ledger.wallet(console.owner).dc
        console.fund_with_burn("wal_user", 1_000_000)
        assert credited >= 1_000_000
        assert console.accounts["wal_user"].dc_balance == 1_000_000
