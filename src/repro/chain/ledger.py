"""Validating ledger: the state machine the blockchain folds into.

The ledger holds *current* state (wallet balances, hotspot ownership and
location, OUIs, open state channels). History stays in the chain itself —
analyses that need move or transfer histories scan transactions, exactly
as the paper scans the DeWi replica, and join against ledger state when
they need "who owns this now".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.chain.crypto import Address
from repro.chain.naming import hotspot_name
from repro.chain.transactions import (
    AddGateway,
    AssertLocation,
    OuiRegistration,
    Payment,
    PocReceipts,
    PocRequest,
    Rewards,
    StateChannelClose,
    StateChannelOpen,
    TokenBurn,
    Transaction,
    TransferHotspot,
)
from repro.chain.varmap import ChainVars, DEFAULT_VARS
from repro.errors import (
    InsufficientFunds,
    StateChannelError,
    TransactionError,
)

__all__ = ["WalletState", "HotspotRecord", "ChannelState", "Ledger"]


@dataclass(slots=True)
class WalletState:
    """Balances of one wallet."""

    hnt_bones: int = 0
    dc: int = 0

    @property
    def hnt(self) -> float:
        """Balance in whole HNT."""
        return units.bones_to_hnt(self.hnt_bones)


@dataclass(slots=True)
class HotspotRecord:
    """Current chain state of one hotspot."""

    gateway: Address
    owner: Address
    location_token: Optional[str] = None
    nonce: int = 0  # number of location asserts so far
    added_block: int = 0
    last_assert_block: Optional[int] = None

    @property
    def name(self) -> str:
        """Three-word display name derived from the gateway address."""
        return hotspot_name(self.gateway)

    @property
    def has_location(self) -> bool:
        """True once the hotspot has asserted any location."""
        return self.location_token is not None


@dataclass
class ChannelState:
    """An open state channel (stake escrowed, awaiting close)."""

    channel_id: str
    owner: Address
    oui: int
    amount_dc: int
    open_block: int
    expire_block: int


class Ledger:
    """Applies transactions, enforcing Helium's validity rules.

    All mutation goes through :meth:`apply`; reads go through the query
    helpers. The blockchain object owns exactly one ledger and applies
    each block's transactions in order.
    """

    def __init__(self, vars: ChainVars = DEFAULT_VARS) -> None:
        self.vars = vars
        self.wallets: Dict[Address, WalletState] = {}
        self.hotspots: Dict[Address, HotspotRecord] = {}
        self.ouis: Dict[int, Address] = {}
        self.open_channels: Dict[str, ChannelState] = {}
        self.oracle_price_usd: float = 10.0
        self.total_dc_burned: int = 0
        self.total_hnt_minted_bones: int = 0
        self.txn_counts: Dict[str, int] = {}

    # -- wallets -----------------------------------------------------------

    def wallet(self, address: Address) -> WalletState:
        """The wallet for ``address``, created empty on first touch."""
        state = self.wallets.get(address)
        if state is None:
            state = WalletState()
            self.wallets[address] = state
        return state

    def credit_dc(self, address: Address, amount: int) -> None:
        """Mint DC into a wallet (credit-card purchase path, §5.2)."""
        if amount < 0:
            raise TransactionError(f"cannot credit negative DC: {amount}")
        self.wallet(address).dc += amount

    def _charge_dc(self, address: Address, amount: int, what: str) -> None:
        if amount == 0:
            return
        wallet = self.wallet(address)
        if wallet.dc < amount:
            raise InsufficientFunds(
                f"{address} has {wallet.dc} DC, needs {amount} for {what}"
            )
        wallet.dc -= amount
        self.total_dc_burned += amount

    # -- application -------------------------------------------------------

    def apply(self, txn: Transaction, height: int) -> None:
        """Validate and apply one transaction at block ``height``.

        Raises a :class:`~repro.errors.TransactionError` subclass and
        leaves the ledger untouched when the transaction is invalid.
        """
        handler = self._HANDLERS.get(type(txn))
        if handler is None:
            raise TransactionError(f"unsupported transaction type: {type(txn).__name__}")
        handler(self, txn, height)
        self.txn_counts[txn.kind] = self.txn_counts.get(txn.kind, 0) + 1

    def _apply_add_gateway(self, txn: AddGateway, height: int) -> None:
        if txn.gateway in self.hotspots:
            raise TransactionError(f"gateway already on chain: {txn.gateway}")
        payer = txn.payer if txn.payer is not None else txn.owner
        self._charge_dc(payer, txn.fee_dc, "add_gateway fee")
        self.hotspots[txn.gateway] = HotspotRecord(
            gateway=txn.gateway, owner=txn.owner, added_block=height
        )
        self.wallet(txn.owner)  # materialise the owner wallet

    def _apply_assert_location(self, txn: AssertLocation, height: int) -> None:
        record = self.hotspots.get(txn.gateway)
        if record is None:
            raise TransactionError(f"assert_location for unknown gateway {txn.gateway}")
        if record.owner != txn.owner:
            raise TransactionError(
                f"assert_location owner mismatch for {txn.gateway}: "
                f"{txn.owner} is not {record.owner}"
            )
        if txn.nonce != record.nonce + 1:
            raise TransactionError(
                f"assert_location nonce {txn.nonce} != expected {record.nonce + 1}"
            )
        payer = txn.payer if txn.payer is not None else txn.owner
        self._charge_dc(payer, txn.fee_dc, "assert_location fee")
        record.location_token = txn.location_token
        record.nonce = txn.nonce
        record.last_assert_block = height

    def _apply_transfer(self, txn: TransferHotspot, height: int) -> None:
        record = self.hotspots.get(txn.gateway)
        if record is None:
            raise TransactionError(f"transfer of unknown gateway {txn.gateway}")
        if record.owner != txn.seller:
            raise TransactionError(
                f"transfer seller {txn.seller} does not own {txn.gateway}"
            )
        if txn.amount_dc > 0:
            buyer = self.wallet(txn.buyer)
            if buyer.dc < txn.amount_dc:
                raise InsufficientFunds(
                    f"buyer {txn.buyer} has {buyer.dc} DC, sale needs {txn.amount_dc}"
                )
            buyer.dc -= txn.amount_dc
            self.wallet(txn.seller).dc += txn.amount_dc
        self._charge_dc(txn.seller, txn.fee_dc, "transfer fee")
        record.owner = txn.buyer

    def _apply_poc_request(self, txn: PocRequest, height: int) -> None:
        if txn.challenger not in self.hotspots:
            raise TransactionError(f"poc_request from unknown hotspot {txn.challenger}")

    def _apply_poc_receipts(self, txn: PocReceipts, height: int) -> None:
        if txn.challengee not in self.hotspots:
            raise TransactionError(f"poc_receipts for unknown hotspot {txn.challengee}")

    def _apply_sc_open(self, txn: StateChannelOpen, height: int) -> None:
        if txn.channel_id in self.open_channels:
            raise StateChannelError(f"state channel already open: {txn.channel_id}")
        if self.ouis.get(txn.oui) != txn.owner:
            raise StateChannelError(
                f"{txn.owner} does not own OUI {txn.oui}; cannot open channel"
            )
        if not (
            self.vars.state_channel_min_expire_blocks
            <= txn.expire_within_blocks
            <= self.vars.state_channel_max_expire_blocks
        ):
            raise StateChannelError(
                f"state channel expiry {txn.expire_within_blocks} outside "
                f"[{self.vars.state_channel_min_expire_blocks}, "
                f"{self.vars.state_channel_max_expire_blocks}]"
            )
        wallet = self.wallet(txn.owner)
        if wallet.dc < txn.amount_dc:
            raise InsufficientFunds(
                f"router {txn.owner} has {wallet.dc} DC, stake needs {txn.amount_dc}"
            )
        wallet.dc -= txn.amount_dc
        self.open_channels[txn.channel_id] = ChannelState(
            channel_id=txn.channel_id,
            owner=txn.owner,
            oui=txn.oui,
            amount_dc=txn.amount_dc,
            open_block=height,
            expire_block=height + txn.expire_within_blocks,
        )

    def _apply_sc_close(self, txn: StateChannelClose, height: int) -> None:
        channel = self.open_channels.get(txn.channel_id)
        if channel is None:
            raise StateChannelError(f"close of unknown/closed channel {txn.channel_id}")
        if channel.owner != txn.owner:
            raise StateChannelError(
                f"channel {txn.channel_id} owned by {channel.owner}, "
                f"close attempted by {txn.owner}"
            )
        spent = txn.total_dcs
        if spent > channel.amount_dc:
            raise StateChannelError(
                f"channel {txn.channel_id} overspent: {spent} > {channel.amount_dc}"
            )
        # Spent DC are burned; unspent DC return to the router (§3).
        self.total_dc_burned += spent
        self.wallet(txn.owner).dc += channel.amount_dc - spent
        del self.open_channels[txn.channel_id]

    def _apply_payment(self, txn: Payment, height: int) -> None:
        payer = self.wallet(txn.payer)
        if payer.hnt_bones < txn.amount_bones:
            raise InsufficientFunds(
                f"{txn.payer} has {payer.hnt_bones} bones, "
                f"payment needs {txn.amount_bones}"
            )
        self._charge_dc(txn.payer, txn.fee_dc, "payment fee")
        payer.hnt_bones -= txn.amount_bones
        self.wallet(txn.payee).hnt_bones += txn.amount_bones

    def _apply_token_burn(self, txn: TokenBurn, height: int) -> None:
        payer = self.wallet(txn.payer)
        if payer.hnt_bones < txn.amount_bones:
            raise InsufficientFunds(
                f"{txn.payer} has {payer.hnt_bones} bones, "
                f"burn needs {txn.amount_bones}"
            )
        payer.hnt_bones -= txn.amount_bones
        usd_value = units.bones_to_hnt(txn.amount_bones) * self.oracle_price_usd
        self.wallet(txn.payee).dc += units.usd_to_dc(usd_value)

    def _apply_oui(self, txn: OuiRegistration, height: int) -> None:
        if txn.oui in self.ouis:
            raise TransactionError(f"OUI {txn.oui} already registered")
        self._charge_dc(txn.owner, txn.fee_dc, "OUI fee")
        self.ouis[txn.oui] = txn.owner

    def _apply_rewards(self, txn: Rewards, height: int) -> None:
        for share in txn.shares:
            self.wallet(share.account).hnt_bones += share.amount_bones
            self.total_hnt_minted_bones += share.amount_bones

    _HANDLERS = {
        AddGateway: _apply_add_gateway,
        AssertLocation: _apply_assert_location,
        TransferHotspot: _apply_transfer,
        PocRequest: _apply_poc_request,
        PocReceipts: _apply_poc_receipts,
        StateChannelOpen: _apply_sc_open,
        StateChannelClose: _apply_sc_close,
        Payment: _apply_payment,
        TokenBurn: _apply_token_burn,
        OuiRegistration: _apply_oui,
        Rewards: _apply_rewards,
    }

    # -- queries -----------------------------------------------------------

    def hotspots_of(self, owner: Address) -> List[HotspotRecord]:
        """All hotspots currently owned by ``owner``."""
        return [r for r in self.hotspots.values() if r.owner == owner]

    def owner_counts(self) -> Dict[Address, int]:
        """Map owner wallet → number of hotspots currently owned."""
        counts: Dict[Address, int] = {}
        for record in self.hotspots.values():
            counts[record.owner] = counts.get(record.owner, 0) + 1
        return counts

    def location_of(self, gateway: Address) -> Optional[str]:
        """Current asserted location token of a hotspot, if any."""
        record = self.hotspots.get(gateway)
        return record.location_token if record else None

    @property
    def hotspot_count(self) -> int:
        """Number of hotspots ever added to the chain."""
        return len(self.hotspots)
