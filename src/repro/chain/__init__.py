"""Helium-compatible blockchain substrate.

The paper's primary data source is "the history of all transactions on the
blockchain" (§3). This package implements that blockchain: the transaction
schema the paper analyses, a validating ledger state machine, 60-second
blocks, wallets, and the state-channel machinery behind payment-for-data.

The simulation layer (:mod:`repro.simulation`) *writes* this chain; the
ETL (:mod:`repro.etl`) follows it into the replica the analysis layer
(:mod:`repro.core`) *reads* — mirroring how the authors read the DeWi
ETL replica of the live chain.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.chain.blockchain": ["Blockchain"],
    "repro.chain.block": ["Block"],
    "repro.chain.crypto": ["Address", "Keypair"],
    "repro.chain.ledger": ["Ledger", "HotspotRecord", "WalletState"],
    "repro.chain.naming": ["hotspot_name"],
    "repro.chain.transactions": [
        "Transaction", "AddGateway", "AssertLocation", "TransferHotspot",
        "PocRequest", "PocReceipts", "WitnessReport", "StateChannelOpen",
        "StateChannelClose", "StateChannelSummary", "Payment", "TokenBurn",
        "OuiRegistration", "Rewards", "RewardShare", "RewardType",
    ],
    "repro.chain.varmap": ["ChainVars"],
})
