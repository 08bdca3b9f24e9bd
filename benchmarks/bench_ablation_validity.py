"""Ablation: witness-validity heuristics on/off (§7.2 design choice).

Re-judges every witness report on the chain (read from its ETL
replica) under three checkers —
default, RSSI-heuristics disabled, and strict — quantifying how much
work the RSSI rules actually do (and that informed forgeries slip
through all of them, the paper's takeaway).
"""

from repro.geo.hexgrid import HexCell
from repro.poc.validity import WitnessValidityChecker
from repro.radio.lora import US915


def _judge(store, checker):
    """(accepted, total) over every witness report on the chain."""
    accepted = 0
    total = 0
    for challengee_token, witness_token, rssi, frequency in (
        store.witness_report_rows()
    ):
        witness_cell = HexCell.from_token(witness_token)
        verdict = checker.check(
            challengee_location=HexCell.from_token(challengee_token).center(),
            witness_location=witness_cell.center(),
            witness_cell=witness_cell,
            rssi_dbm=rssi,
            freq_mhz=frequency,
            channel_index=US915.channel_index(frequency),
        )
        accepted += verdict.is_valid
        total += 1
    return accepted, total


def test_bench_ablation_validity(benchmark, store):
    default_checker = WitnessValidityChecker()
    no_rssi = WitnessValidityChecker(
        rssi_margin_db=1e9, rssi_floor_dbm=-1e12
    )
    strict = WitnessValidityChecker(rssi_margin_db=6.0)

    accepted_default, total = benchmark(_judge, store, default_checker)
    accepted_no_rssi, _ = _judge(store, no_rssi)
    accepted_strict, _ = _judge(store, strict)

    # Disabling the RSSI rules accepts strictly more reports (including
    # the billion-dBm absurdities); a strict margin rejects more honest
    # outliers — the brittleness the paper warns about.
    assert accepted_no_rssi >= accepted_default >= accepted_strict
    assert accepted_no_rssi > accepted_strict
    assert total > 0
