#!/usr/bin/env python3
"""Quickstart: build a synthetic Helium history and ask it questions.

Runs the fast test-scale scenario (~700 hotspots, 180 compressed days),
then walks through the library's three layers: raw chain queries, the
packaged analyses, and a full experiment reproduction.

Run with::

    python examples/quickstart.py
"""

from repro import SimulationEngine, run_experiment, format_report
from repro.chain.transactions import AssertLocation, TransferHotspot
from repro.core.analysis.chainstats import chain_stats
from repro.core.analysis.ownership import ownership_stats
from repro.scenarios import resolve


def main() -> None:
    # 1. Generate a network history. Everything is seeded: the same
    #    scenario always produces the same chain, bit for bit.
    config = resolve("small", seed=42).config
    result = SimulationEngine(config).run()
    chain = result.chain

    print(f"simulated {config.n_days} days "
          f"({len(result.world.hotspots)} hotspots, "
          f"{chain.total_transactions:,} transactions)\n")

    # 2. Raw chain access: iterate transactions like any chain explorer.
    moves = [
        (height, txn) for height, txn in chain.iter_transactions(AssertLocation)
        if txn.nonce > 1
    ]
    transfers = chain.transactions_of_kind(TransferHotspot)
    print(f"relocations on chain: {len(moves)}")
    print(f"hotspot resales on chain: {len(transfers)}")
    hotspot = next(iter(chain.ledger.hotspots.values()))
    print(f"a hotspot: '{hotspot.name}' owned by {hotspot.owner[:16]}…\n")

    # 3. Packaged analyses: the paper's measurements as functions.
    census = chain_stats(chain, poc_thinning_factor=config.poc_thinning_factor)
    print(f"PoC share of chain (descaled): {census.poc_share_descaled:.1%} "
          "(paper: 99.2%)")
    owners = ownership_stats(chain)
    print(f"owners with one hotspot: {owners.one_hotspot_fraction:.1%} "
          "(paper: 62.1%)\n")

    # 4. Full experiment reproduction with paper-vs-measured rows.
    report = run_experiment("fig02", result)
    print(format_report(report))


if __name__ == "__main__":
    main()
