#!/usr/bin/env python3
"""Quickstart: build a synthetic Helium history and ask it questions.

Runs the fast test-scale scenario (~700 hotspots, 180 compressed days),
then walks through the library's three layers: raw queries of the
chain's ETL replica, the packaged analyses, and a full experiment
reproduction.

Run with::

    python examples/quickstart.py
"""

from repro import SimulationEngine, format_report, result_store, run_experiment
from repro.core.analysis.chainstats import chain_stats
from repro.core.analysis.ownership import ownership_stats
from repro.core.explorer import Explorer
from repro.scenarios import resolve


def main() -> None:
    # 1. Generate a network history. Everything is seeded: the same
    #    scenario always produces the same chain, bit for bit.
    config = resolve("small", seed=42).config
    result = SimulationEngine(config).run()
    # The chain's ETL replica: typed tables, like the DeWi database the
    # paper queried. Every analysis reads it.
    store = result_store(result)

    print(f"simulated {config.n_days} days "
          f"({len(result.world.hotspots)} hotspots, "
          f"{sum(store.transaction_counts().values()):,} transactions)\n")

    # 2. Raw replica access: query the chain's history and state.
    moves = [nonce for *_, nonce in store.assert_rows() if nonce > 1]
    transfers = list(store.transfer_rows())
    print(f"relocations on chain: {len(moves)}")
    print(f"hotspot resales on chain: {len(transfers)}")
    gateway, _, _ = store.hotspot_rows()[0]
    hotspot = Explorer.from_store(store).hotspot(gateway)
    print(f"a hotspot: '{hotspot.name}' owned by {hotspot.owner[:16]}…\n")

    # 3. Packaged analyses: the paper's measurements as functions.
    census = chain_stats(store, poc_thinning_factor=config.poc_thinning_factor)
    print(f"PoC share of chain (descaled): {census.poc_share_descaled:.1%} "
          "(paper: 99.2%)")
    owners = ownership_stats(store)
    print(f"owners with one hotspot: {owners.one_hotspot_fraction:.1%} "
          "(paper: 62.1%)\n")

    # 4. Full experiment reproduction with paper-vs-measured rows.
    report = run_experiment("fig02", result)
    print(format_report(report))


if __name__ == "__main__":
    main()
