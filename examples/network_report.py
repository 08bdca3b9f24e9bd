#!/usr/bin/env python3
"""Network report: a DeWi-style state-of-the-network dashboard.

Composes the whole analysis suite into the kind of periodic report the
Decentralized Wireless Alliance publishes: growth, ownership, traffic,
meta-infrastructure risk, and incentive health, each with the paper's
benchmark beside it.

Run with::

    python examples/network_report.py            # fast, test scale
    python examples/network_report.py --paper    # full 1/10-scale replica
"""

import sys

from repro import SimulationEngine, result_store
from repro.core.analysis.chainstats import chain_stats
from repro.core.analysis.growth import growth_curves, snapshot
from repro.core.analysis.meta import isp_ranking, tos_exposure
from repro.core.analysis.ownership import ownership_stats
from repro.core.analysis.relays import relay_stats
from repro.core.analysis.resale import resale_stats
from repro.core.analysis.traffic import channel_share, traffic_series
from repro.scenarios import resolve


def main() -> None:
    use_paper = "--paper" in sys.argv
    if use_paper:
        config = resolve("paper").config
    else:
        config = resolve("small", seed=3).config
    print(f"building {'paper' if use_paper else 'small'} scenario...")
    result = SimulationEngine(config).run()
    store = result_store(result)
    scale = config.scale_factor

    print("\n=== THE PEOPLE'S NETWORK — STATE OF THE NETWORK ===\n")

    census = chain_stats(store, config.poc_thinning_factor)
    print(f"chain: {census.total_transactions:,} txns, "
          f"{census.poc_share_descaled:.1%} PoC (paper 99.2%)")

    curves = growth_curves(store, result.growth_log)
    final = snapshot(curves, len(curves.days) - 1)
    print(f"fleet: {final.connected:,} connected / {final.online:,} online "
          f"(≈{final.connected / scale:,.0f} / {final.online / scale:,.0f} "
          "descaled; paper 44k/34k)")
    print(f"  US {final.online_us:,} vs international "
          f"{final.online_international:,}")

    owners = ownership_stats(store)
    print(f"owners: {owners.n_owners:,}; "
          f"{owners.at_most_three_fraction:.1%} own ≤3 (paper 83.7%); "
          f"largest fleet {owners.max_owned}")

    resale = resale_stats(store)
    print(f"resale: {resale.total_transfers} transfers, "
          f"{resale.zero_dc_fraction:.1%} settled off-chain (paper 95.8%)")

    share = channel_share(store)
    series = traffic_series(store)
    print(f"traffic: {series.final_packets_per_second():.1f} pkt/s aggregate "
          f"(paper ~14); Console holds {share.console_share:.1%} of channels "
          "(paper 81.2%)")

    relays = relay_stats(result.peerbook)
    print(f"p2p: {relays.relayed_fraction:.1%} of peers relayed "
          f"(paper 55.5%); busiest relay carries "
          f"{relays.max_peers_per_relay} peers")

    ranking = isp_ranking(result.peerbook, result.world.isps, top_n=5)
    top = ", ".join(f"{org} ({count})" for org, count in ranking.rows)
    print(f"backhaul: top ISPs {top}")
    us_peers = {g for g, h in result.world.hotspots.items() if h.in_us}
    risk = tos_exposure(result.peerbook, result.world.isps, us_peers)
    print(f"risk: {risk.us_fraction_at_risk:.1%} of US hotspots ride on "
          f"{risk.org}'s residential ToS (paper ≥17%)")


if __name__ == "__main__":
    main()
