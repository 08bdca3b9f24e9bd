#!/usr/bin/env python3
"""Meta-infrastructure risk audit: what does Helium itself depend on?

Section 6 and §9.1 of the paper ask what the "decentralized" network
centralises on: a handful of residential ISPs, relay nodes, and one cloud
router. This example runs the full audit against a simulated network —
ISP ranking, regional-outage what-ifs (the paper's LA-Spectrum scenario),
terms-of-service exposure, and the speculative economics (footnote 1's
payback claim) that keep the hotspots coming.

Run with::

    python examples/meta_infrastructure.py
"""

from repro import SimulationEngine, result_store
from repro.core.analysis.meta import isp_ranking, tos_exposure
from repro.core.analysis.outage import isp_outage_impact, worst_city_outages
from repro.core.analysis.rewards import (
    hotspot_earnings,
    payback_analysis,
    speculation_ratio,
)
from repro.core.explorer import Explorer
from repro.scenarios import resolve


def main() -> None:
    result = SimulationEngine(resolve("small", seed=21).config).run()
    world = result.world

    # --- who carries the traffic -------------------------------------------
    ranking = isp_ranking(result.peerbook, world.isps, top_n=5)
    print("top backhaul ISPs (Table 1 pipeline):")
    for rank, (org, count) in enumerate(ranking.rows, start=1):
        print(f"  #{rank} {org}: {count} hotspots")

    # --- the LA-Spectrum scenario, generalised ------------------------------
    peer_city = {g: h.city.name for g, h in world.hotspots.items()}
    peer_location = {
        g: h.asserted_location for g, h in world.hotspots.items()
        if h.asserted_location is not None
    }
    print("\nworst single-ISP city outages (the §6.1 scenario):")
    for impact in worst_city_outages(
        result.peerbook, world.isps, peer_city, peer_location,
        min_hotspots=4, top_n=3,
    ):
        print(f"  {impact.city}: {impact.org} outage drops "
              f"{impact.hotspots_down}/{impact.hotspots_in_scope} hotspots "
              f"({impact.down_fraction:.0%}; paper's LA example: 87%), "
              f"+{impact.relayed_collateral} relayed peers stranded")

    national = isp_outage_impact(
        result.peerbook, world.isps, peer_city, peer_location, org="Spectrum"
    )
    exposure_us = {g for g, h in world.hotspots.items() if h.in_us}
    tos = tos_exposure(result.peerbook, world.isps, exposure_us)
    print(f"\nnational Spectrum enforcement (§9.1): "
          f"{tos.us_fraction_at_risk:.1%} of US hotspots at risk "
          "(paper: ≥17%), all detectable on port 44158")
    print(f"  second-order: {national.relayed_collateral} relayed peers "
          "lose their circuit relay too")

    # --- why handlers keep deploying anyway ---------------------------------
    store = result_store(result)  # the chain's ETL replica
    earnings = hotspot_earnings(store)
    payback = payback_analysis(store, hnt_price_usd=15.0)
    ratio = speculation_ratio(store)
    print(f"\neconomics: median lifetime earnings "
          f"{earnings.median_hnt:.1f} HNT/hotspot; at $15/HNT the median "
          f"payback is {payback.median_payback_days:.0f} days "
          "(footnote 1: 'a few weeks')")
    print(f"  coverage-to-data reward ratio: {ratio:.0f}:1 — "
          "'more hotspot activity than user activity' (§5)")

    # --- drill into one hotspot, explorer-style -----------------------------
    explorer = Explorer.from_store(store)
    gateway = max(
        world.hotspots,
        key=lambda g: explorer.hotspot(g).packets_ferried,
    )
    page = explorer.hotspot(gateway)
    print(f"\nexplorer view of the busiest hotspot, '{page.name}':")
    print(f"  owner {page.owner[:16]}…, {page.packets_ferried:,} packets "
          f"ferried, {page.total_rewards_hnt:.1f} HNT earned, "
          f"{page.assert_count} location asserts")
    if page.recent_witnessed_by:
        event = page.recent_witnessed_by[-1]
        print(f"  last witnessed by '{event.counterparty_name}' at "
              f"{event.distance_km:.1f} km, {event.rssi_dbm:.0f} dBm")


if __name__ == "__main__":
    main()
