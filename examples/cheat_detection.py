#!/usr/bin/env python3
"""Cheat detection: re-run the paper's §7 forensics on a chain you control.

The paper found "Joyful Pink Skunk" (a silent mover earning rewards from
the wrong state) and witnesses claiming billion-dBm RSSIs. Because our
chain is synthetic, we know the ground truth — so this example goes one
step further than the paper could: it scores the chain-only detectors'
precision and recall, and totals how much HNT the cheats actually earned.

Run with::

    python examples/cheat_detection.py
"""

from repro import SimulationEngine, result_store
from repro.core.analysis.incentives import (
    cheater_rewards,
    find_rssi_anomalies,
    find_silent_movers,
)
from repro.poc.cheats import GossipClique, RssiLiar, SilentMover
from repro.scenarios import resolve


def main() -> None:
    result = SimulationEngine(resolve("small", seed=97).config).run()
    store = result_store(result)  # the chain's ETL replica
    world = result.world

    truth = {"silent_mover": set(), "rssi_liar": set(), "gossip": set()}
    for gateway, hotspot in world.hotspots.items():
        if isinstance(hotspot.cheat, SilentMover):
            truth["silent_mover"].add(gateway)
        elif isinstance(hotspot.cheat, RssiLiar):
            truth["rssi_liar"].add(gateway)
        elif isinstance(hotspot.cheat, GossipClique):
            truth["gossip"].add(gateway)
    print("injected cheats:",
          {k: len(v) for k, v in truth.items()}, "\n")

    # --- Silent movers (§7.1): impossible witness geometry -------------
    findings = find_silent_movers(store)
    flagged = {f.gateway for f in findings}
    hits = flagged & truth["silent_mover"]
    print(f"silent-mover detector: flagged {len(flagged)}, "
          f"precision {len(hits) / len(flagged):.0%}" if flagged
          else "silent-mover detector: flagged 0")
    for finding in findings[:3]:
        print(f"  '{finding.name}': asserted "
              f"({finding.asserted_location.lat:.2f}, "
              f"{finding.asserted_location.lon:.2f}) but witnessing "
              f"{finding.contradiction_km:,.0f} km away "
              f"({finding.contradictory_witness_events} events; "
              f"{'still rewarded!' if finding.still_rewarded else 'unrewarded'})")

    # --- RSSI liars (§7.2): impossible power levels ----------------------
    anomalies = find_rssi_anomalies(store)
    print(f"\nimpossible-RSSI reports: {len(anomalies)}")
    if anomalies:
        top = anomalies[0]
        print(f"  worst: '{top.name}' claimed {top.rssi_dbm:,.0f} dBm "
              f"(legal max +36 dBm EIRP); "
              f"{'PASSED validity!' if top.passed_validity else 'rejected'}")

    # --- Did cheating pay? ------------------------------------------------
    cheat_gateways = sorted(truth["silent_mover"] | truth["gossip"])
    if cheat_gateways:
        rewards = cheater_rewards(store, cheat_gateways)
        total = sum(rewards.values())
        paid = sum(1 for v in rewards.values() if v > 0)
        print(f"\ncheater earnings: {paid}/{len(cheat_gateways)} cheats "
              f"earned rewards, {total:,.1f} HNT total")
        print("matches the paper's takeaway: the incentive heuristics do "
              "not stop informed cheaters.")


if __name__ == "__main__":
    main()
