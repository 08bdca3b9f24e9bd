#!/usr/bin/env python3
"""Coverage audit: how much of the US does the network actually cover?

Reproduces the paper's §8.2.1 modelling arc end to end — dot map, 300 m
disks, witness hulls, the 25 km cutoff, and the revised radial+RSSI
model — then scores each model against radio ground truth (something
only a simulation can do): for random landmass points, does predicted
coverage match whether a real transmission from that point gets through?

Run with::

    python examples/coverage_audit.py
"""

import numpy as np

from repro import SimulationEngine, result_store
from repro.core.coverage import (
    DiskModel,
    ExplorerDotMap,
    HullModel,
    RevisedModel,
    build_witness_geometry,
)
from repro.geo.hexgrid import HexCell
from repro.geo.landmass import CONTIGUOUS_US
from repro.radio.propagation import LinkBudget, PropagationModel
from repro.rng import RngHub
from repro.scenarios import resolve


def main() -> None:
    result = SimulationEngine(resolve("small", seed=5).config).run()
    hub = RngHub(777)
    landmass = CONTIGUOUS_US
    scale = result.config.scale_factor

    def locate(token):
        point = HexCell.from_token(token).center()
        return None if point.is_null_island() else point

    us_online, us_offline = [], []
    for hotspot in result.world.hotspots.values():
        loc = hotspot.asserted_location
        if loc is None or not landmass.contains(loc):
            continue
        (us_online if hotspot.online else us_offline).append(loc)

    geometries = build_witness_geometry(
        result_store(result).valid_witness_receipts(), locate
    )

    dots = ExplorerDotMap(us_online, us_offline)
    print(f"explorer view: {dots.n_online} green dots, {dots.n_offline} red "
          "— but dots are not coverage (Fig. 12a)\n")

    models = [
        DiskModel(us_online),
        HullModel(geometries),
        HullModel(geometries, max_witness_km=25.0),
        RevisedModel(geometries),
    ]
    print(f"{'model':>22}  {'shapes':>7}  {'US coverage':>12}  {'descaled':>9}")
    fitted = []
    for model in models:
        estimate = model.landmass_fraction(
            landmass, hub.stream(f"area-{model.name}"), scale_factor=scale
        )
        fitted.append((model, estimate))
        print(f"{model.name:>22}  {estimate.n_shapes:>7}  "
              f"{estimate.landmass_fraction:>11.5%}  "
              f"{estimate.descaled_fraction or 0:>8.4%}")

    # Ground truth: sample sites near the deployment, test each model's
    # prediction against an actual radio link to the nearest hotspot.
    rng = hub.stream("truth")
    sites = []
    for hotspot in result.world.online_hotspots()[:40]:
        if landmass.contains(hotspot.actual_location):
            sites.append(hotspot.actual_location.offset(
                float(rng.uniform(0, 360)), float(rng.uniform(0.05, 3.0))
            ))
    print(f"\nprediction accuracy over {len(sites)} near-deployment sites:")
    for model, _ in fitted:
        correct = 0
        for site in sites:
            predicted = model.covers(site)
            nearby = result.world.index.within_radius(site, 5.0)
            heard = False
            for point, hs in nearby:
                if not hs.online:
                    continue
                link = PropagationModel(hs.environment, LinkBudget(tx_power_dbm=20.0))
                if link.reception_probability(max(site.distance_km(point), 0.01)) > 0.5:
                    heard = True
                    break
            correct += 1 if predicted == heard else 0
        print(f"  {model.name:>22}: {correct / len(sites):.0%}")
    print("\nmatches §8.2: every incentive-derived model is imperfect — "
          "geography-blind incentives make coverage unpredictable.")


if __name__ == "__main__":
    main()
