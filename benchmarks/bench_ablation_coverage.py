"""Ablation: coverage-model parameter sweep (§8.2.1 design choices).

Sweeps the HIP-15 disk radius and the witness-distance cutoff, verifying
the monotonicities the paper's modelling arc relies on: bigger disks and
looser cutoffs always report more coverage, so the *choice* of 300 m and
25 km is doing real work.
"""

import pytest

from repro.core.coverage import DiskModel, HullModel, build_witness_geometry
from repro.geo.hexgrid import HexCell
from repro.geo.landmass import CONTIGUOUS_US
from repro.rng import RngHub


def _locate(token):
    point = HexCell.from_token(token).center()
    return None if point.is_null_island() else point


def _sweep(result, store):
    rng = RngHub(99).stream("ablation")
    hotspots = [
        h.asserted_location for h in result.world.online_hotspots()
        if h.asserted_location is not None
        and CONTIGUOUS_US.contains(h.asserted_location)
    ]
    geometries = build_witness_geometry(store.valid_witness_receipts(), _locate)

    disk_fracs = {
        radius: DiskModel(hotspots, radius_km=radius)
        .landmass_fraction(CONTIGUOUS_US, rng).landmass_fraction
        for radius in (0.15, 0.3, 0.6)
    }
    hull_fracs = {
        cutoff: HullModel(geometries, max_witness_km=cutoff)
        .landmass_fraction(CONTIGUOUS_US, rng).landmass_fraction
        for cutoff in (10.0, 25.0, 50.0)
    }
    return disk_fracs, hull_fracs


def test_bench_ablation_coverage(benchmark, result, store):
    disk_fracs, hull_fracs = benchmark.pedantic(
        _sweep, args=(result, store), rounds=1, iterations=1
    )
    # Disk coverage is monotone in radius and roughly quadratic.
    assert disk_fracs[0.15] < disk_fracs[0.3] < disk_fracs[0.6]
    assert disk_fracs[0.6] / disk_fracs[0.15] == pytest.approx(16.0, rel=0.6)
    # Hull coverage is monotone in the cutoff: the 25 km choice sits
    # between a too-tight 10 km and an implausible 50 km.
    assert hull_fracs[10.0] <= hull_fracs[25.0] <= hull_fracs[50.0]
