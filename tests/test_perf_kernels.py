"""Property tests: vectorised kernels match their scalar references.

The perf work (batch geodesy/radio kernels, vectorised PoC witness loop,
batched coverage Monte Carlo) is only admissible if it is *equivalent*:
same numbers, same RNG stream consumption, same verdicts. Hypothesis
drives the kernel-level checks; the challenge/coverage checks replay the
scalar twins in ``tests/reference_twins.py`` against the vectorised
paths with the same seed.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageModel, Disk, HullShape
from repro.geo.geodesy import (
    LatLon,
    destination,
    destination_many,
    haversine_km,
    haversine_km_many,
)
from repro.geo.landmass import CONTIGUOUS_US
from repro.geo.polygon import convex_hull
from repro.poc.challenge import PocParticipant, run_challenge
from repro.poc.cheats import GossipClique, RssiLiar, SilentMover
from repro.radio.propagation import (
    Environment,
    LinkBudget,
    PropagationModel,
    sample_link_rssi_dbm_many,
)

from tests.reference_twins import (
    landmass_fraction_reference,
    run_challenge_reference,
    union_area_km2_reference,
)

lat_st = st.floats(min_value=-85.0, max_value=85.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)
dist_st = st.floats(min_value=0.0, max_value=500.0)
bearing_st = st.floats(min_value=0.0, max_value=360.0)


class TestGeodesyKernels:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(lat_st, lon_st, lat_st, lon_st),
                    min_size=1, max_size=30))
    def test_haversine_many_matches_scalar(self, quads):
        lat1, lon1, lat2, lon2 = (np.array(c) for c in zip(*quads))
        batch = haversine_km_many(lat1, lon1, lat2, lon2)
        for i, (a, b, c, d) in enumerate(quads):
            assert batch[i] == pytest.approx(haversine_km(a, b, c, d), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(lat_st, lon_st, bearing_st, dist_st),
                    min_size=1, max_size=30))
    def test_destination_many_matches_scalar(self, quads):
        lat, lon, bearing, dist = (np.array(c) for c in zip(*quads))
        out_lat, out_lon = destination_many(lat, lon, bearing, dist)
        for i, (a, b, c, d) in enumerate(quads):
            point = destination(LatLon(a, b), c, d)
            assert out_lat[i] == pytest.approx(point.lat, abs=1e-9)
            # Longitudes may legitimately differ by the full wrap.
            dlon = abs(out_lon[i] - point.lon)
            assert min(dlon, 360.0 - dlon) == pytest.approx(0.0, abs=1e-9)


class TestRadioKernels:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-4, max_value=300.0),
                st.sampled_from(list(Environment)),
                st.floats(min_value=0.0, max_value=12.0),
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_sample_link_rssi_matches_scalar_loop(self, links, seed):
        distances = np.array([d for d, _, _ in links])
        envs = [e for _, e, _ in links]
        gains = np.array([g for _, _, g in links])

        batch = sample_link_rssi_dbm_many(
            distances, envs, gains, np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        for i, (d, env, gain) in enumerate(links):
            model = PropagationModel(env, LinkBudget(antenna_gain_dbi=gain))
            assert batch[i] == pytest.approx(
                model.sample_rssi_dbm(d, rng), abs=1e-9
            )

    def test_empty_batch_consumes_no_randomness(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        out = sample_link_rssi_dbm_many(np.empty(0), [], np.empty(0), rng)
        assert out.size == 0
        assert rng.bit_generator.state == before


class TestShapeKernels:
    @settings(max_examples=25, deadline=None)
    @given(
        lat_st.filter(lambda v: abs(v) < 60),
        lon_st,
        st.floats(min_value=0.05, max_value=30.0),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_disk_sample_many_matches_scalar_stream(self, lat, lon, radius, seed):
        disk = Disk(LatLon(lat, lon), radius)
        lats, lons = disk.sample_many(np.random.default_rng(seed), 16)
        rng = np.random.default_rng(seed)
        for i in range(16):
            point = disk.sample(rng)
            assert lats[i] == pytest.approx(point.lat, abs=1e-9)
            assert lons[i] == pytest.approx(point.lon, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        lat_st.filter(lambda v: abs(v) < 60),
        lon_st,
        st.floats(min_value=0.05, max_value=30.0),
        st.lists(st.tuples(lat_st, lon_st), min_size=1, max_size=40),
    )
    def test_disk_contains_many_matches_scalar(self, lat, lon, radius, points):
        disk = Disk(LatLon(lat, lon), radius)
        lats, lons = (np.array(c) for c in zip(*points))
        batch = disk.contains_many(lats, lons)
        for i, (a, b) in enumerate(points):
            assert bool(batch[i]) == disk.contains(LatLon(a, b))

    def test_hull_sample_many_matches_scalar_stream(self):
        anchor = LatLon(39.0, -105.0)
        hull = HullShape(convex_hull([
            anchor,
            destination(anchor, 70.0, 9.0),
            destination(anchor, 160.0, 13.0),
            destination(anchor, 250.0, 6.0),
        ]))
        for seed in range(10):
            lats, lons = hull.sample_many(np.random.default_rng(seed), 24)
            rng = np.random.default_rng(seed)
            for i in range(24):
                point = hull.sample(rng)
                assert lats[i] == pytest.approx(point.lat, abs=1e-9)
                assert lons[i] == pytest.approx(point.lon, abs=1e-9)

    def test_hull_contains_many_matches_scalar(self):
        anchor = LatLon(39.0, -105.0)
        hull = HullShape(convex_hull([
            anchor,
            destination(anchor, 45.0, 10.0),
            destination(anchor, 180.0, 10.0),
        ]))
        rng = np.random.default_rng(11)
        lats = 39.0 + rng.uniform(-0.3, 0.3, size=200)
        lons = -105.0 + rng.uniform(-0.3, 0.3, size=200)
        batch = hull.contains_many(lats, lons)
        for i in range(200):
            assert bool(batch[i]) == hull.contains(LatLon(lats[i], lons[i]))


def _dense_model(seed: int, n_shapes: int = 60) -> CoverageModel:
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(n_shapes):
        center = LatLon(
            float(rng.uniform(36.0, 41.0)), float(rng.uniform(-104.0, -98.0))
        )
        if rng.random() < 0.5:
            shapes.append(Disk(center, float(rng.uniform(0.3, 15.0))))
        else:
            shapes.append(HullShape(convex_hull([
                destination(center, float(rng.uniform(0, 360)),
                            float(rng.uniform(1.0, 12.0)))
                for _ in range(5)
            ])))
    return CoverageModel(shapes)


class TestCoverageEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_union_area_matches_reference(self, seed):
        model = _dense_model(seed)
        fast_total, fast_tags = model.union_area_km2(
            np.random.default_rng(seed + 100)
        )
        ref_total, ref_tags = union_area_km2_reference(
            model, np.random.default_rng(seed + 100)
        )
        assert fast_total == pytest.approx(ref_total, rel=1e-12)
        assert fast_tags.keys() == ref_tags.keys()
        for tag in ref_tags:
            assert fast_tags[tag] == pytest.approx(ref_tags[tag], rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_landmass_fraction_matches_reference(self, seed):
        model = _dense_model(seed)
        fast = model.landmass_fraction(
            CONTIGUOUS_US, np.random.default_rng(seed + 200), scale_factor=0.01
        )
        ref = landmass_fraction_reference(
            model, CONTIGUOUS_US, np.random.default_rng(seed + 200),
            scale_factor=0.01,
        )
        assert fast.landmass_fraction == pytest.approx(
            ref.landmass_fraction, rel=1e-12
        )
        assert fast.union_area_km2 == pytest.approx(
            ref.union_area_km2, rel=1e-12
        )
        assert fast.descaled_fraction == pytest.approx(
            ref.descaled_fraction, rel=1e-12
        )
        assert sorted(fast.breakdown_km2) == sorted(ref.breakdown_km2)


def _eager_bins(shapes, bin_deg: float = 0.25):
    """The oracle for the lazy index: every shape registered up front in
    every bin its bounding box spans, in ascending shape index."""
    bins = {}
    for index, shape in enumerate(shapes):
        south, west, north, east = shape.bbox()
        for lat_bin in range(
            math.floor(south / bin_deg), math.floor(north / bin_deg) + 1
        ):
            for lon_bin in range(
                math.floor(west / bin_deg), math.floor(east / bin_deg) + 1
            ):
                bins.setdefault((lat_bin, lon_bin), []).append(index)
    return bins


def _mixed_shapes(rng: np.random.Generator, kinds):
    """Disks, local hulls and continent-spanning hulls over the US."""
    shapes = []
    for kind in kinds:
        center = LatLon(
            float(rng.uniform(25.0, 49.0)), float(rng.uniform(-124.0, -67.0))
        )
        if kind == "disk":
            shapes.append(Disk(center, float(rng.uniform(0.3, 40.0))))
            continue
        reach = 1500.0 if kind == "continent" else 60.0
        shapes.append(HullShape(convex_hull([
            destination(center, float(rng.uniform(0, 360)),
                        float(rng.uniform(0.2, 1.0)) * reach)
            for _ in range(6)
        ])))
    return shapes


class TestLazyBinIndex:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["disk", "hull", "continent"]),
            min_size=1, max_size=25,
        ).filter(lambda kinds: kinds.count("continent") <= 2),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_eager_oracle(self, kinds, seed):
        rng = np.random.default_rng(seed)
        shapes = _mixed_shapes(rng, kinds)
        eager = _eager_bins(shapes)
        model = CoverageModel(shapes)
        samples = [s.sample_many(rng, 8) for s in shapes]
        lats = np.concatenate(
            [lat for lat, _ in samples] + [rng.uniform(20.0, 55.0, 200)]
        )
        lons = np.concatenate(
            [lon for _, lon in samples] + [rng.uniform(-130.0, -60.0, 200)]
        )

        def oracle(indices):
            owners = []
            for i in indices:
                key = (math.floor(lats[i] / 0.25), math.floor(lons[i] / 0.25))
                owners.append(next(
                    (s for s in eager.get(key, [])
                     if shapes[s].contains_many(lats[i:i + 1], lons[i:i + 1])[0]),
                    -1,
                ))
            return owners

        # Half the points build their bins through the batch query,
        # the rest through the scalar lookup; each path then reads
        # bins the other built.
        half = lats.size // 2
        batch, scalar = np.arange(half), np.arange(half, lats.size)
        assert model.first_covering_many(
            lats[batch], lons[batch]
        ).tolist() == oracle(batch)
        for i in range(lats.size):
            key = (math.floor(lats[i] / 0.25), math.floor(lons[i] / 0.25))
            assert model._index.candidates(
                LatLon(float(lats[i]), float(lons[i]))
            ) == eager.get(key, [])
        assert model.first_covering_many(
            lats[scalar], lons[scalar]
        ).tolist() == oracle(scalar)

    def test_index_holds_no_bins_before_a_query(self):
        # 50 hulls, each with a bounding box of about 10° × 20°:
        # registering every 0.25° bin they span takes ~160k entries.
        rng = np.random.default_rng(3)
        shapes = []
        for _ in range(50):
            center = LatLon(
                float(rng.uniform(58.0, 62.0)),
                float(rng.uniform(-120.0, -80.0)),
            )
            shapes.append(HullShape(convex_hull([
                destination(center, bearing, 550.0)
                for bearing in (0.0, 90.0, 180.0, 270.0)
            ])))
        tracemalloc.start()
        try:
            model = CoverageModel(shapes)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(model.shapes) == 50
        assert held < 1 << 20

    @pytest.mark.parametrize("radius_km", [float("nan"), float("inf")])
    def test_non_finite_bbox_rejected(self, radius_km):
        with pytest.raises((ValueError, OverflowError)):
            CoverageModel([Disk(LatLon(40.0, -100.0), radius_km)])


def _challenge_cluster(rng: np.random.Generator):
    center = LatLon(
        float(rng.uniform(30.0, 45.0)), float(rng.uniform(-120.0, -75.0))
    )
    participants = []
    clique = GossipClique(clique_id=9)
    for i in range(12):
        location = destination(
            center, float(rng.uniform(0, 360)), float(rng.uniform(0.05, 18.0))
        )
        cheat = None
        roll = rng.random()
        if roll < 0.15:
            cheat = RssiLiar(inflation_db=25.0, absurd_probability=0.05)
        elif roll < 0.25:
            cheat = SilentMover()
        elif roll < 0.35:
            cheat = clique
        participant = PocParticipant(
            gateway=f"hs_{i}",
            owner=f"wal_{i}",
            asserted_location=location,
            actual_location=(
                destination(location, 90.0, 400.0)
                if isinstance(cheat, SilentMover) else location
            ),
            environment=list(Environment)[int(rng.integers(len(Environment)))],
            antenna_gain_dbi=float(rng.uniform(1.2, 10.0)),
            online=bool(rng.random() > 0.1),
            cheat=cheat,
        )
        if cheat is clique:
            clique.members.add(participant.gateway)
        participants.append(participant)
    return participants


class TestChallengeEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_vectorised_matches_reference(self, seed):
        setup = np.random.default_rng(seed)
        cluster = _challenge_cluster(setup)
        fast = run_challenge(
            cluster[1], cluster[0], cluster, np.random.default_rng(seed + 500)
        )
        ref = run_challenge_reference(
            cluster[1], cluster[0], cluster, np.random.default_rng(seed + 500)
        )
        assert fast.request == ref.request
        assert dataclasses.asdict(fast.receipts) == dataclasses.asdict(ref.receipts)
        assert dataclasses.asdict(fast.event) == dataclasses.asdict(ref.event)
        fast_distances = dict(fast.witness_actual_distances)
        ref_distances = dict(ref.witness_actual_distances)
        assert fast_distances.keys() == ref_distances.keys()
        for gateway, distance in ref_distances.items():
            assert fast_distances[gateway] == pytest.approx(distance, abs=1e-9)
