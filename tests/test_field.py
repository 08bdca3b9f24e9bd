"""Field-experiment harness tests (counter app, walks, reconciliation)."""

import tracemalloc

import pytest
from numpy.random import default_rng

from repro.errors import AnalysisError, SimulationError
from repro.field.counter_app import CounterAppExperiment
from repro.field.reconcile import (
    ack_table,
    hip15_accuracy,
    miss_run_stats,
    prr,
)
from repro.field.walks import WalkExperiment, generate_walk
from repro.geo.geodesy import LatLon, destination
from repro.lorawan.network import NetworkHotspot, TransmissionRecord


def _field(n=6, center=LatLon(32.75, -117.15)):
    return [
        NetworkHotspot(f"hs_{i}", destination(center, 60.0 * i, 0.3 + 0.1 * i))
        for i in range(n)
    ]


def _record(fcnt, delivered, acked=False, nearest=0.2):
    return TransmissionRecord(
        fcnt=fcnt, sent_at_s=float(fcnt), device_location=LatLon(32.75, -117.15),
        delivered_to_cloud=delivered, acked=acked, nearest_hotspot_km=nearest,
    )


class TestCounterApp:
    def test_best_case_prr_in_paper_band(self, rng):
        experiment = CounterAppExperiment(_field(), LatLon(32.75, -117.15))
        result = experiment.run(rng, duration_hours=1.0)
        assert result.packets_sent > 1000  # ~1.1–2.1 s cadence
        # §8.1 band: around 0.65–0.85 in the best case.
        assert 0.60 <= result.prr <= 0.90

    def test_outages_depress_prr(self, rng):
        experiment = CounterAppExperiment(_field(), LatLon(32.75, -117.15))
        result = experiment.run(
            rng, duration_hours=2.0, outages=[(0.5, 1.5)]
        )
        assert result.prr < result.prr_excluding_outages()

    def test_needs_hotspots(self):
        with pytest.raises(SimulationError):
            CounterAppExperiment([], LatLon(0, 1))

    def test_memory_per_uplink_is_bounded(self):
        # A 24 h run sends ~56k uplinks, so what each one leaves behind
        # sets the peak memory of a reproduction. What stays is the
        # device's SD-card log row and the cloud-log entry (~250 B under
        # tracemalloc); a per-uplink history on top of them (a record,
        # a delivery report: several hundred bytes each) fails.
        def peak(hours):
            tracemalloc.start()
            try:
                result = CounterAppExperiment(
                    _field(), LatLon(32.75, -117.15)
                ).run(default_rng(12345), duration_hours=hours)
                return tracemalloc.get_traced_memory()[1], result.packets_sent
            finally:
                tracemalloc.stop()

        (short_peak, short_sent), (long_peak, long_sent) = peak(0.5), peak(2.0)
        per_uplink = (long_peak - short_peak) / (long_sent - short_sent)
        assert per_uplink < 300


class TestWalks:
    def test_trace_timing_monotone(self, rng):
        trace = generate_walk(LatLon(32.75, -117.15), rng, n_legs=10)
        times = [t for t, _ in trace.points]
        assert times == sorted(times)
        assert trace.duration_s > 0

    def test_position_interpolation(self, rng):
        trace = generate_walk(LatLon(32.75, -117.15), rng, n_legs=4)
        t0, p0 = trace.points[0]
        t1, p1 = trace.points[1]
        mid = trace.position_at((t0 + t1) / 2)
        assert p0.distance_km(mid) < p0.distance_km(p1)
        # Before start and past end clamp.
        assert trace.position_at(-5.0) == p0
        assert trace.position_at(trace.duration_s + 100) == trace.points[-1][1]

    def test_walk_experiment_runs(self, rng):
        experiment = WalkExperiment(_field())
        trace = generate_walk(LatLon(32.75, -117.15), rng, n_legs=4)
        result = experiment.run(trace, rng)
        assert result.packets_sent > 50
        assert 0.0 <= result.prr <= 1.0

    def test_walk_needs_legs(self, rng):
        with pytest.raises(SimulationError):
            generate_walk(LatLon(0, 1), rng, n_legs=0)


class TestReconcile:
    def test_prr(self):
        records = [_record(i, i % 2 == 0) for i in range(10)]
        assert prr(records) == pytest.approx(0.5)
        with pytest.raises(AnalysisError):
            prr([])

    def test_miss_runs(self):
        # pattern: ok, miss, ok, miss, miss, ok, miss*3
        pattern = [True, False, True, False, False, True, False, False, False]
        records = [_record(i, ok) for i, ok in enumerate(pattern)]
        stats = miss_run_stats(records)
        assert stats.total_misses == 6
        assert stats.runs == {1: 1, 2: 1, 3: 1}
        assert stats.single_miss_fraction == pytest.approx(1 / 6)
        assert stats.single_or_double_fraction == pytest.approx(3 / 6)
        assert stats.longest_run == 3

    def test_miss_runs_no_misses(self):
        records = [_record(i, True) for i in range(5)]
        stats = miss_run_stats(records)
        assert stats.total_misses == 0
        assert stats.longest_run == 0

    def test_ack_table(self):
        records = [
            _record(0, True, acked=True),    # correct ACK
            _record(1, True, acked=False),   # incorrect NACK
            _record(2, False, acked=False),  # correct NACK
        ]
        table = ack_table(records)
        assert table.correct_ack == 1
        assert table.incorrect_nack == 1
        assert table.correct_nack == 1
        assert table.incorrect_ack == 0
        fractions = table.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_hip15_accuracy(self):
        records = [
            _record(0, True, nearest=0.1),    # inside, received ✓
            _record(1, False, nearest=0.2),   # inside, missed ✗
            _record(2, False, nearest=1.0),   # outside, missed ✓
            _record(3, True, nearest=2.0),    # outside, received ✗
        ]
        accuracy = hip15_accuracy(records)
        assert accuracy.packets_inside == 2
        assert accuracy.packets_outside == 2
        assert accuracy.inside_received_fraction == pytest.approx(0.5)
        assert accuracy.outside_missed_fraction == pytest.approx(0.5)
