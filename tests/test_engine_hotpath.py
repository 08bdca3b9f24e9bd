"""Day-loop hot-path elimination: bit-identity against reference twins.

The repo keeps the pre-optimisation implementations in-tree
(``tests/reference_twins.py``) as equivalence oracles; the fast
paths hang off their phase classes as swappable ``staticmethod``
attributes (``OnlinePhase.impl``, ``TrafficPhase.ferry_impl``,
``PoCPhase.candidates_impl``). These tests assert the two strongest
forms of the contract:

* a full small-scenario run with every reference twin swapped in
  digests identically to the fast path (same chain, same world bytes);
* the fast-path digest equals the value pinned *before* the hot-path
  work landed — neither the optimisation nor the phase/WorldState
  decomposition changed anything.

The pinned digests also guard the process-independence fix: scenario
bytes used to depend on ``PYTHONHASHSEED`` through gossip-clique set
iteration, which these constants would catch regressing.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.snapshot import result_digest
from repro.scenarios import resolve
from repro.simulation import SimulationEngine
from repro.simulation.phases import OnlinePhase, PoCPhase, TrafficPhase
from repro.simulation.phases.online import update_online
from repro.simulation.phases.poc import candidates_for
from repro.simulation.phases.traffic import ferry_weights

from tests import reference_twins as reference

#: Captured on the pre-optimisation engine (PR 2 tree); neither the
#: hot-path rewrite nor the WorldState/phase refactor may move them.
SMALL_SEED7_DIGEST = (
    "d94b5c8e1d69e9e2bf4bef963b41f187041021b52d7a1364723e1cfe92d10eae"
)
SMALL_SEED2021_DIGEST = (
    "ffa4179f27dfcbc8b4a05aea6bc77ae8231f3bba89507cda7f7cb612d88c2b81"
)
#: Paper scale exercises the clique-append path that made pre-fix runs
#: hash-seed dependent; this is the canonical process-independent value
#: (asserted identical across engines and hash seeds when pinned).
PAPER_SEED2021_DIGEST = (
    "06362053669c000655d2fd886f50039c2318b4599d9896db44279dd48286f6cc"
)
#: The 10x scale tier (44k hotspots — the real network's size at the
#: paper's cutoff), pinned at its CI day cap and at full length.
PAPER10X_CAPPED120_DIGEST = (
    "6fd9220bb7f6b3c331f95e75dc4f99cbec3ae915eb2af476306356f131b4f80a"
)
PAPER10X_SEED2021_DIGEST = (
    "cbf5bf2f303b2d27f597fe7c438c6692149e3950cd26c782207cab9163b5be60"
)
#: The 100x tier (one million hotspots), pinned over the chain dump
#: bytes at day 300 of the real 667-day growth curve (~23k deployed —
#: the capped smoke exercises the tier's wiring and the chain log's
#: bounded-RSS envelope without the full multi-hour build).
MILLION_STOPPED300_CHAIN_SHA = (
    "8611aeed27a85901f118230807bf4013fac8ab5d3193463376ba2f2a5c0e0a54"
)


def _trimmed_config(seed: int = 123):
    config = resolve("small", seed=seed).config
    # Determinism and equivalence show up in any prefix; trim for speed.
    return dataclasses.replace(
        config, n_days=60, target_hotspots=200, dc_payments_live_day=20,
        hip10_day=25, spam_decay_end_day=30, international_launch_day=25,
        resale_start_day=32, march_snapshot_day=40, whale_start_day=45,
    )


class TestPinnedDigests:
    def test_small_seed7_unchanged(self, small_result):
        assert result_digest(small_result) == SMALL_SEED7_DIGEST

    def test_small_seed2021_unchanged(self):
        result = SimulationEngine(resolve("small", seed=2021).config).run()
        assert result_digest(result) == SMALL_SEED2021_DIGEST

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PAPER_DIGEST"),
        reason="paper-scale build (~20s); set REPRO_PAPER_DIGEST=1 "
        "(the CI parallel-e2e job does)",
    )
    def test_paper_seed2021_unchanged(self):
        result = SimulationEngine(resolve("paper", seed=2021).config).run()
        assert result_digest(result) == PAPER_SEED2021_DIGEST

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SCALE_DIGEST"),
        reason="10x-scale build (~2min); set REPRO_SCALE_DIGEST=1 "
        "(the CI scale-e2e job does)",
    )
    def test_paper10x_capped120_unchanged(self):
        """The scale tier's first 120 days, digest-pinned, with the
        columnar layout's memory claim asserted as a hard ceiling."""
        from repro import obs

        config = dataclasses.replace(
            resolve("paper-10x", seed=2021).config, n_days=120
        )
        result = SimulationEngine(config).run()
        assert result_digest(result) == PAPER10X_CAPPED120_DIGEST
        assert len(result.world.hotspots) == 44_000
        # Finalized blocks spill to the log and the per-hotspot
        # records carry no instance dict: 271 MiB measured on a 2-vCPU
        # host under Python 3.11.7 (343 MiB with dicts and the hex
        # memos), plus half again. The ceiling was 2 GiB.
        assert obs.peak_rss_bytes() < 410 * 1024**2

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SCALE_DIGEST"),
        reason="100x-scale build (~1min); set REPRO_SCALE_DIGEST=1 "
        "(the CI scale-e2e job does)",
    )
    def test_million_hotspot_stopped300_unchanged(self, tmp_path):
        """The million-hotspot tier's first 300 days on the real
        growth curve (~23k hotspots deployed), digest-pinned over the
        chain dump bytes. A full build is a multi-hour run; the capped
        smoke pins the tier's wiring, its determinism, and the chain
        log's bounded-RSS envelope."""
        import hashlib
        import io

        from repro import obs
        from repro.chain.serialize import dump_chain

        engine = SimulationEngine(resolve("million-hotspot", seed=2021).config)
        out = engine.run(
            stop_after_day=300, checkpoint_dir=tmp_path / "ck"
        )
        assert out is None  # interrupted runs yield no result
        assert engine.config.target_hotspots == 1_000_000
        sink = io.StringIO()
        blocks = dump_chain(engine.state.chain, sink)
        digest = hashlib.sha256(
            sink.getvalue().encode("utf-8")
        ).hexdigest()
        assert digest == MILLION_STOPPED300_CHAIN_SHA
        assert blocks == 36_112
        assert len(engine.state.world.hotspots) == 23_165
        assert obs.peak_rss_bytes() < 1 * 1024**3

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SCALE_DIGEST_FULL"),
        reason="full 10x-scale build (~5min); set REPRO_SCALE_DIGEST_FULL=1",
    )
    def test_paper10x_seed2021_unchanged(self):
        result = SimulationEngine(resolve("paper-10x", seed=2021).config).run()
        assert result_digest(result) == PAPER10X_SEED2021_DIGEST


class TestReferenceTwins:
    def test_full_run_with_twins_is_bit_identical(self, monkeypatch):
        """Swap every reference twin in and replay the whole scenario."""
        monkeypatch.setattr(
            OnlinePhase, "impl",
            staticmethod(reference.update_online_reference),
        )
        monkeypatch.setattr(
            TrafficPhase, "ferry_impl",
            staticmethod(reference.ferry_weights_reference),
        )
        monkeypatch.setattr(
            PoCPhase, "candidates_impl",
            staticmethod(reference.candidates_for_reference),
        )
        ref = SimulationEngine(_trimmed_config()).run()
        monkeypatch.undo()
        assert OnlinePhase.impl is update_online
        fast = SimulationEngine(_trimmed_config()).run()
        assert result_digest(fast) == result_digest(ref)

    def test_candidates_for_matches_reference(self):
        """Satellite check: same candidates, same distances, per call."""
        engine = SimulationEngine(_trimmed_config())
        engine.run()
        state = engine.state
        rng = np.random.default_rng(0)
        compared = 0
        for participant in state.participants.values():
            if not participant.online:
                continue
            fast, fast_km = candidates_for(state, participant, rng)
            ref, ref_km = reference.candidates_for_reference(
                state, participant, rng
            )
            assert [c.gateway for c in fast] == [c.gateway for c in ref]
            if fast_km is None:
                assert ref_km is None
            else:
                np.testing.assert_array_equal(fast_km, ref_km)
            compared += 1
        assert compared > 50  # the scenario must actually exercise this

    def test_ferry_weights_match_reference(self):
        engine = SimulationEngine(_trimmed_config())
        engine.run()
        state = engine.state
        rng = np.random.default_rng(0)
        fast = ferry_weights(state, 0, rng)
        ref = reference.ferry_weights_reference(state, 0, rng)
        # Same mapping *and* same insertion order: packet attribution
        # tie-breaks equal weights by dict order.
        assert list(fast.items()) == list(ref.items())
        assert len(fast) > 0


@pytest.fixture(scope="module")
def twin_state():
    """A completed trimmed run whose state the columnar property tests
    perturb in place (nothing else shares it)."""
    engine = SimulationEngine(_trimmed_config(seed=11))
    engine.run()
    return engine.state


class TestColumnarHypothesisTwins:
    """Hypothesis equivalence: each columnar rewrite against a scalar
    object-walk oracle, over randomised days and availability flips."""

    @given(day=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=15, deadline=None)
    def test_update_online_matches_reference(self, twin_state, day):
        state = twin_state
        stream = state.hub.stream("uptime")
        saved = stream.bit_generator.state
        update_online(state, day)
        fast_objects = [h.online for h in state.fleet.hotspots]
        fast_column = state.fleet.online.tolist()
        assert state.fleet.online_day == day
        stream.bit_generator.state = saved
        reference.update_online_reference(state, day)
        ref_objects = [h.online for h in state.fleet.hotspots]
        assert fast_objects == ref_objects
        assert fast_column == ref_objects

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_ferry_weights_match_reference_under_flips(
        self, twin_state, seed
    ):
        state = twin_state
        self._flip_online(state, seed, day=3)
        rng = np.random.default_rng(seed)
        fast = ferry_weights(state, 3, rng)
        ref = reference.ferry_weights_reference(state, 3, rng)
        # Same mapping *and* same insertion order: packet attribution
        # tie-breaks equal weights by dict order.
        assert list(fast.items()) == list(ref.items())

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_spam_weights_match_object_walk(self, twin_state, seed):
        state = twin_state
        self._flip_online(state, seed, day=5)
        rng = np.random.default_rng(seed)
        owners = sorted(state.world.owners)
        n_spammers = int(rng.integers(0, min(8, len(owners)) + 1))
        picks = rng.choice(len(owners), size=n_spammers, replace=False)
        saved_spammers = state.spammers
        state.spammers = [owners[int(i)] for i in picks]
        try:
            fast = TrafficPhase._spam_weights(state, 5)
            spammer_set = set(state.spammers)
            ref = {
                h.gateway: 1.0
                for h in state.world.hotspots.values()
                if h.owner in spammer_set and h.online
            }
            assert list(fast.items()) == list(ref.items())
        finally:
            state.spammers = saved_spammers

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_growth_counts_match_object_walk(self, twin_state, seed):
        state = twin_state
        self._flip_online(state, seed, day=7)
        cols = state.fleet
        flags = cols.online_mask(7)
        fast_online = int(np.count_nonzero(flags))
        fast_us = int(np.count_nonzero(flags & cols.in_us))
        hotspots = list(state.world.hotspots.values())
        assert fast_online == sum(1 for h in hotspots if h.online)
        assert fast_us == sum(
            1 for h in hotspots if h.online and h.in_us
        )

    @staticmethod
    def _flip_online(state, seed: int, day: int) -> None:
        """Randomise availability coherently across objects and
        columns, stamping ``day`` — the invariant update_online
        maintains."""
        cols = state.fleet
        flags = np.random.default_rng(seed ^ 0xA5A5).random(cols.n) < 0.5
        for i, online in enumerate(flags.tolist()):
            hotspot = cols.hotspots[i]
            hotspot.online = online
            participant = cols.participants[i]
            if participant is not None:
                participant.online = online
        cols.online[:] = flags
        np.logical_and(flags, cols.is_poc, out=cols.poc_online)
        cols.online_day = day


class TestProfileTimings:
    def test_fresh_run_carries_phase_timings(self):
        """``--profile`` output is the scheduler's timing dict, nothing
        hand-kept: every registered phase appears, keyed by its name."""
        engine = SimulationEngine(_trimmed_config())
        result = engine.run()
        timings = result.day_loop_timings
        assert timings is not None
        assert set(timings) == {p.name for p in engine.scheduler.phases}
        for phase in ("deploy", "online", "poc", "traffic", "rewards"):
            assert timings[phase] >= 0.0
        assert sum(timings.values()) > 0.0
        assert timings == engine.phase_timings

    def test_timings_stay_out_of_the_snapshot(self, tmp_path):
        from repro import obs
        from repro.experiments.snapshot import load_result, save_result

        def engine_counters():
            return {
                name: value
                for name, value in obs.snapshot()["counters"].items()
                if name.startswith("engine.")
            }

        result = SimulationEngine(_trimmed_config()).run()
        save_result(result, tmp_path)
        before = engine_counters()
        # A load is not a run: no day timings and no engine.* metric.
        assert load_result(tmp_path).day_loop_timings is None
        assert engine_counters() == before
