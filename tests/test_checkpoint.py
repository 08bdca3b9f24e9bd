"""Day-level checkpoint/resume: bit-identity and corruption rejection.

The contract is the strongest one available: a run interrupted at any
day boundary and resumed from its checkpoint must produce *byte
identical* scenario output (same chain.jsonl, same snapshot bytes, same
``result_digest``) as the uninterrupted run — which the pinned digests
in ``test_engine_hotpath.py`` tie all the way back to the
pre-refactor engine.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.errors import SimulationError
from repro.experiments.snapshot import result_digest
from repro.simulation import SimulationEngine, small_scenario
from repro.simulation.state import CHECKPOINT_SCHEMA_VERSION, WorldState

from tests.test_engine_hotpath import SMALL_SEED7_DIGEST, _trimmed_config


def _fresh_digest(config) -> str:
    return result_digest(SimulationEngine(config).run())


class TestResumeEqualsFresh:
    def test_trimmed_scenario_resume_is_bit_identical(self, tmp_path):
        config = _trimmed_config()
        fresh = _fresh_digest(config)
        ckpt = tmp_path / "ckpt"
        out = SimulationEngine(config).run(
            stop_after_day=25, checkpoint_dir=ckpt
        )
        assert out is None  # interrupted runs yield no result
        engine = SimulationEngine.resume(ckpt)
        assert engine.state.day == 25
        assert result_digest(engine.run()) == fresh

    def test_small_scenario_resume_matches_pinned_digest(self, tmp_path):
        """Resume reproduces the digest pinned before the refactor."""
        ckpt = tmp_path / "ckpt"
        SimulationEngine(small_scenario(seed=7)).run(
            stop_after_day=40, checkpoint_dir=ckpt
        )
        result = SimulationEngine.resume(ckpt).run()
        assert result_digest(result) == SMALL_SEED7_DIGEST

    def test_periodic_checkpoints_do_not_perturb_the_run(self, tmp_path):
        """--checkpoint-every saves mid-run without changing output, and
        the directory always holds the latest complete checkpoint."""
        config = _trimmed_config(seed=11)
        fresh = _fresh_digest(config)
        ckpt = tmp_path / "ckpt"
        result = SimulationEngine(config).run(
            checkpoint_every=20, checkpoint_dir=ckpt
        )
        assert result_digest(result) == fresh
        # n_days=60, every 20 → saves at day 20 and 40 (never at the
        # final day); the last one wins.
        meta = WorldState.read_meta(ckpt)
        assert meta["day"] == 40
        assert meta["seed"] == config.seed
        # And resuming from that periodic checkpoint is still exact.
        assert result_digest(SimulationEngine.resume(ckpt).run()) == fresh

    def test_double_interrupt_resume(self, tmp_path):
        """Checkpoint → resume → checkpoint again → resume to the end."""
        config = _trimmed_config(seed=5)
        fresh = _fresh_digest(config)
        ckpt = tmp_path / "ckpt"
        SimulationEngine(config).run(stop_after_day=15, checkpoint_dir=ckpt)
        out = SimulationEngine.resume(ckpt).run(
            stop_after_day=35, checkpoint_dir=ckpt
        )
        assert out is None
        engine = SimulationEngine.resume(ckpt)
        assert engine.state.day == 35
        assert result_digest(engine.run()) == fresh

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PAPER_DIGEST"),
        reason="paper-scale build (~40s); set REPRO_PAPER_DIGEST=1 "
        "(the CI resume-e2e job does)",
    )
    def test_paper_scenario_resume_matches_pinned_digest(self, tmp_path):
        from repro.simulation import paper_scenario

        from tests.test_engine_hotpath import PAPER_SEED2021_DIGEST

        ckpt = tmp_path / "ckpt"
        SimulationEngine(paper_scenario(seed=2021)).run(
            stop_after_day=180, checkpoint_dir=ckpt
        )
        result = SimulationEngine.resume(ckpt).run()
        assert result_digest(result) == PAPER_SEED2021_DIGEST


class TestCorruptCheckpoints:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        SimulationEngine(_trimmed_config(seed=3)).run(
            stop_after_day=10, checkpoint_dir=ckpt
        )
        return ckpt

    def test_flipped_byte_in_state_is_rejected(self, checkpoint):
        path = checkpoint / "state.json"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SimulationError, match="corrupt checkpoint"):
            WorldState.load(checkpoint)

    def test_truncated_chain_is_rejected(self, checkpoint):
        path = checkpoint / "chain.log"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SimulationError, match="corrupt checkpoint"):
            WorldState.load(checkpoint)

    def test_schema_mismatch_is_rejected(self, checkpoint):
        path = checkpoint / "meta.json"
        meta = json.loads(path.read_text())
        meta["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(meta))
        with pytest.raises(SimulationError, match="newer build"):
            WorldState.load(checkpoint)

    def test_old_schema_is_rejected_with_clear_message(self, checkpoint):
        """A v1 checkpoint (pre-columnar fleet) must fail with a
        message naming the schema gap and the remedy — not a pickle or
        array-shape error from deep inside the restore path."""
        path = checkpoint / "meta.json"
        meta = json.loads(path.read_text())
        meta["schema"] = 1
        path.write_text(json.dumps(meta))
        with pytest.raises(SimulationError, match="predates"):
            WorldState.load(checkpoint)
        with pytest.raises(SimulationError, match="schema"):
            WorldState.load(checkpoint)

    def test_v2_chain_jsonl_checkpoint_is_rejected(self, checkpoint):
        """A v2 checkpoint (JSONL chain, pre-framed-log) fails with a
        message naming the layout gap and the remedy — not a missing
        chain.log file error. Together with
        ``test_schema_mismatch_is_rejected`` (a v4 checkpoint on this
        build → "newer build") this pins the v2→v3 boundary from both
        directions."""
        (checkpoint / "chain.log").rename(checkpoint / "chain.jsonl")
        meta_path = checkpoint / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = 2
        meta.pop("chain_log_tail", None)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SimulationError, match="predates"):
            WorldState.load(checkpoint)
        with pytest.raises(SimulationError, match="framed chain-log"):
            WorldState.load(checkpoint)

    def test_missing_fleet_section_is_rejected(self, checkpoint):
        """A doctored current-schema checkpoint without the columnar
        fleet section fails the explicit validation, not an IndexError.
        (The state digest in meta is recomputed so the integrity check
        passes and the structural check is what fires.)"""
        import hashlib

        state_path = checkpoint / "state.json"
        payload = json.loads(state_path.read_text())
        payload.pop("fleet", None)
        blob = json.dumps(payload, separators=(",", ":"))
        state_path.write_text(blob)
        meta_path = checkpoint / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["state_sha256"] = hashlib.sha256(
            blob.encode("utf-8")
        ).hexdigest()
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(
            SimulationError, match="fleet uptime column"
        ):
            WorldState.load(checkpoint)

    def test_missing_meta_is_rejected(self, checkpoint):
        (checkpoint / "meta.json").unlink()
        with pytest.raises(SimulationError):
            WorldState.load(checkpoint)


class TestEngineArgValidation:
    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(SimulationError, match="checkpoint_dir"):
            SimulationEngine(_trimmed_config()).run(checkpoint_every=5)

    def test_stop_after_requires_dir(self):
        with pytest.raises(SimulationError, match="checkpoint_dir"):
            SimulationEngine(_trimmed_config()).run(stop_after_day=5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"stop_after_day": 0}, {"stop_after_day": -4},
         {"checkpoint_every": 0}, {"checkpoint_every": -1}],
    )
    def test_day_counts_must_be_positive(self, tmp_path, kwargs):
        engine = SimulationEngine(_trimmed_config())
        with pytest.raises(SimulationError, match="must be >= 1"):
            engine.run(checkpoint_dir=tmp_path / "ck", **kwargs)
        assert engine.state.day == 0

    def test_config_must_match_state(self, tmp_path):
        config = _trimmed_config()
        state = WorldState.create(config)
        other = dataclasses.replace(config, seed=999)
        with pytest.raises(SimulationError, match="does not match"):
            SimulationEngine(other, state=state)
