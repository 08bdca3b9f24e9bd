"""Day-level checkpoint/resume: bit-identity and corruption rejection.

The contract is the strongest one available: a run interrupted at any
day boundary and resumed from its checkpoint must produce *byte
identical* scenario output (same chain.jsonl, same ``result_digest``) as
the uninterrupted run — which the pinned digests in
``test_engine_hotpath.py`` tie all the way back to the pre-refactor
engine. A scenario-cache entry is the finished run's final checkpoint,
so resuming one runs no day and reproduces the same result.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.experiments.snapshot import result_digest
from repro.scenarios import resolve
from repro.simulation import SimulationEngine
from repro.simulation.checkpoint import CHECKPOINT_SCHEMA_VERSION, read_meta
from repro.simulation.state import WorldState

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
        SimulationEngine(resolve("small", seed=7).config).run(
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
        meta = read_meta(ckpt)
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
        from tests.test_engine_hotpath import PAPER_SEED2021_DIGEST

        ckpt = tmp_path / "ckpt"
        SimulationEngine(resolve("paper", seed=2021).config).run(
            stop_after_day=180, checkpoint_dir=ckpt
        )
        result = SimulationEngine.resume(ckpt).run()
        assert result_digest(result) == PAPER_SEED2021_DIGEST

    def test_finished_entry_resumes_as_a_no_op(self, tmp_path):
        """A cache entry is the run's final checkpoint: resuming it runs
        no day, gives the pinned result and writes nothing into it."""
        from repro.experiments.snapshot import save_result

        entry = tmp_path / "entry"
        save_result(
            SimulationEngine(resolve("small", seed=7).config).run(), entry
        )
        before = {p.name: p.read_bytes() for p in entry.iterdir()}
        engine = SimulationEngine.resume(entry)
        assert engine.state.day == engine.config.n_days
        assert result_digest(engine.run()) == SMALL_SEED7_DIGEST
        assert {p.name: p.read_bytes() for p in entry.iterdir()} == before

    def test_engine_days_counts_the_days_each_call_simulates(self, tmp_path):
        """``engine.days`` grows by the days a call runs: 60 up to the
        stop, the other 120 on resume, none on resuming the finished
        run."""
        from repro.experiments.snapshot import save_result

        def days() -> int:
            return obs.snapshot()["counters"].get("engine.days", 0)

        ckpt = tmp_path / "ckpt"
        start = days()
        SimulationEngine(resolve("small", seed=7).config).run(
            stop_after_day=60, checkpoint_dir=ckpt
        )
        assert days() - start == 60
        result = SimulationEngine.resume(ckpt).run()
        assert days() - start == 60 + 120
        save_result(result, tmp_path / "entry")
        SimulationEngine.resume(tmp_path / "entry").run()
        assert days() - start == 180


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

    @pytest.mark.parametrize(
        "schema", [1, 2, 4, CHECKPOINT_SCHEMA_VERSION + 1],
        ids=["v1", "v2", "v4", "newer"],
    )
    def test_schema_mismatch_is_rejected(self, checkpoint, schema):
        """Any other schema fails on its meta, with the one message that
        names both versions — not a missing-file or array-shape error
        from deep inside the restore path."""
        path = checkpoint / "meta.json"
        meta = json.loads(path.read_text())
        meta["schema"] = schema
        path.write_text(json.dumps(meta))
        with pytest.raises(
            SimulationError,
            match=f"unsupported checkpoint schema {schema} .*"
            f"reads schema {CHECKPOINT_SCHEMA_VERSION}",
        ):
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

    def test_mid_run_checkpoint_is_not_a_result(self, checkpoint):
        from repro.experiments.snapshot import load_result

        with pytest.raises(SimulationError, match="only a finished run"):
            load_result(checkpoint)

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
