"""Persistent scenario cache: entry round-trip and get_result wiring.

The headline guarantee: a scenario saved to disk and reloaded in another
process produces *bit-identical* analysis outputs. A cache entry is the
run's final checkpoint, so the reloaded result equals the cold one in
everything it carries, the stale spatial index included. These tests
exercise the full save → load → analyse path on the small scenario (the
paper scenario follows the identical code path, just bigger).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re

import pytest

import repro.experiments.context as context
from repro import obs
from repro.errors import SimulationError
from repro.etl import EtlStore, ingest_chain
from repro.experiments import fig12, fig13
from repro.experiments.registry import report_payload, run_experiment
from repro.experiments.snapshot import (
    ETL_DB_FILE, load_result, result_digest, save_result,
)
from repro.poc.cheats import GossipClique
from repro.scenarios import resolve, spec_digest
from repro.simulation.checkpoint import CHECKPOINT_SCHEMA_VERSION

from tests.test_engine_hotpath import SMALL_SEED7_DIGEST


def _report_payload(report):
    return {
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "series": {k: list(v) for k, v in report.series.items()},
        "notes": list(report.notes),
    }


@pytest.fixture()
def roundtripped(small_result, tmp_path):
    save_result(small_result, tmp_path / "snap")
    return load_result(tmp_path / "snap")


class TestSnapshotRoundTrip:
    def test_chain_identical(self, small_result, roundtripped):
        assert roundtripped.chain.height == small_result.chain.height
        assert roundtripped.chain.tip.hash == small_result.chain.tip.hash

    def test_world_identical(self, small_result, roundtripped):
        assert list(roundtripped.world.hotspots) == list(
            small_result.world.hotspots
        )
        for gateway, original in small_result.world.hotspots.items():
            loaded = roundtripped.world.hotspots[gateway]
            assert loaded.asserted_location == original.asserted_location
            assert loaded.actual_location == original.actual_location
            assert loaded.environment is original.environment
            assert loaded.online == original.online
            assert type(loaded.cheat) is type(original.cheat)
            # A cold run ends with some hotspots indexed where they stood
            # at the last weekly rebuild; the warm load keeps them there.
            assert loaded.index_location == original.index_location
        assert list(roundtripped.world.owners) == list(
            small_result.world.owners
        )
        assert (
            roundtripped.world._keypair_seq == small_result.world._keypair_seq
        )

    def test_clique_instances_shared(self, roundtripped):
        by_id = {}
        for hotspot in roundtripped.world.hotspots.values():
            if isinstance(hotspot.cheat, GossipClique):
                seen = by_id.setdefault(hotspot.cheat.clique_id, hotspot.cheat)
                assert seen is hotspot.cheat

    def test_peerbook_and_oracle_identical(self, small_result, roundtripped):
        assert [
            (e.peer, e.listen_addrs) for e in roundtripped.peerbook
        ] == [(e.peer, e.listen_addrs) for e in small_result.peerbook]
        assert roundtripped.oracle._prices == small_result.oracle._prices

    def test_oracle_extends_identically(self, small_result, roundtripped):
        # The restored walk must continue exactly where the original
        # would: the entry records the oracle's RNG stream state. The
        # original is extended on a copy: small_result is shared, and a
        # longer walk would change its digest for every later test.
        original = copy.deepcopy(small_result.oracle)
        day = len(original._prices) + 5
        assert roundtripped.oracle.price_on_day(
            day
        ) == original.price_on_day(day)

    def test_growth_log_and_owner_maps(self, small_result, roundtripped):
        assert roundtripped.growth_log == small_result.growth_log
        assert roundtripped.console_owner == small_result.console_owner
        assert roundtripped.oui_owners == small_result.oui_owners
        assert roundtripped.spammer_owners == small_result.spammer_owners

    def test_figures_bit_identical(self, small_result, roundtripped):
        # fig12 draws fresh randomness from a seed-derived stream and
        # fig13 reads the chain's witnesses; each result gets a replica
        # ingested from its own chain, so equality here means the
        # reloaded scenario is indistinguishable from the fresh
        # simulation.
        from repro.etl import EtlStore, ingest_chain

        stores = {}
        for name, result in (("fresh", small_result), ("cached", roundtripped)):
            stores[name] = EtlStore()
            ingest_chain(result.chain, stores[name])
        for module in (fig12, fig13):
            fresh = json.dumps(_report_payload(
                module.run(small_result, stores["fresh"])
            ), sort_keys=True)
            cached = json.dumps(_report_payload(
                module.run(roundtripped, stores["cached"])
            ), sort_keys=True)
            assert fresh == cached


class TestCacheWiring:
    def test_config_digest_stable_and_sensitive(self):
        a = resolve("small", seed=7).config
        assert spec_digest(a) == spec_digest(resolve("small", seed=7).config)
        assert spec_digest(a) != spec_digest(resolve("small", seed=8).config)

    def test_off_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "off")
        assert context.scenario_cache_dir() is None
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "0")
        assert context.scenario_cache_dir() is None

    def test_env_override_and_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "c"))
        assert context.scenario_cache_dir() == tmp_path / "c"
        monkeypatch.delenv("REPRO_SCENARIO_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert (
            context.scenario_cache_dir()
            == tmp_path / "xdg" / "repro-scenarios"
        )

    def test_get_result_populates_and_reuses_disk_cache(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        first = context.get_result("small", seed=7)
        # The cold build leaves the entry plus its build-lock sidecar.
        entries = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(entries) == 1
        digest = resolve("small", seed=7).digest[:12]
        assert entries[0].name == (
            f"scn-seed7-{digest}-v{CHECKPOINT_SCHEMA_VERSION}"
        )

        # A "fresh process": empty in-memory cache, simulation forbidden.
        monkeypatch.setattr(context, "_CACHE", {})
        monkeypatch.setattr(
            context.SimulationEngine,
            "run",
            lambda self: pytest.fail("should have loaded from disk"),
        )
        second = context.get_result("small", seed=7)
        assert second.chain.tip.hash == first.chain.tip.hash

    def test_cold_build_prunes_only_older_schema_entries(
        self, monkeypatch, tmp_path, small_result
    ):
        """A cold build removes what an older schema version wrote (the
        entry and its ``.ckpt`` sibling) and touches neither a current
        entry that a reader holds open nor a newer version's entry."""
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        monkeypatch.setattr(
            context, "_build_result", lambda *args: small_result
        )
        context.get_result("small", seed=7)
        entry = context._entry_dir(7, resolve("small", seed=7).digest)
        files = {p.name: p.read_bytes() for p in entry.iterdir()}
        reader = load_result(entry)  # log-backed: chain.log stays open
        version = CHECKPOINT_SCHEMA_VERSION
        stale = [
            tmp_path / f"scn-seed7-{'a' * 12}-v{version - 1}",
            tmp_path / f"scn-seed7-{'a' * 12}-v{version - 1}.ckpt",
            tmp_path / f"scn-seed7-{'c' * 12}-v4",
        ]
        newer = tmp_path / f"scn-seed7-{'b' * 12}-v{version + 1}"
        for path in stale + [newer]:
            path.mkdir()
            (path / "meta.json").write_text("{}")

        monkeypatch.setattr(context, "_CACHE", {})
        context.get_result("small", seed=8)  # another cold build
        assert not any(path.exists() for path in stale)
        assert newer.exists()
        assert {p.name: p.read_bytes() for p in entry.iterdir()} == files
        middle = small_result.chain.height // 2
        assert (
            reader.chain.block_at(middle).hash
            == small_result.chain.block_at(middle).hash
        )

    def test_corrupt_entry_falls_back_to_simulation(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        digest = resolve("small", seed=7).digest[:12]
        entry = tmp_path / f"scn-seed7-{digest}-v{CHECKPOINT_SCHEMA_VERSION}"
        entry.mkdir()
        (entry / "meta.json").write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            result = context.get_result("small", seed=7)
        assert result.chain.height > 0
        # The corrupt entry was replaced by a valid one.
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["schema"] == CHECKPOINT_SCHEMA_VERSION

    def test_checkpointed_build_publishes_its_checkpoint(
        self, monkeypatch, tmp_path
    ):
        """A resumable cold build saves its final state into its own
        ``.ckpt`` directory, extending the periodic checkpoint's chain
        log, and publishes that directory as the entry."""
        from repro.experiments.snapshot import result_digest
        from repro.scenarios import ResolvedScenario
        from repro.simulation import SimulationEngine
        from repro.simulation import state as state_module

        from tests.test_engine_hotpath import _trimmed_config

        config = _trimmed_config(seed=13)
        resolved = ResolvedScenario(
            label="trimmed", source="<test>", config=config,
            digest=spec_digest(config),
        )
        fresh = result_digest(SimulationEngine(config).run())
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        extended = []
        real_write = state_module.write_chain_log

        def spy(chain, handle, sha, after=None):
            extended.append(after is not None)
            return real_write(chain, handle, sha, after)

        monkeypatch.setattr(state_module, "write_chain_log", spy)
        result = context.get_result(resolved, checkpoint_every=20)
        # Periodic saves at days 20 and 40, then the final one at 60.
        assert extended == [False, True, True]
        entry = context._entry_dir(resolved.config.seed, resolved.digest)
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            entry.name
        ]
        assert json.loads((entry / "meta.json").read_text())["day"] == 60
        assert result_digest(result) == fresh
        assert result_digest(load_result(entry)) == fresh


class TestSplitLoad:
    """A warm load runs every check of the entry up front and builds
    each half on its first read, once: an ingest builds only the chain
    half, analyses that read the replica only the world half."""

    @pytest.fixture()
    def entry(self, monkeypatch, tmp_path, small_result):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        monkeypatch.setattr(context, "_STORES", {})
        resolved = resolve("small", seed=7)
        entry = context._entry_dir(resolved.config.seed, resolved.digest)
        save_result(small_result, entry)
        return entry

    @pytest.fixture()
    def built(self):
        """The halves built since the test started, by half."""
        def halves(snapshot):
            return {
                half: snapshot["counters"].get(
                    f"cache.half_loads{{half={half}}}", 0
                )
                for half in ("chain", "world")
            }

        before = halves(obs.snapshot())
        return lambda: {
            half: count - before[half]
            for half, count in halves(obs.snapshot()).items()
        }

    def test_ingest_builds_only_the_chain_half(
        self, entry, small_result, built
    ):
        result = load_result(entry)
        assert built() == {"chain": 0, "world": 0}
        warm, cold = EtlStore(), EtlStore()
        ingest_chain(result.chain, warm)
        assert built() == {"chain": 1, "world": 0}
        # Its blocks stay in the entry's own chain.log: no copy.
        assert not result.chain.chain_log.writable
        ingest_chain(small_result.chain, cold)
        assert warm.content_digest() == cold.content_digest()

    def test_analyses_on_the_replica_build_only_the_world_half(
        self, entry, small_result, built
    ):
        with EtlStore(entry / ETL_DB_FILE) as writer:
            ingest_chain(small_result.chain, writer)
        result = load_result(entry)
        context.open_replica(entry, resolve("small", seed=7).digest)
        warm = {}
        # fig02 and fig13 read the replica alone; fig05's growth log
        # and fig10's peerbook are ground truth from the world half.
        for eids, halves in ((("fig02", "fig13"), {"chain": 0, "world": 0}),
                             (("fig05", "fig10"), {"chain": 0, "world": 1})):
            for eid in eids:
                warm[eid] = report_payload(run_experiment(eid, result))
            assert built() == halves
        assert warm == {
            eid: report_payload(run_experiment(eid, small_result))
            for eid in warm
        }

    def test_a_current_replica_spares_the_chain_half(
        self, entry, small_result, built
    ):
        with EtlStore(entry / ETL_DB_FILE) as writer:
            ingest_chain(small_result.chain, writer)
        result = context.get_result("small", seed=7)
        assert result.tip.hash == small_result.chain.tip.hash
        report = report_payload(run_experiment("fig02", result))
        # The store is at the result's tip: no replay to find that out.
        assert built() == {"chain": 0, "world": 0}
        assert report == report_payload(run_experiment("fig02", small_result))

    @pytest.mark.parametrize("stale", ["one block behind", "tip hash"])
    def test_a_stale_replica_is_brought_current(
        self, entry, small_result, built, stale
    ):
        height = small_result.chain.height
        with EtlStore(entry / ETL_DB_FILE) as writer:
            ingest_chain(small_result.chain, writer)
            with writer.connection:
                if stale == "tip hash":
                    # The batches committed, the final transaction not.
                    writer._set_meta("tip_hash", "0" * 64)
                else:
                    below, parent = writer.connection.execute(
                        "SELECT height, hash FROM blocks WHERE height < ? "
                        "ORDER BY height DESC LIMIT 1", (height,),
                    ).fetchone()
                    writer._set_meta("checkpoint_height", str(below))
                    writer._set_meta("tip_hash", parent)
        store = context.result_store(context.get_result("small", seed=7))
        assert built() == {"chain": 1, "world": 0}
        assert store.checkpoint_height == height
        assert store.get_meta("tip_hash") == small_result.chain.tip.hash

    def test_each_half_is_built_once(self, entry, built):
        result = load_result(entry)
        for _ in range(2):
            assert result_digest(result) == SMALL_SEED7_DIGEST
            assert result.state.chain is result.chain
            assert result.peerbook is result.peerbook
            assert result.world is result.state.world
        assert built() == {"chain": 1, "world": 1}

    def _rewrite_meta(self, entry, **changes):
        path = entry / "meta.json"
        meta = json.loads(path.read_text())
        meta.update(changes)
        path.write_text(json.dumps(meta))

    def test_a_failed_world_build_names_the_entry(self, entry):
        # Digest-consistent, so every up-front check passes; only
        # building the world half can tell the fleet section is gone.
        path = entry / "state.json"
        payload = json.loads(path.read_text())
        del payload["fleet"]
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        path.write_bytes(blob)
        self._rewrite_meta(
            entry, state_sha256=hashlib.sha256(blob).hexdigest()
        )
        result = load_result(entry)
        assert result.chain.height > 0
        with pytest.raises(
            SimulationError,
            match=f"world half of checkpoint {re.escape(str(entry))}: "
            f".*fleet uptime column",
        ):
            result.world

    def test_a_failed_chain_build_names_the_entry(self, entry):
        # The last block's record names an unknown transaction type,
        # under a rebuilt digest chain and extent: only decoding it
        # can tell.
        from repro.chain.chainlog import (
            CHAINLOG_MAGIC, encode_frame, scan_frames, seed_digest,
        )

        path = entry / "chain.log"
        with open(path, "rb") as handle:
            frames = [(h, p) for _, h, p, _ in scan_frames(handle)]
        height = frames[-1][0]
        frames[-1] = (height, b'{"height":%d,"transactions":'
                              b'[{"type":"bogus"}]}\n' % height)
        parts, tail = [CHAINLOG_MAGIC], seed_digest()
        for frame_height, payload in frames:
            frame, tail = encode_frame(frame_height, payload, tail)
            parts.append(frame)
        blob = b"".join(parts)
        path.write_bytes(blob)
        self._rewrite_meta(
            entry, chain_bytes=len(blob), chain_log_tail=tail.hex(),
            chain_sha256=hashlib.sha256(blob).hexdigest(),
        )
        result = load_result(entry)
        assert result.world.hotspots
        with pytest.raises(
            SimulationError,
            match=f"chain half of checkpoint {re.escape(str(entry))}: "
            f".*unknown transaction type",
        ):
            result.chain

    def test_config_must_digest_to_the_recorded_digest(self, entry):
        meta = json.loads((entry / "meta.json").read_text())
        config = dict(meta["config"], target_hotspots=1234)
        self._rewrite_meta(entry, config=config)
        with pytest.raises(SimulationError, match="does not digest"):
            load_result(entry)

    def test_get_result_rejects_an_entry_of_another_config(
        self, monkeypatch, tmp_path, small_result
    ):
        """A sound entry holding another config (seed 7's run under
        seed 8's name) is no hit: it is discarded and rebuilt."""
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        resolved = resolve("small", seed=8)
        entry = context._entry_dir(resolved.config.seed, resolved.digest)
        save_result(small_result, entry)
        builds = []
        monkeypatch.setattr(
            context, "_build_result",
            lambda *args: builds.append(args) or small_result,
        )
        with pytest.warns(RuntimeWarning, match="holds config"):
            context.get_result(resolved)
        assert len(builds) == 1


class TestEntryIntegrity:
    """A cache entry either loads whole or is rebuilt, never shortened."""

    @pytest.fixture()
    def entry(self, monkeypatch, tmp_path, small_result):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        resolved = resolve("small", seed=7)
        entry = context._entry_dir(resolved.config.seed, resolved.digest)
        save_result(small_result, entry)
        return entry

    def test_meta_records_chain_extent(self, entry, small_result):
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["chain_blocks"] == len(small_result.chain.blocks)
        assert meta["chain_bytes"] == (entry / "chain.log").stat().st_size
        assert not (entry / "chain.jsonl").exists()

    def _truncate_last_frame(self, entry):
        from repro.chain.chainlog import scan_frames

        with open(entry / "chain.log", "r+b") as handle:
            *_, (last, _, _, _) = scan_frames(handle)
            handle.truncate(handle.tell() - len(last))

    def _flip_payload_byte(self, entry):
        path = entry / "chain.log"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))

    def _wrong_sha(self, entry):
        path = entry / "meta.json"
        meta = json.loads(path.read_text())
        meta["chain_sha256"] = "0" * 64
        path.write_text(json.dumps(meta))

    def _move_a_hotspot(self, entry):
        # Still valid JSON and a world that loads: one digit of the
        # first hotspot's latitude changes (37.8° N -> 77.8° N). Only
        # the recorded digest can tell.
        path = entry / "state.json"
        text = path.read_text()
        at = text.index('"actual":[') + len('"actual":[')
        assert text[at] == "3"
        path.write_text(text[:at] + "7" + text[at + 1:])

    @pytest.mark.parametrize("damage", [
        "_truncate_last_frame", "_flip_payload_byte", "_wrong_sha",
        "_move_a_hotspot",
    ])
    def test_damaged_entry_is_rebuilt(self, entry, small_result, damage):
        from repro.experiments.snapshot import result_digest

        from tests.test_engine_hotpath import SMALL_SEED7_DIGEST

        getattr(self, damage)(entry)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            rebuilt = context.get_result("small", seed=7)
        assert rebuilt is not small_result
        assert result_digest(rebuilt) == SMALL_SEED7_DIGEST
        # The healed entry on disk loads whole.
        assert result_digest(load_result(entry)) == SMALL_SEED7_DIGEST

    def test_failed_save_leaves_no_temp_entry(
        self, monkeypatch, tmp_path, small_result
    ):
        """ENOSPC mid-save: warn, hand back the result, and remove the
        partial temp entry."""
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        monkeypatch.setattr(
            context, "_build_result", lambda *args: small_result
        )

        def full_disk(result, directory):
            (directory / "chain.log").write_bytes(b"partial" * 1000)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(context.snapshot, "save_result", full_disk)
        with pytest.warns(RuntimeWarning, match="could not persist"):
            result = context.get_result("small", seed=7)
        assert result is small_result
        assert [p for p in tmp_path.iterdir() if p.is_dir()] == []


class TestStoreWiring:
    """get_store: the ETL replica rides along inside the cache entry."""

    @pytest.fixture()
    def cache_entry(self, monkeypatch, tmp_path, small_result):
        """A populated cache entry for the small scenario, fresh memos."""
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        resolved = resolve("small")
        monkeypatch.setattr(
            context, "_CACHE", {resolved.digest: small_result}
        )
        monkeypatch.setattr(context, "_STORES", {})
        entry = context._entry_dir(resolved.config.seed, resolved.digest)
        save_result(small_result, entry)
        return entry

    def test_meta_records_etl_schema(self, cache_entry):
        # The entry's etl.db stamps its own schema (etl_meta), checked
        # on every open; the run's meta.json does not restate it.
        from repro.etl.schema import SCHEMA_VERSION as ETL_SCHEMA_VERSION

        store = context.get_store("small", seed=7)
        assert store.get_meta("schema_version") == str(ETL_SCHEMA_VERSION)

    def test_materialises_db_inside_the_entry(self, cache_entry, small_result):
        from pathlib import Path

        store = context.get_store("small", seed=7)
        assert Path(store.path) == cache_entry / "etl.db"
        assert store.checkpoint_height == small_result.chain.height
        assert store.get_meta("tip_hash") == small_result.chain.tip.hash
        # The process memo hands back the same handle.
        assert context.get_store("small", seed=7) is store

    def test_second_process_resumes_without_reingesting(
        self, cache_entry, monkeypatch
    ):
        context.get_store("small", seed=7).close()
        # "New process": empty store memo, ingest instrumented.
        monkeypatch.setattr(context, "_STORES", {})
        reports = []
        real_ingest = context.ingest_chain

        def counting_ingest(chain, store, **kwargs):
            report = real_ingest(chain, store, **kwargs)
            reports.append(report)
            return report

        monkeypatch.setattr(context, "ingest_chain", counting_ingest)
        context.get_store("small", seed=7)
        assert reports == []  # the store is at the chain's tip

    def test_corrupt_db_self_heals(self, cache_entry, small_result):
        context.get_store("small", seed=7).close()
        (cache_entry / "etl.db").write_bytes(b"scrambled" * 100)
        context._STORES.clear()
        with pytest.warns(RuntimeWarning, match="re-ingesting"):
            store = context.get_store("small", seed=7)
        assert store.checkpoint_height == small_result.chain.height

    def test_stale_schema_self_heals(self, cache_entry, small_result):
        store = context.get_store("small", seed=7)
        with store.connection:
            store._set_meta("schema_version", "999999")
        store.close()
        context._STORES.clear()
        with pytest.warns(RuntimeWarning, match="re-ingesting"):
            healed = context.get_store("small", seed=7)
        assert healed.get_meta("schema_version") != "999999"
        assert healed.checkpoint_height == small_result.chain.height

    def test_cache_off_builds_in_memory(self, monkeypatch, small_result):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "off")
        monkeypatch.setattr(
            context, "_CACHE", {resolve("small").digest: small_result}
        )
        monkeypatch.setattr(context, "_STORES", {})
        store = context.get_store("small", seed=7)
        assert store.path == ":memory:"
        assert store.checkpoint_height == small_result.chain.height
