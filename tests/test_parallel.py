"""The multi-process layer: the experiment runner, sweeps, and cache
build locks.

The determinism contracts under test:

* farm output (any job count, any start method) is byte-identical to
  the serial path — workers rehydrate from the scenario cache, and the
  experiments draw only from seed-derived named streams; §8.1's four
  farm units merge into the serial report;
* re-running a sweep, at any job count, produces byte-identical JSON
  (warm cache included);
* two processes racing one cold build perform exactly one simulation.

And the runner's shape: a serial run, or a queue of one task, works
in-process, in the order given, on the result the process already
holds; a pool never starts more workers than it has tasks; a sweep
task is one whole seed.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro.experiments.context as context
from repro import obs
from repro.experiments.registry import (
    report_from_payload,
    report_payload,
    reports_digest,
    run_experiment,
)
from repro.parallel import longest_first, run_farm, run_sweep, task_cost
from repro.parallel.locks import build_lock
from repro.scenarios import resolve
from repro.simulation.checkpoint import CHECKPOINT_SCHEMA_VERSION

#: A fast cross-section: chain-walking, RNG-drawing (fig12), and the
#: tie-break-sensitive resale analysis (fig07). The full suite runs in
#: the CI parallel-e2e job.
FARM_IDS = ["fig02", "fig07", "fig12", "fig13", "s7_1", "table1"]


@pytest.fixture()
def traced(tmp_path, monkeypatch):
    """Trace this process and its workers into a fresh file; yields a
    reader of the events written so far."""
    path = tmp_path / "trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    monkeypatch.setenv("REPRO_TRACE_ID", "paralleltest")
    obs.close_trace()  # re-arm the lazy env activation

    def events():
        obs.close_trace()
        if not path.exists():
            return []
        return [json.loads(line) for line in path.read_text().splitlines()]

    yield events
    obs.close_trace()


@pytest.fixture()
def seeded_cache(monkeypatch, tmp_path, small_result):
    """A fresh cache dir with the small/seed-7 result memoised."""
    monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
    monkeypatch.setattr(
        context, "_CACHE", {resolve("small").digest: small_result}
    )
    return tmp_path


class TestFarm:
    def test_matches_serial_byte_for_byte(self, seeded_cache, small_result):
        serial = [run_experiment(eid, small_result) for eid in FARM_IDS]
        outcomes = run_farm("small", 7, FARM_IDS, jobs=4)
        assert [o.experiment_id for o in outcomes] == FARM_IDS
        assert reports_digest(o.report for o in outcomes) == reports_digest(
            serial
        )

    def test_spawn_start_method(self, seeded_cache, small_result):
        # ``spawn`` workers import everything fresh: nothing inherited
        # from the parent except the task tuples, so this passing means
        # the payloads are fully picklable and the entry points are
        # module-level (the portability contract).
        ids = ["fig02", "fig07"]
        serial = [run_experiment(eid, small_result) for eid in ids]
        outcomes = run_farm("small", 7, ids, jobs=2, start_method="spawn")
        assert reports_digest(o.report for o in outcomes) == reports_digest(
            serial
        )

    def test_jobs_one_runs_in_process(self, seeded_cache, small_result):
        outcomes = run_farm("small", 7, ["fig02"], jobs=1)
        assert outcomes[0].report.experiment_id == "fig02"
        assert outcomes[0].wall_s >= 0.0

    def test_one_task_runs_in_process(self, seeded_cache, traced):
        """A pool of one would publish the entry and reload in a worker
        the result this process already holds."""
        run_farm("small", 7, ["fig02"], jobs=4)
        events = traced()
        starts = [e for e in events if e["kind"] == "farm.start"]
        assert [(e["jobs"], e["workers"]) for e in starts] == [(4, 0)]
        kinds = [e["kind"] for e in events]
        assert "worker.rehydrate" not in kinds and "cache.load" not in kinds
        pids = {e["pid"] for e in events if e["kind"] == "worker.task"}
        assert pids == {os.getpid()}
        assert not list(seeded_cache.glob("scn-*"))  # no ensure_snapshot

    def test_outcomes_carry_costs(self, seeded_cache):
        # Two tasks, so they run on the pool: one would run in-process.
        outcomes = run_farm("small", 7, ["fig12", "fig02"], jobs=2)
        assert outcomes[0].wall_s > 0.0
        assert outcomes[0].cpu_s > 0.0
        assert outcomes[0].rss_hwm_bytes > 0


class TestSerialFarm:
    def test_runs_on_the_loaded_result(
        self, seeded_cache, monkeypatch, traced
    ):
        """After ``get_result``, a serial farm loads nothing more: the
        entry is loaded once and no task rehydrates it again."""
        context.ensure_snapshot("small", 7)  # publish the memoised result
        monkeypatch.setattr(context, "_CACHE", {})
        context.get_result("small", 7)
        run_farm("small", 7, ["fig02", "fig07"], jobs=1)
        events = traced()
        kinds = [e["kind"] for e in events]
        assert kinds.count("cache.load") == 1
        assert "worker.rehydrate" not in kinds
        halves = [e["half"] for e in events if e["kind"] == "cache.half_load"]
        assert "world" not in halves  # fig02 and fig07 never read it

    def test_runs_in_the_order_given(self, seeded_cache, traced):
        ids = ["table1", "fig02", "s7_1"]  # longest-first: s7_1 leads
        outcomes = run_farm("small", 7, ids, jobs=1)
        events = traced()
        ran = [e["experiment"] for e in events if e["kind"] == "worker.task"]
        assert ran == ids
        assert {e["pid"] for e in events if e["kind"] == "worker.task"} == {
            os.getpid()
        }
        assert [o.experiment_id for o in outcomes] == ids


class TestS8UnitDecomposition:
    def test_farm_units_match_serial(self, seeded_cache, small_result):
        serial = run_experiment("s8_1", small_result)
        outcomes = run_farm("small", 7, ["s8_1"], jobs=2)
        assert outcomes[0].experiment_id == "s8_1"
        assert reports_digest([outcomes[0].report]) == reports_digest(
            [serial]
        )


class TestCostTable:
    def test_longest_first_puts_s8_units_ahead(self):
        tasks = [
            ("fig02", None), ("s8_1", "sept-1"), ("fig12", None),
            ("s8_1", "may"),
        ]
        ordered = longest_first(tasks)
        assert ordered[0] == ("s8_1", "may")
        assert ordered[1] == ("s8_1", "sept-1")
        assert ordered[-1] == ("fig02", None)

    def test_unknown_experiment_gets_default_cost(self):
        assert task_cost("fig99") == pytest.approx(0.05)
        # Deterministic tie-break among unknowns.
        assert longest_first([("zz", None), ("aa", None)]) == [
            ("aa", None), ("zz", None),
        ]

    def test_unit_cost_falls_back_to_experiment(self):
        assert task_cost("s8_1", "no-such-unit") == task_cost("s8_1")


class TestReportPayload:
    def test_roundtrip(self, small_result):
        report = run_experiment("fig07", small_result)
        clone = report_from_payload(report_payload(report))
        assert reports_digest([clone]) == reports_digest([report])

    def test_payload_is_json_safe(self, small_result):
        report = run_experiment("fig12", small_result)
        json.dumps(report_payload(report))  # must not raise


class TestSweep:
    def test_rerun_is_byte_identical(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        first = run_sweep("small", [11, 12], ["fig02", "fig07"], jobs=2)
        monkeypatch.setattr(context, "_CACHE", {})
        second = run_sweep("small", [11, 12], ["fig02", "fig07"], jobs=2)
        dumps = lambda s: json.dumps(s, sort_keys=True)  # noqa: E731
        assert dumps(first) == dumps(second)

    def test_serial_and_pooled_sweeps_are_byte_identical(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        monkeypatch.setattr(context, "_CACHE", {})
        pooled = run_sweep("small", [11, 12], ["fig02", "fig07"], jobs=2)
        monkeypatch.setattr(context, "_CACHE", {})
        serial = run_sweep("small", [11, 12], ["fig02", "fig07"], jobs=1)
        dumps = lambda s: json.dumps(s, sort_keys=True)  # noqa: E731
        assert dumps(serial) == dumps(pooled)

    def test_one_seed_runs_in_process(self, seeded_cache, traced):
        dumps = lambda s: json.dumps(s, sort_keys=True)  # noqa: E731
        pooled = run_sweep("small", [7], ["fig02", "fig07"], jobs=2)
        events = traced()
        starts = [e for e in events if e["kind"] == "farm.start"]
        assert [(e["workers"], e["tasks"]) for e in starts] == [(0, 1)]
        pids = {e["pid"] for e in events if e["kind"] == "worker.task"}
        assert pids == {os.getpid()}
        serial = run_sweep("small", [7], ["fig02", "fig07"], jobs=1)
        assert dumps(pooled) == dumps(serial)

    def test_cold_seeds_build_once_each_in_their_own_worker(
        self, monkeypatch, tmp_path, traced
    ):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(context, "_CACHE", {})
        run_sweep("small", [13, 14], ["fig02"], jobs=2)
        events = traced()
        starts = [e for e in events if e["kind"] == "farm.start"]
        assert [(e["workers"], e["tasks"]) for e in starts] == [(2, 2)]
        builds = [e for e in events if e["kind"] == "cache.build.start"]
        assert sorted(e["seed"] for e in builds) == [13, 14]
        pids = {e["pid"] for e in builds}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_aggregates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        sweep = run_sweep("small", [11, 12], ["fig02"], jobs=1)
        assert sweep["seeds"] == [11, 12]
        for row in sweep["experiments"]["fig02"]["rows"]:
            values = [row["values"]["11"], row["values"]["12"]]
            assert row["mean"] == pytest.approx(sum(values) / 2)
            assert row["ci95"] == pytest.approx(
                1.96 * row["stddev"] / (2 ** 0.5)
            )

    def test_single_seed_has_zero_spread(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        sweep = run_sweep("small", [11], ["fig02"], jobs=1)
        for row in sweep["experiments"]["fig02"]["rows"]:
            assert row["stddev"] == 0.0
            assert row["ci95"] == 0.0

    def test_rejects_empty_and_duplicate_seeds(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="at least one seed"):
            run_sweep("small", [], ["fig02"])
        with pytest.raises(AnalysisError, match="duplicate"):
            run_sweep("small", [3, 3], ["fig02"])


_RACER = textwrap.dedent("""
    import os, sys
    from repro.simulation.engine import SimulationEngine

    _real_run = SimulationEngine.run

    def _instrumented(self, **kwargs):
        marker = os.path.join(
            os.environ["RACE_MARKER_DIR"], f"built-{os.getpid()}"
        )
        open(marker, "w").close()
        return _real_run(self, **kwargs)

    SimulationEngine.run = _instrumented

    from repro.experiments.context import get_result

    result = get_result("small", int(sys.argv[1]))
    print(result.chain.tip.hash)
""")


class TestBuildLock:
    def test_racing_cold_builds_simulate_once(self, tmp_path):
        """Two fresh processes, one cold entry: exactly one simulation."""
        cache = tmp_path / "cache"
        markers = tmp_path / "markers"
        markers.mkdir()
        env = dict(
            os.environ,
            REPRO_SCENARIO_CACHE=str(cache),
            RACE_MARKER_DIR=str(markers),
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACER, "13"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        tips = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            tips.append(out.strip())
        assert tips[0] == tips[1]
        assert len(list(markers.iterdir())) == 1
        entries = [p for p in cache.iterdir() if p.is_dir()]
        assert len(entries) == 1
        # The published entry's .lock sidecar must not be left behind.
        assert not list(cache.glob("*.lock"))

    def test_timeout_proceeds_with_warning(self, tmp_path):
        entry = tmp_path / "small-seed7-abc-v2"
        lock_path = tmp_path / (entry.name + ".lock")
        holder = open(lock_path, "w")
        try:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            with pytest.warns(RuntimeWarning, match="still held"):
                with build_lock(entry, timeout_s=0.3):
                    pass  # proceeded unlocked
        finally:
            holder.close()

    def test_none_entry_is_noop(self):
        with build_lock(None):
            pass

    def test_lock_released_after_use(self, tmp_path):
        entry = tmp_path / "entry"
        with build_lock(entry):
            pass
        probe = open(tmp_path / "entry.lock", "a+")
        try:
            # Must not block or raise: the previous holder released.
            fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            probe.close()

    def test_broken_flock_proceeds_immediately(self, tmp_path, monkeypatch):
        """A non-contention flock error (EBADF) must warn-and-proceed at
        once, not spin the 0.1 s poll loop for the full timeout."""
        import repro.parallel.locks as locks

        def broken_flock(fd, op):
            raise OSError(errno.EBADF, "Bad file descriptor")

        monkeypatch.setattr(locks.fcntl, "flock", broken_flock)
        entry = tmp_path / "entry"
        started = time.monotonic()
        with pytest.warns(RuntimeWarning, match="lock .* failed"):
            with build_lock(entry, timeout_s=600.0):
                pass  # proceeded unlocked
        # Far below the stale timeout: a handful of milliseconds.
        assert time.monotonic() - started < 5.0

    def test_enolck_also_fails_fast(self, tmp_path, monkeypatch):
        import repro.parallel.locks as locks

        def no_locks(fd, op):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(locks.fcntl, "flock", no_locks)
        started = time.monotonic()
        with pytest.warns(RuntimeWarning, match="lock .* failed"):
            with build_lock(tmp_path / "e", timeout_s=600.0):
                pass
        assert time.monotonic() - started < 5.0

    def test_sidecar_unlinked_after_published_build(self, tmp_path):
        """A successful build (entry published) leaves no stale .lock."""
        entry = tmp_path / "small-seed7-abc-v2"
        with build_lock(entry):
            entry.mkdir()
            (entry / "meta.json").write_text("{}")
        assert not (tmp_path / (entry.name + ".lock")).exists()
        assert (entry / "meta.json").exists()  # only the sidecar is gone

    def test_sidecar_kept_when_build_did_not_publish(self, tmp_path):
        """An unpublished entry keeps its lock file for the next attempt."""
        entry = tmp_path / "entry"
        with build_lock(entry):
            pass  # no meta.json: the build failed or was a dry hold
        assert (tmp_path / "entry.lock").exists()


class TestFarmTrace:
    def test_spawn_workers_join_the_trace(
        self, seeded_cache, tmp_path, monkeypatch
    ):
        """A farm run under REPRO_TRACE yields one JSON-lines file with
        parent and worker events sharing the run's trace id — even under
        ``spawn``, where workers inherit nothing but the environment."""
        trace_path = tmp_path / "farm-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        monkeypatch.setenv("REPRO_TRACE_ID", "farmtest01")
        obs.close_trace()  # re-arm the lazy env activation
        try:
            run_farm("small", 7, ["fig02", "fig12"], jobs=2,
                     start_method="spawn")
        finally:
            obs.close_trace()
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        kinds = {event["kind"] for event in events}
        assert {"farm.start", "farm.done", "worker.task"} <= kinds
        assert {event["trace"] for event in events} == {"farmtest01"}
        worker_pids = {
            event["pid"] for event in events if event["kind"] == "worker.task"
        }
        assert worker_pids and os.getpid() not in worker_pids
        ran = {
            event["experiment"]
            for event in events
            if event["kind"] == "worker.task"
        }
        assert ran == {"fig02", "fig12"}


class TestEnsureSnapshot:
    def test_returns_none_when_cache_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "off")
        assert context.ensure_snapshot("small", 7) is None

    def test_publishes_memoised_result(self, seeded_cache):
        # The result is memoised in-process but the fresh cache dir has
        # no entry yet; ensure_snapshot must publish without simulating.
        entry = context.ensure_snapshot("small", 7)
        assert entry is not None
        assert (entry / "meta.json").exists()
        digest = resolve("small", seed=7).digest[:12]
        assert entry.name == f"scn-seed7-{digest}-v{CHECKPOINT_SCHEMA_VERSION}"

    def test_unknown_scenario_raises(self):
        from repro.errors import ScenarioSpecError

        with pytest.raises(ScenarioSpecError, match="unknown scenario"):
            context.ensure_snapshot("nope", 7)
