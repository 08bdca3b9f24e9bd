"""The benchmark's child processes: each one drives the program's layers.

``run.py`` starts this script with a command and one JSON argument,
and reads one JSON line back from its standard output. Commands:

``reproduce``
    What ``python -m repro.experiments`` does at its default flags on a
    cold cache: ``get_result`` (simulate and persist), then every
    experiment on the in-memory result. Prints ``ready`` after its
    imports and waits for ``go`` on standard input, so the parent can
    time start-up apart from the reproduction.
``build``
    The fixture a serving workload needs: ``get_result`` on a cold cache
    and, with ``stop_day``, a second engine stopped at that day whose
    chain is ingested into ``day_db``.
``ingest``
    ``get_result`` from the warm cache, then ``ingest_chain`` into
    ``db``, timed between two monotonic stamps the parent uses to
    select the reads that ran beside the ingest.

With ``"trace": true`` the layers' public functions are wrapped so
their calls are recorded as spans (see ``spans.py``) and the spans are
returned with the result; nothing inside the program is changed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from spans import Tracer

from repro import obs
from repro.etl import EtlStore, ingest_chain
from repro.experiments import snapshot
from repro.experiments.context import get_result
from repro.experiments.registry import EXPERIMENTS, reports_digest, run_experiment
from repro.scenarios import resolve
from repro.simulation import SimulationEngine


def _instrument(tracer: Tracer) -> None:
    """Record the calls ``get_result`` makes into the lower layers."""
    tracer.wrap(SimulationEngine, "run", "simulation.SimulationEngine.run")
    tracer.wrap(snapshot, "save_result", "experiments.snapshot.save_result")
    tracer.wrap(snapshot, "load_result", "experiments.snapshot.load_result")


def _span_total(tracer: Tracer, name: str) -> float:
    """Seconds spent in the first span called ``name`` (0 if none)."""
    for span in tracer.spans:
        if span["name"] == name:
            return span["end"] - span["start"]
    return 0.0


def _chain_counts(chain) -> dict:
    return {
        "blocks": len(chain.blocks),
        "transactions": sum(1 for _ in chain.iter_transactions()),
    }


def _build_facts(tracer: Tracer, result, resolve_s: float) -> dict:
    """Per-layer facts about a cold build (filled only when traced)."""
    if not tracer.enabled:
        return {}
    return {
        "resolve_s": resolve_s,
        "run_s": _span_total(tracer, "simulation.SimulationEngine.run"),
        "save_s": _span_total(tracer, "experiments.snapshot.save_result"),
        "n_days": result.config.n_days,
        "phases": dict(result.day_loop_timings or {}),
        **_chain_counts(result.chain),
    }


def reproduce(config: dict, tracer: Tracer) -> dict:
    started = time.monotonic()
    with tracer.span("scenarios.resolve"):
        resolved = resolve(config["scenario"])
    resolve_s = time.monotonic() - started
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return {"skipped": True}
    t0, cpu0 = time.monotonic(), time.process_time()
    with tracer.span("experiments.context.get_result"):
        result = get_result(resolved)
    built = time.monotonic()
    experiments = {}
    reports = []
    for experiment_id in EXPERIMENTS.ids():
        started = time.monotonic()
        with tracer.span(f"analysis.{experiment_id}"):
            reports.append(run_experiment(experiment_id, result))
        experiments[experiment_id] = time.monotonic() - started
    t1, cpu1 = time.monotonic(), time.process_time()
    peak = obs.peak_rss_bytes()
    facts = _build_facts(tracer, result, resolve_s)
    with tracer.span("experiments.registry.reports_digest"):
        digest = reports_digest(reports)
    with tracer.span("experiments.snapshot.result_digest"):
        result_digest = snapshot.result_digest(result)
    out = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "get_result_s": built - t0,
        "experiments": experiments,
        "reports_digest": digest,
        "result_digest": result_digest,
        "peak_rss_bytes": peak,
        **facts,
    }
    if config.get("resident"):
        # The same entry reloaded from disk holds a resident chain; the
        # gap to the cold pass is what reading the chain log costs.
        (entry,) = [
            path for path in Path(config["cache"]).glob("scn-*")
            if (path / "meta.json").exists()
        ]
        started = time.monotonic()
        resident = snapshot.load_result(entry)
        loaded = time.monotonic()
        again = []
        with tracer.span("analysis.resident"):
            for experiment_id in EXPERIMENTS.ids():
                again.append(run_experiment(experiment_id, resident))
        out["resident"] = {
            "load_s": loaded - started,
            "total_s": time.monotonic() - loaded,
            "reports_digest": reports_digest(again),
        }
    return out


def build(config: dict, tracer: Tracer) -> dict:
    t0 = time.monotonic()
    with tracer.span("scenarios.resolve"):
        resolved = resolve(config["scenario"])
    resolve_s = time.monotonic() - t0
    with tracer.span("experiments.context.get_result"):
        result = get_result(resolved)
    out = {"build_s": time.monotonic() - t0}
    out.update(_build_facts(tracer, result, resolve_s))
    stop_day = config.get("stop_day")
    if stop_day:
        started = time.monotonic()
        engine = SimulationEngine(resolved.config)
        engine.run(stop_after_day=stop_day, checkpoint_dir=config["checkpoint"])
        with tracer.span("etl.EtlStore"):
            store = EtlStore(config["day_db"])
        with tracer.span("etl.ingest_chain"):
            report = ingest_chain(engine.state.chain, store)
        out["day_store"] = {
            "wall_s": time.monotonic() - started,
            "blocks": report.blocks_ingested,
            "hotspots": store.hotspot_count,
        }
        store.close()
    with tracer.span("experiments.snapshot.result_digest"):
        out["result_digest"] = snapshot.result_digest(result)
    return out


def ingest(config: dict, tracer: Tracer) -> dict:
    t0, cpu0 = time.monotonic(), time.process_time()
    with tracer.span("experiments.context.get_result"):
        result = get_result(resolve(config["scenario"]))
    loaded = time.monotonic()
    with tracer.span("etl.EtlStore"):
        store = EtlStore(config["db"])
    with tracer.span("etl.ingest_chain"):
        report = ingest_chain(result.chain, store)
    t1, cpu1 = time.monotonic(), time.process_time()
    out = {
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "load_s": loaded - t0,
        "ingest_s": t1 - loaded,
        "blocks": report.blocks_ingested,
        "transactions": report.transactions_ingested,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }
    if tracer.enabled:
        out["snapshot_load_s"] = _span_total(
            tracer, "experiments.snapshot.load_result")
        started = time.monotonic()
        with tracer.span("etl.ingest_chain", noop=True):
            ingest_chain(result.chain, store)
        out["noop_resume_s"] = time.monotonic() - started
    if config.get("digest"):
        with tracer.span("etl.content_digest"):
            out["content_digest"] = store.content_digest()
        out["counts"] = store.counts()
    store.close()
    db = Path(config["db"])
    out["db_bytes"] = sum(
        path.stat().st_size
        for path in (db, db.with_name(db.name + "-wal"))
        if path.exists()
    )
    return out


COMMANDS = {"reproduce": reproduce, "build": build, "ingest": ingest}


def main(argv) -> int:
    command, config = argv[0], json.loads(argv[1])
    tracer = Tracer(bool(config.get("trace")), prefix=f"{command}{os.getpid()}.")
    if tracer.enabled:
        _instrument(tracer)
    out = COMMANDS[command](config, tracer)
    out["spans"] = tracer.spans
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
