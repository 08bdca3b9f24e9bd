"""One pipeline benchmark: cold reproduce, ingest under reads, explorer traffic.

Run from the repository root::

    python benchmarks/pipeline/run.py --seed 2021           # every workload
    python benchmarks/pipeline/run.py --workload explore-hot --seed 7 \\
        --seconds 15 --trace 0
    python benchmarks/pipeline/run.py --workload reproduce-cold --trace 1 \\
        --trace-out trace.jsonl
    python benchmarks/pipeline/run.py report trace.jsonl
    python benchmarks/pipeline/run.py compare PARENT_RESULTS CHANGE_RESULTS

Each invocation builds its fixtures from source under a temporary root
inside the checkout, runs the workloads against the program as child
processes, checks the program's outputs against pinned digests, prints
every metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics, or with ``--trace 1`` the per-layer ones. A full result with
a host block is written under ``results/`` beside this file. A failed
correctness gate, or a workload that fails for any other reason,
exits with status 1; a checkout without the program exits with
status 2. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from openloop import DEADLINE_S, OpenLoop, Request, fetch_once, poisson_arrivals
from spans import Tracer, format_report, read_spans
from verdicts import percentile, supported_quantile, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = HERE / "scenario.json"
PINS = HERE / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("reproduce-cold", "ingest-under-read", "explore-hot", "explore-cold")

#: reproduce-cold child start-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Servers each explore-* run starts on its one store, each measured
#: for an equal share of ``--seconds``; ``setup_s`` adds the median
#: server start-up to the fixture build. With six, at the default 20 s,
#: each server's explore-cold requests and crawl fit in its 727
#: distinct pages, so none is a cache hit.
SERVERS = 6
#: Connections the load uses (capped at nproc).
CONNECTIONS = 2
#: Open-loop arrival rates (requests/s), fixed before any measurement.
#: A 200 with a body on a keep-alive connection waits ~44 ms for the
#: client's delayed ACK (the server writes headers and body apart). At
#: COLD_RATE and INGEST_READ_RATE, where most responses carry a body,
#: that caps two connections near 45 responses/s and most requests
#: would miss the deadline, so those reads open one HTTP/1.0
#: connection each. explore-hot's 304s carry no body and use
#: keep-alive connections.
HOT_RATE = 500.0
COLD_RATE = 100.0
INGEST_READ_RATE = 200.0
ZIPF_S = 1.1
#: Hotspot pages in the hot set (with /stats, /hotspots, /coverage/dots).
HOT_PAGES = 200
HEAD_ROUTES = ["/stats", "/hotspots?limit=50", "/coverage/dots"]
#: The day the ingest-under-read store is built at, of the spec's 180.
STOP_DAY = 60
#: Requests in each server's closed-loop crawl. The server's CPU time
#: over the crawls is explore-* ``cpu_s``; the median crawl time is
#: their ``wall_s``.
HOT_CRAWL = 1000
COLD_CRAWL = 300
#: Response bodies compared with the store-backed explorer's renders.
BODY_CHECKS = 50
#: Generator lag p90 above this marks a run invalid.
MAX_GEN_LAG_MS = 5.0

PHASES = ("deploy", "transfers", "moves", "online", "index", "poc",
          "traffic", "rewards", "encash", "mint", "log")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "wall_s": "s",
    "cpu_s": "s",
    "scenarios.resolve_s": "s",
    "simulation.run_s": "s",
    "simulation.days_per_s": "1/s",
    "simulation.unphased_s": "s",
    **{f"simulation.phase.{phase}_s": "s" for phase in PHASES},
    "experiments.snapshot_save_s": "s",
    "experiments.snapshot_load_s": "s",
    "chain.blocks": "count",
    "chain.transactions": "count",
    "analysis.reports": "count",
    "analysis.reports_per_s": "1/s",
    "analysis.chainlog_ratio": "ratio",
    "etl.ingest.blocks_per_s": "1/s",
    "etl.ingest.txns_per_s": "1/s",
    "etl.db_bytes_per_txn": "B",
    "serve.requests": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.revalidated_frac": "ratio",
    "serve.cache.invalidated": "count",
    "serve.handler_share": "ratio",
    "serve.shed": "count",
    "serve.handler_errors": "count",
    "server.cpu_util": "ratio",
    "server.reqs_per_cpu_s": "1/s",
    "client.bytes_per_req": "B",
    "client.queue_wait_frac": "ratio",
    "client.p50_ms": "ms",
    "client.p90_to_p50": "ratio",
    "gen.cpu_frac": "ratio",
}


class GateError(Exception):
    """A correctness gate failed: the program's output is wrong."""


def gate(name: str, observed, expected, gates: List[Dict]) -> None:
    """Record one correctness check; raise :class:`GateError` on mismatch."""
    passed = observed == expected
    gates.append({"gate": name, "passed": passed,
                  "observed": observed, "expected": expected})
    if not passed:
        raise GateError(f"{name}: observed {observed!r}, expected {expected!r}")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- processes --------------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    db: Path


class Run:
    """One invocation: its temp root, child processes and tracer.

    Every child is started here and :meth:`close` stops and waits for
    any still running, so an interrupted run leaves nothing behind.
    """

    def __init__(self, work: Path, tracer: Tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.procs: List[subprocess.Popen] = []
        self._serial = 0
        (work / "tmp").mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        self.env["TMPDIR"] = str(work / "tmp")
        self.env["PYTHONUNBUFFERED"] = "1"
        # One hash seed for every child, so set and dict layouts, and the
        # time they cost, do not differ from one process to the next.
        self.env["PYTHONHASHSEED"] = "0"

    def path(self, name: str) -> Path:
        return self.work / name

    def spawn(self, args: List[str], cache: Optional[Path] = None,
              stdin=None, stdout=None) -> Tuple[subprocess.Popen, Path]:
        """Start a child; returns it and the file its stderr goes to."""
        self._serial += 1
        log = self.work / f"child-{self._serial}.log"
        env = dict(self.env)
        if cache is not None:
            env["REPRO_SCENARIO_CACHE"] = str(cache)
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                args, cwd=ROOT, env=env, stdin=stdin, stdout=stdout,
                stderr=err,
            )
        self.procs.append(proc)
        return proc, log

    def worker_args(self, command: str, config: Dict) -> List[str]:
        config = dict(config, scenario=str(SPEC), trace=self.tracer.enabled)
        return [sys.executable, str(HERE / "worker.py"), command,
                json.dumps(config)]

    def start_worker(self, command: str, config: Dict,
                     cache: Path) -> Tuple[subprocess.Popen, Path, Path]:
        """Start a worker whose result line goes to a file."""
        out = self.work / f"out-{self._serial + 1}.json"
        with open(out, "wb") as handle:
            proc, log = self.spawn(self.worker_args(command, config),
                                   cache=cache, stdout=handle)
        return proc, log, out

    def finish_worker(self, proc: subprocess.Popen, log: Path,
                      out: Path) -> Dict:
        proc.wait()
        return self.parse_result(proc, log, out.read_text())

    def worker(self, command: str, config: Dict, cache: Path) -> Dict:
        """Run a worker to completion and return its result."""
        return self.finish_worker(*self.start_worker(command, config, cache))

    def parse_result(self, proc, log: Path, text: str) -> Dict:
        """The result line a finished child printed (its spans merged)."""
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"child {proc.args[2:3]} exited {proc.returncode}:\n{tail}"
            )
        result = json.loads(text.strip().splitlines()[-1])
        self.tracer.extend(result.pop("spans", []), parent=self.tracer.current)
        return result

    def start_server(self, db: Path) -> Server:
        """Start ``python -m repro.serve`` on ``db`` at an ephemeral port."""
        log = self.work / f"server-{self._serial + 1}.out"
        with open(log, "wb") as handle:
            proc, _ = self.spawn(
                [sys.executable, "-m", "repro.serve", "serve", "--db",
                 str(db), "--port", "0", "--quiet"],
                stdout=handle,
            )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://([\d.]+):(\d+)/",
                              log.read_text())
            if match:
                return Server(proc, match.group(1), int(match.group(2)), db)
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server on {db} did not start: {log.read_text()}")

    def stop_server(self, server: Server) -> None:
        server.proc.send_signal(signal.SIGTERM)
        try:
            server.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait()

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def proc_status_kb(pid: int, field_name: str) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field_name} for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def server_metrics(server: Server) -> Dict:
    status, _, body = fetch_once(server.host, server.port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics returned {status}")
    return json.loads(body)


def warm_up(server: Server, paths: List[str], etags: Optional[Dict[str, str]],
            bodies: Optional[Dict[str, bytes]] = None) -> int:
    """Fetch each path once over short-lived HTTP/1.0 connections;
    returns how many did not answer 200."""
    bad = 0
    for path in paths:
        status, headers, body = fetch_once(server.host, server.port, path)
        bad += status != 200
        if etags is not None and "etag" in headers:
            etags[path] = headers["etag"]
        if bodies is not None:
            bodies[path] = body
    return bad


# -- measurement windows ----------------------------------------------------


@dataclass
class Window:
    """What one open-loop phase saw, client and server side."""

    requests: List[Request] = field(default_factory=list)
    wall_s: float = 0.0
    gen_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    handler_s: float = 0.0

    def add(self, other: "Window") -> None:
        self.requests.extend(other.requests)
        self.wall_s += other.wall_s
        self.gen_cpu_s += other.gen_cpu_s
        self.server_cpu_s += other.server_cpu_s
        self.handler_s += other.handler_s
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


_COUNTERS = ("serve.cache.hit", "serve.cache.miss", "serve.cache.revalidated",
             "serve.cache.invalidated", "serve.shed", "serve.handler_errors")


def _served(snapshot: Dict) -> Tuple[Dict[str, float], float]:
    """Counters of interest plus store-route request count and handler
    seconds (``/metrics`` itself excluded)."""
    counters = snapshot.get("counters", {})
    picked = {name: counters.get(name, 0) for name in _COUNTERS}
    picked["requests"] = sum(
        value for key, value in counters.items()
        if key.startswith("serve.requests{") and "route=metrics" not in key
    )
    handler = sum(
        timer["sum"] for key, timer in snapshot.get("timers", {}).items()
        if key.startswith("serve.latency_s{") and "route=metrics" not in key
    )
    return picked, handler


def measure(server: Server, drive: Callable[[], List[Request]]) -> Window:
    """Run ``drive`` and take client, server and generator deltas."""
    before, handler0 = _served(server_metrics(server))
    cpu0 = proc_cpu_s(server.proc.pid)
    gen0, wall0 = time.process_time(), time.monotonic()
    requests = drive()
    wall1, gen1 = time.monotonic(), time.process_time()
    cpu1 = proc_cpu_s(server.proc.pid)
    after, handler1 = _served(server_metrics(server))
    return Window(
        requests=requests, wall_s=wall1 - wall0, gen_cpu_s=gen1 - gen0,
        server_cpu_s=cpu1 - cpu0, handler_s=handler1 - handler0,
        counters={k: after[k] - before[k] for k in after},
    )


def trace_request(tracer: Tracer) -> Optional[Callable[[Request], None]]:
    """Per-request spans: due → done, split into queue wait and service."""
    if not tracer.enabled:
        return None
    parent = tracer.current

    def record(request: Request) -> None:
        span = tracer.add("client.request", request.due, request.done,
                          parent=parent, path=request.path,
                          status=request.status)
        tracer.add("client.queue_wait", request.due, request.sent, parent=span)
        tracer.add("client.service", request.sent, request.done, parent=span)

    return record


def latency_ms(values_s: List[float], cap_s: float = DEADLINE_S) -> Dict:
    """p50/p90/p99 in ms, failures (infinite) read as ``cap_s``, with
    the sample size and the highest percentile it supports."""
    if not values_s:
        raise RuntimeError("no requests completed in the measured window")
    cap = cap_s * 1000.0
    ms = [value * 1000.0 for value in values_s]
    return {
        "n": len(ms),
        "p50_ms": percentile(ms, 0.5, cap),
        "p90_ms": percentile(ms, 0.9, cap),
        "p99_ms": percentile(ms, 0.99, cap),
        "supported_quantile": supported_quantile(len(ms)),
    }


def client_latency(latency: Dict) -> Dict[str, float]:
    return {"client.p50_ms": latency["p50_ms"],
            "client.p90_to_p50": ratio(latency["p90_ms"], latency["p50_ms"])}


def serving_layers(window: Window, latency: Dict) -> Dict[str, float]:
    """Server and client layers over ``window``; ``latency`` is the
    workload's latency sample."""
    done = [r for r in window.requests if not math.isnan(r.done)]
    served = window.counters.get("requests", 0)
    hits = window.counters.get("serve.cache.hit", 0)
    misses = window.counters.get("serve.cache.miss", 0)
    service = sum(r.done - r.sent for r in done)
    return {
        "serve.requests": served,
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.revalidated_frac": ratio(
            window.counters.get("serve.cache.revalidated", 0), served),
        "serve.cache.invalidated": window.counters.get(
            "serve.cache.invalidated", 0),
        "serve.handler_share": ratio(window.handler_s, service),
        "serve.shed": window.counters.get("serve.shed", 0),
        "serve.handler_errors": window.counters.get("serve.handler_errors", 0),
        "server.cpu_util": ratio(window.server_cpu_s, window.wall_s),
        "server.reqs_per_cpu_s": ratio(served, window.server_cpu_s),
        "client.bytes_per_req": ratio(sum(r.nbytes for r in done), len(done)),
        "client.queue_wait_frac": ratio(
            sum(r.sent - r.due for r in done),
            sum(r.done - r.due for r in done)),
        **client_latency(latency),
        "gen.cpu_frac": ratio(window.gen_cpu_s, window.wall_s),
    }


def build_layers(build: Dict) -> Dict[str, float]:
    """Simulation and snapshot layers of a traced cold build."""
    layers = {
        "scenarios.resolve_s": build["resolve_s"],
        "simulation.run_s": build["run_s"],
        "simulation.days_per_s": build["n_days"] / build["run_s"],
        "simulation.unphased_s": build["run_s"] - sum(build["phases"].values()),
        "experiments.snapshot_save_s": build["save_s"],
        "chain.blocks": build["blocks"],
        "chain.transactions": build["transactions"],
    }
    for phase in PHASES:
        layers[f"simulation.phase.{phase}_s"] = build["phases"].get(phase, 0.0)
    return layers


def ingest_layers(ingests: List[Dict]) -> Dict[str, float]:
    return {
        "experiments.snapshot_load_s": median(
            i["snapshot_load_s"] for i in ingests),
        "etl.ingest.blocks_per_s": median(
            i["blocks"] / i["ingest_s"] for i in ingests),
        "etl.ingest.txns_per_s": median(
            i["transactions"] / i["ingest_s"] for i in ingests),
        "etl.db_bytes_per_txn": median(
            i["db_bytes"] / i["transactions"] for i in ingests),
    }


@dataclass
class Outcome:
    """One workload's result before it is printed."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    gates: List[Dict]
    digests: Dict[str, str]
    details: Dict
    gen_lag_ms: Optional[float] = None


def job_times(passes: List[Dict]) -> Dict[str, float]:
    """Median wall and CPU seconds of a child's measured job."""
    return {"wall_s": median(out["wall_s"] for out in passes),
            "cpu_s": median(out["cpu_s"] for out in passes)}


def another_pass(began: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean so far, still ends
    within the measured ``seconds``."""
    elapsed = time.monotonic() - began
    return elapsed + elapsed / passes <= seconds


# -- workloads --------------------------------------------------------------


def reproduce_cold(run: Run, seed: int, seconds: float, pins: Dict) -> Outcome:
    tracer = run.tracer
    setups: List[float] = []

    def start(index: int, resident: bool):
        cache = run.path(f"cache-{index}")
        started = time.monotonic()
        proc, log = run.spawn(
            run.worker_args("reproduce", {"cache": str(cache),
                                          "resident": resident}),
            cache=cache, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        if line.strip() != b"ready":
            proc.wait()
            raise RuntimeError(f"reproduce child failed: {log.read_text()}")
        setups.append(time.monotonic() - started)
        return proc, log

    def finish(child, command: str) -> Dict:
        proc, log = child
        text, _ = proc.communicate(command.encode() + b"\n")
        return run.parse_result(proc, log, text.decode())

    with tracer.span("bench.setup"):
        for index in range(SETUPS - 1):
            finish(start(index, False), "exit")
        child = start(SETUPS - 1, tracer.enabled)
    passes: List[Dict] = []
    began = time.monotonic()
    while True:
        with tracer.span("bench.pass", index=len(passes)):
            passes.append(finish(child, "go"))
        if not another_pass(began, len(passes), seconds):
            break
        child = start(SETUPS + len(passes), False)

    gates: List[Dict] = []
    for out in passes:
        gate("result_digest", out["result_digest"], pins["result_digest"],
             gates)
        gate("reports_digest", out["reports_digest"], pins["reports_digest"],
             gates)
    first = passes[0]
    # Like ``python -m repro.experiments``, a pass hands all 21 reports
    # over together when the last is done, so every report's latency
    # from the request is the pass's wall time.
    reports = [out["wall_s"] for out in passes
               for _ in out["experiments"]]
    latency = latency_ms(reports, cap_s=math.inf)
    layers = {}
    if tracer.enabled:
        resident = first["resident"]
        gate("resident_reports_digest", resident["reports_digest"],
             first["reports_digest"], gates)
        analysis_s = sum(first["experiments"].values())
        layers = {
            **build_layers(first),
            "experiments.snapshot_load_s": resident["load_s"],
            "analysis.reports": len(first["experiments"]),
            "analysis.reports_per_s": len(first["experiments"]) / analysis_s,
            "analysis.chainlog_ratio": analysis_s / resident["total_s"],
            **client_latency(latency),
        }
        accounted = first["run_s"] + first["save_s"] + analysis_s
        first["accounted_frac"] = accounted / first["wall_s"]
    return Outcome(
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": median(out["peak_rss_bytes"] for out in passes) / 2**20,
        },
        layers={**layers, **job_times(passes)},
        attempted=len(reports) + len(gates),
        failed=0,
        gates=gates,
        digests={"result_digest": first["result_digest"],
                 "reports_digest": first["reports_digest"]},
        details={"setups_s": setups, "passes": passes, "latency": latency},
    )


def _store_paths(db: Path) -> Tuple[List[str], List[str]]:
    """``(hotspot pages, owner pages)`` in ledger order."""
    from repro.etl import EtlStore

    with EtlStore(db, create=False, read_only=True) as store:
        gateways = [row[0] for row in store.hotspot_rows()]
        owners = sorted({store.query_hotspot_page(g).owner for g in gateways})
    return ([f"/hotspot/{g}" for g in gateways],
            [f"/owner/{o}" for o in owners])


def _hot_paths(hotspot_pages: List[str]) -> List[str]:
    """The zipf-ranked hot set: three head routes, then hotspot pages."""
    return HEAD_ROUTES + hotspot_pages[:HOT_PAGES]


def check_bodies(db: Path, bodies: Dict[str, bytes], seed: int,
                 gates: List[Dict]) -> int:
    """Compare up to :data:`BODY_CHECKS` served hotspot and owner pages,
    sampled by seed, with ``Explorer.from_store`` renders."""
    from repro.core.explorer import Explorer
    from repro.etl import EtlStore
    from repro.etl.server import owner_to_json, page_to_json

    pages = sorted(path for path in bodies
                   if re.fullmatch(r"/(hotspot|owner)/[^/]+", path))
    sample = random.Random(seed).sample(pages, min(BODY_CHECKS, len(pages)))
    wrong = []
    with EtlStore(db, create=False, read_only=True) as store:
        explorer = Explorer.from_store(store)
        for path in sample:
            kind, key = path.strip("/").split("/")
            page = (explorer.hotspot(key) if kind == "hotspot"
                    else explorer.owner(key))
            render = page_to_json if kind == "hotspot" else owner_to_json
            if json.loads(bodies[path]) != render(page):
                wrong.append(path)
    gate("sampled_bodies_match_explorer", wrong, [], gates)
    return len(sample)


def explore(run: Run, seed: int, seconds: float, pins: Dict,
            hot: bool) -> Outcome:
    from repro.serve.loadgen import ZipfPaths

    tracer = run.tracer
    cache, db = run.path("cache"), run.path("store.db")
    with tracer.span("bench.fixtures"):
        started = time.monotonic()
        build = run.worker("build", {}, cache)
        ingest = run.worker("ingest", {"db": str(db)}, cache)
        fixture_s = time.monotonic() - started
    pages, owners = _store_paths(db)
    if hot:
        ranked = ZipfPaths(_hot_paths(pages), s=ZIPF_S)
        etags: Optional[Dict[str, str]] = {}
    else:
        cold = pages + [p + "/witnesses" for p in pages] + owners
        etags = None
    rng = random.Random(seed)
    setups: List[float] = []
    gates: List[Dict] = []
    bodies: Dict[str, bytes] = {}
    window = Window()
    crawl_walls: List[float] = []
    crawl_cpus: List[float] = []
    crawled: List[Request] = []
    peaks_kb: List[int] = []
    retries = 0
    server: Optional[Server] = None
    # Each server takes an equal share of the measured time and one
    # crawl, so the measured time spans the whole run and one process's
    # placement and memory layout is one sample of several.
    try:
        for index in range(SERVERS):
            if hot:
                warm = ranked.paths
                choose = ranked.sample
                crawl = [ranked.sample(rng) for _ in range(HOT_CRAWL)]
            else:
                # A fresh server has an empty cache; on it every path
                # is requested at most once (until the cycle wraps), so
                # every request misses the cache.
                order = list(cold)
                rng.shuffle(order)
                warm = HEAD_ROUTES
                fresh = itertools.cycle(order[:-COLD_CRAWL])
                choose = lambda _rng: next(fresh)  # noqa: E731
                crawl = order[-COLD_CRAWL:]
            with tracer.span("bench.setup", index=index):
                started = time.monotonic()
                server = run.start_server(db)
                bad = warm_up(server, warm, etags, bodies)
                setups.append(time.monotonic() - started)
            if bad:
                raise GateError(f"{bad} warm-up requests did not answer 200")

            loop = OpenLoop(server.host, server.port, CONNECTIONS, etags=etags,
                            keep_bodies=set(pages + owners), keep_alive=hot,
                            on_request=trace_request(tracer))
            with tracer.span("bench.open_loop", server=index):
                window.add(measure(server, lambda: loop.run(poisson_arrivals(
                    seed * 1000 + index, HOT_RATE if hot else COLD_RATE,
                    seconds / SERVERS, choose))))
            retries += loop.retries
            loop.close()
            crawler = OpenLoop(server.host, server.port, CONNECTIONS,
                               etags=etags, deadline_s=None, keep_alive=hot)
            with tracer.span("bench.crawl", server=index):
                cpu0, started = proc_cpu_s(server.proc.pid), time.monotonic()
                crawled += crawler.run([(0.0, path) for path in crawl])
                crawl_walls.append(time.monotonic() - started)
                crawl_cpus.append(proc_cpu_s(server.proc.pid) - cpu0)
            crawler.close()
            peaks_kb.append(proc_status_kb(server.proc.pid, "VmHWM"))
            run.stop_server(server)
            server = None
    finally:
        if server is not None:
            run.stop_server(server)

    gate("result_digest", build["result_digest"], pins["result_digest"], gates)
    bodies.update((r.path, r.body) for r in window.requests
                  if r.body is not None)
    checked = check_bodies(db, bodies, seed, gates)
    latency = latency_ms([r.latency for r in window.requests])
    layers = {}
    if tracer.enabled:
        layers = {**build_layers(build), **ingest_layers([ingest]),
                  **serving_layers(window, latency)}
    lags = [r.lag * 1000 for r in window.requests if not math.isnan(r.sent)]
    return Outcome(
        metrics={
            "setup_s": fixture_s + median(setups),
            "peak_rss_mb": median(peaks_kb) / 1024,
        },
        layers={**layers, "wall_s": median(crawl_walls),
                "cpu_s": sum(crawl_cpus)},
        attempted=len(window.requests) + len(crawled) + len(gates),
        failed=sum(r.failed for r in window.requests + crawled),
        gates=gates,
        digests={"result_digest": build["result_digest"]},
        details={"fixture_s": fixture_s, "server_setups_s": setups,
                 "crawl_walls_s": crawl_walls, "crawl_cpus_s": crawl_cpus,
                 "latency": latency,
                 "bodies_checked": checked, "retries": retries,
                 "statuses": _statuses(window.requests),
                 "build": build, "ingest": ingest,
                 "serving": serving_layers(window, latency)},
        gen_lag_ms=percentile(lags, 0.9) if lags else 0.0,
    )


def _statuses(requests: List[Request]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for request in requests:
        key = str(request.status) if request.status else "none"
        counts[key] = counts.get(key, 0) + 1
    return counts


def ingest_under_read(run: Run, seed: int, seconds: float,
                      pins: Dict) -> Outcome:
    from repro.serve.loadgen import ZipfPaths

    tracer = run.tracer
    cache, day_db = run.path("cache"), run.path("day.db")
    with tracer.span("bench.fixtures"):
        started = time.monotonic()
        build = run.worker("build", {
            "stop_day": STOP_DAY, "day_db": str(day_db),
            "checkpoint": str(run.path("ckpt")),
        }, cache)
        reference = run.worker("ingest", {
            "db": str(run.path("reference.db")), "digest": True}, cache)
        fixture_s = time.monotonic() - started
    # The explore-hot mix over the pages present at STOP_DAY, with ETags
    # replayed: every commit the ingest makes stales them all.
    ranked = ZipfPaths(_hot_paths(_store_paths(day_db)[0]), s=ZIPF_S)
    etags: Dict[str, str] = {}
    setups: List[float] = []
    gates: List[Dict] = []
    passes: List[Dict] = []
    window = Window()
    #: Reads due while ``ingest_chain`` ran: the end-to-end latency sample.
    beside: List[Request] = []
    server: Optional[Server] = None
    began = time.monotonic()
    try:
        while True:
            index = len(passes)
            with tracer.span("bench.setup", index=index):
                started = time.monotonic()
                served = run.path(f"served-{index}.db")
                shutil.copyfile(day_db, served)
                server = run.start_server(served)
                bad = warm_up(server, ranked.paths, etags)
                setups.append(time.monotonic() - started)
            if bad:
                raise GateError(f"{bad} warm-up requests did not answer 200")
            with tracer.span("bench.pass", index=index):
                child = run.start_worker(
                    "ingest", {"db": str(served), "digest": True}, cache)
                loop = OpenLoop(server.host, server.port, CONNECTIONS,
                                etags=etags, keep_alive=False,
                                on_request=trace_request(tracer))
                arrivals = poisson_arrivals(seed * 1000 + index,
                                            INGEST_READ_RATE, math.inf,
                                            ranked.sample)
                part = measure(server, lambda: loop.run(
                    arrivals, stop=lambda: child[0].poll() is not None))
                loop.close()
                out = run.finish_worker(*child)
            passes.append(out)
            window.add(part)
            beside += [r for r in part.requests
                       if out["t0"] + out["load_s"] <= r.due <= out["t1"]]
            run.stop_server(server)
            server = None
            gate("ingest_content_digest", out["content_digest"],
                 reference["content_digest"], gates)
            if not another_pass(began, len(passes), seconds):
                break
    finally:
        if server is not None:
            run.stop_server(server)

    gate("result_digest", build["result_digest"], pins["result_digest"], gates)
    counts = reference["counts"]
    gate("store_blocks", counts["blocks"], pins["store_blocks"], gates)
    gate("store_transactions", counts["transactions"],
         pins["store_transactions"], gates)
    latency = latency_ms([r.latency for r in beside])
    layers = {}
    if tracer.enabled:
        layers = {**build_layers(build), **ingest_layers(passes),
                  **serving_layers(window, latency)}
    lags = [r.lag * 1000 for r in window.requests if not math.isnan(r.sent)]
    return Outcome(
        metrics={
            "setup_s": fixture_s + median(setups),
            "peak_rss_mb": median(o["peak_rss_bytes"] for o in passes) / 2**20,
        },
        layers={**layers, **job_times(passes)},
        attempted=len(window.requests) + len(gates),
        failed=sum(r.failed for r in window.requests),
        gates=gates,
        digests={"result_digest": build["result_digest"],
                 "content_digest": reference["content_digest"]},
        details={"fixture_s": fixture_s, "server_setups_s": setups,
                 "passes": passes, "latency": latency, "build": build,
                 "statuses": _statuses(window.requests),
                 "serving": serving_layers(window, latency)},
        gen_lag_ms=percentile(lags, 0.9) if lags else 0.0,
    )


RUNNERS = {
    "reproduce-cold": reproduce_cold,
    "ingest-under-read": ingest_under_read,
    "explore-hot": lambda *args: explore(*args, hot=True),
    "explore-cold": lambda *args: explore(*args, hot=False),
}


# -- host, validity, output -------------------------------------------------


def host_block() -> Dict:
    import numpy

    def git(*args) -> Optional[str]:
        if not (ROOT / ".git").exists():
            return None
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": os.getloadavg(),
    }


def validity(host: Dict, outcome: Outcome) -> Dict:
    reasons = []
    if outcome.gen_lag_ms is not None and outcome.gen_lag_ms > MAX_GEN_LAG_MS:
        reasons.append(f"generator lag p90 {outcome.gen_lag_ms:.2f} ms "
                       f"> {MAX_GEN_LAG_MS} ms")
    if host["loadavg_start"][0] > len(host["sched_getaffinity"]):
        reasons.append(f"load average {host['loadavg_start'][0]:.2f} at start "
                       f"exceeds {len(host['sched_getaffinity'])} CPUs")
    return {"valid": not reasons, "reasons": reasons,
            "gen_lag_ms_p90": outcome.gen_lag_ms}


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer,
                 pins: Dict) -> Dict:
    """Run one workload in its own temp root; returns its result."""
    traced = tracer.enabled
    host = host_block()
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    run = Run(work, tracer)
    error: Optional[str] = None
    outcome: Optional[Outcome] = None
    limit_s = int(120 + 2 * seconds)

    def overrun(signum, frame):
        raise TimeoutError(f"{name} still running after {limit_s} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(limit_s)
    try:
        with tracer.span("bench.workload", workload=name, seed=seed):
            outcome = RUNNERS[name](run, seed, seconds, pins)
    except GateError as exc:
        error = f"correctness gate: {exc}"
    except Exception:
        # An overrun, a failed child or server, or a broken measurement:
        # the workload fails, and the result and summary are still written.
        error = traceback.format_exc()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        run.close()
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "host": host, "correct": error is None,
        "error": error,
    }
    if outcome is not None:
        result.update({
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": outcome.metrics,
            "wall_s": outcome.layers["wall_s"],
            "cpu_s": outcome.layers["cpu_s"],
            "per_layer": {key: outcome.layers.get(key, 0.0)
                          for key in PER_LAYER} if traced else {},
            "gates": outcome.gates, "digests": outcome.digests,
            "validity": validity(host, outcome), "details": outcome.details,
        })
    return result


def print_result(result: Dict) -> None:
    name = result["workload"]
    if not result["correct"]:
        print(f"[{name}] FAILED: {result['error']}")
        return
    for key, unit in END_TO_END.items():
        print(f"[{name}] {key:<28} {result['metrics'][key]:>14.6g} {unit}")
    for key, unit in PER_LAYER.items() if result["trace"] else ():
        print(f"[{name}] {key:<28} {result['per_layer'][key]:>14.6g} {unit}")
    latency = result["details"]["latency"]
    job = "" if result["trace"] else (f" wall_s={result['wall_s']:.4g} s"
                                      f" cpu_s={result['cpu_s']:.4g} s")
    print(f"[{name}]{job} latency n={latency['n']} p50={latency['p50_ms']:.4g} ms"
          f" p90={latency['p90_ms']:.4g} ms p99={latency['p99_ms']:.4g} ms"
          f" (ten beyond up to p{latency['supported_quantile'] * 100:g})")
    passed = sum(g["passed"] for g in result["gates"])
    print(f"[{name}] attempted={result['attempted']} failed={result['failed']}"
          f" gates={passed}/{len(result['gates'])} passed"
          f" valid={result['validity']['valid']}"
          + "".join(f" ({reason})" for reason in result["validity"]["reasons"]))


def summary_line(results: List[Dict], traced: bool) -> Dict:
    units = PER_LAYER if traced else END_TO_END
    metrics = {}
    for result in results:
        values = result.get("per_layer" if traced else "metrics", {})
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for key, unit in units.items():
            if key in values:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r.get("attempted", 0) for r in results) or 1,
        "failed": sum(r.get("failed", 0) for r in results),
        "metrics": metrics,
    }


def main_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                        "BENCHMARK.json run_seconds, else 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="where the traced run writes its spans")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result file (default: under results/ here)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = (json.loads(BENCHMARK.read_text())["run_seconds"]
                   if BENCHMARK.exists() else 15.0)
    pins = json.loads(PINS.read_text())
    from repro.scenarios import resolve

    resolved = resolve(str(SPEC))
    if resolved.digest != pins["scenario_digest"]:
        print(f"scenario.json digest {resolved.digest} does not match the "
              "pinned one; re-pin before measuring", file=sys.stderr)
        return 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    tracer = Tracer(bool(args.trace))
    for name in names:
        result = run_workload(name, args.seed, seconds, tracer, pins)
        results.append(result)
        print_result(result)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = args.workload or "all"
    out = Path(args.out) if args.out else (
        HERE / "results"
        / f"{label}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"results": results}, indent=1, default=str))
    if args.trace:
        trace_out = Path(args.trace_out) if args.trace_out else out.with_suffix(".trace.jsonl")
        tracer.write(trace_out, {"workloads": names, "seed": args.seed,
                                "results": str(out)})
        print(f"trace: {trace_out}")
    print(f"result: {out}")
    print(json.dumps(summary_line(results, bool(args.trace))))
    return 0 if all(r["correct"] for r in results) else 1


# -- report and compare -----------------------------------------------------


def main_report(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py report")
    parser.add_argument("trace", help="a trace file a --trace 1 run wrote")
    args = parser.parse_args(argv)
    header, spans = read_spans(args.trace)
    print(f"trace of {', '.join(header.get('workloads', []))} "
          f"(seed {header.get('seed')}): {len(spans)} spans")
    children: Dict[Optional[str], List[Dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    roots = [s for s in spans if s["name"] == "bench.workload"]
    for root in roots or [None]:
        if root is not None:
            subset, frontier = [], [root]
            while frontier:
                span = frontier.pop()
                subset.append(span)
                frontier.extend(children.get(span["id"], []))
            print(f"\n== {root['attrs'].get('workload')} "
                  f"({root['end'] - root['start']:.2f} s) ==")
        else:
            subset = spans
        print(format_report(subset))
    return 0


def load_results(path: str) -> List[Dict]:
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
    results = []
    for file in files:
        results.extend(json.loads(file.read_text()).get("results", []))
    return [r for r in results if r.get("correct") and r.get("metrics")]


def main_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", help="parent results (a directory or file)")
    parser.add_argument("change", help="change results (a directory or file)")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"] == "lower", m["bound"])
              for m in spec["end_to_end"]}
    parent, change = load_results(args.parent), load_results(args.change)
    status = 0
    print(f"{'workload':<18} {'metric':<12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>5} {'spread':>7} verdict")
    for name in WORKLOADS:
        ps = sorted((r for r in parent if r["workload"] == name),
                    key=lambda r: r["seed"])
        cs = sorted((r for r in change if r["workload"] == name),
                    key=lambda r: r["seed"])
        if not ps or not cs:
            continue
        for metric, (lower, bound) in bounds.items():
            outcome = verdict([r["metrics"][metric] for r in ps],
                              [r["metrics"][metric] for r in cs], lower, bound)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{name:<18} {metric:<12} {fmt(outcome['parent']):>30} "
                  f"{fmt(outcome['change']):>30} "
                  f"{outcome['win_fraction']:>5.2f} {outcome['spread']:>7.3f} "
                  f"{outcome['verdict']}")
            status |= outcome["verdict"] in ("worse", "unresolved")
        digests = [{json.dumps(r["digests"], sort_keys=True) for r in side}
                   for side in (ps, cs)]
        same = digests[0] == digests[1]
        print(f"{name:<18} digests {'equal' if same else 'DIFFER'}")
        status |= not same
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv and argv[0] == "report":
        return main_report(argv[1:])
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
