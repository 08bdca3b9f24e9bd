"""``python -m repro.serve`` — run the serving tier or load-test it.

Usage::

    python -m repro.serve serve --db /tmp/etl.db --port 8700
    python -m repro.serve serve --db /tmp/etl.db --scenario small
    python -m repro.serve serve --db /tmp/etl.db --workers 8 \\
        --queue-depth 256
    python -m repro.serve load --url http://127.0.0.1:8700 \\
        --clients 1000 --duration 10 --report load.json
    python -m repro.serve --trace serve.jsonl serve --db /tmp/etl.db

``serve`` starts the pooled front end (workers started on demand,
read-only WAL replicas leased per request, checkpoint-keyed response
cache, 503 shedding, SIGTERM drain);
pass ``--scenario`` to ingest a missing or unreadable database first.
``load`` drives any explorer URL with zipf-popular, bursty traffic and
prints a latency/throughput report as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.errors import EtlError, ReproError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Production serving tier over the ETL replica.",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="append JSON-lines trace events here "
        "(equivalent to setting REPRO_TRACE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve the explorer API (pooled)")
    serve.add_argument("--db", required=True, help="path of the SQLite store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8700)
    serve.add_argument(
        "--workers", type=int, default=None,
        help="at most this many worker threads, started as load needs "
        "them (default: scaled from cpu count)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=128, metavar="N",
        help="max queued requests before shedding 503s (default 128)",
    )
    serve.add_argument(
        "--scenario", default=None, metavar="NAME|FILE",
        help="ingest this scenario (registry name or spec-file path) "
        "first if the store is missing/stale",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's own seed (default: keep it)",
    )
    serve.add_argument("--quiet", action="store_true")

    load = sub.add_parser("load", help="drive a server with zipf traffic")
    load.add_argument(
        "--url", default="http://127.0.0.1:8700",
        help="base URL of the server under test",
    )
    load.add_argument(
        "--clients", type=int, default=256,
        help="simulated concurrent clients (default 256; 1k-10k work, "
        "mind ulimit -n)",
    )
    load.add_argument("--duration", type=float, default=5.0, metavar="SECONDS")
    load.add_argument("--seed", type=int, default=2021)
    load.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="zipf popularity exponent (default 1.1)",
    )
    load.add_argument(
        "--mean-on", type=float, default=0.5, metavar="SECONDS",
        help="mean busy-burst length (default 0.5)",
    )
    load.add_argument(
        "--mean-off", type=float, default=0.5, metavar="SECONDS",
        help="mean idle gap between bursts (default 0.5)",
    )
    load.add_argument(
        "--no-revalidate", action="store_true",
        help="do not send If-None-Match (suppresses the 304 fast path)",
    )
    load.add_argument(
        "--keep-alive", action="store_true",
        help="reuse each client's connection per burst (HTTP/1.1)",
    )
    load.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write the JSON report here",
    )
    return parser


def _open_or_ingest(db: str, scenario: Optional[str], seed: Optional[int]):
    """The store at ``db``; rebuilt from ``scenario`` if it is missing
    or unreadable. Without a scenario a bad store raises
    :class:`EtlError`."""
    from repro.etl.store import EtlStore

    try:
        return EtlStore(db, create=False)
    except EtlError:
        if scenario is None:
            raise
    from repro.etl.ingest import ingest_chain
    from repro.experiments.context import get_result

    Path(db).unlink(missing_ok=True)
    result = get_result(scenario, seed)
    store = EtlStore(db)
    ingest_chain(result.chain, store)
    return store


def _cmd_serve(args) -> int:
    from repro.serve.server import serve

    store = _open_or_ingest(args.db, args.scenario, args.seed)
    store.close()  # the tier opens its own read-only replicas
    serve(
        args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        verbose=not args.quiet,
    )
    return 0


def _cmd_load(args) -> int:
    from repro.serve.loadgen import fetch_metrics, run_load

    before = fetch_metrics(args.url).get("counters", {})
    report = run_load(
        args.url,
        clients=args.clients,
        duration_s=args.duration,
        seed=args.seed,
        zipf_s=args.zipf_s,
        mean_on_s=args.mean_on,
        mean_off_s=args.mean_off,
        revalidate=not args.no_revalidate,
        keep_alive=args.keep_alive,
    )
    after = fetch_metrics(args.url).get("counters", {})
    summary = report.summary()
    hits = after.get("serve.cache.hit", 0) - before.get("serve.cache.hit", 0)
    misses = (
        after.get("serve.cache.miss", 0) - before.get("serve.cache.miss", 0)
    )
    revalidated = (
        after.get("serve.cache.revalidated", 0)
        - before.get("serve.cache.revalidated", 0)
    )
    summary["server_cache"] = {
        "hits": hits,
        "misses": misses,
        "revalidated_304": revalidated,
        "hit_ratio": round(hits / (hits + misses), 4)
        if hits + misses else None,
    }
    text = json.dumps(summary, indent=2)
    print(text)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.trace:
        from repro import obs

        obs.configure_trace(args.trace)
    handlers = {"serve": _cmd_serve, "load": _cmd_load}
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
