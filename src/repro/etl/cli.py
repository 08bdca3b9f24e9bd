"""``python -m repro.etl`` — ingest and query the ETL replica.

Usage::

    python -m repro.etl ingest --scenario small --db /tmp/etl.db
    python -m repro.etl query  --db /tmp/etl.db stats
    python -m repro.etl query  --db /tmp/etl.db hotspot "Joyful Pink Skunk"
    python -m repro.etl query  --db /tmp/etl.db owner wal_…
    python -m repro.etl query  --db /tmp/etl.db search joyful
    python -m repro.etl --trace etl.jsonl ingest --db /tmp/etl.db

``ingest`` builds (or loads from the scenario cache) the named scenario
and loads every block above the store's checkpoint — re-running it after
the chain grew only ingests the new blocks. ``query`` prints JSON, the
same documents the HTTP API serves. To serve the store over HTTP, run
``python -m repro.serve serve`` (:mod:`repro.serve.cli`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import EtlError, ReproError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.etl",
        description="DeWi-style ETL replica: ingest and query.",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="append JSON-lines trace events (ingest batches) "
        "here; equivalent to setting REPRO_TRACE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="ingest a scenario chain into a store")
    ingest.add_argument("--db", required=True, help="path of the SQLite store")
    ingest.add_argument(
        "--scenario", default="paper", metavar="NAME|FILE",
        help="registry name or a path to a .json/.toml scenario spec file",
    )
    ingest.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's own seed (default: keep it)",
    )
    ingest.add_argument(
        "--batch", type=int, default=None, metavar="BLOCKS",
        help="blocks per commit (default 512)",
    )

    query = sub.add_parser("query", help="print one query result as JSON")
    query.add_argument("--db", required=True)
    query.add_argument(
        "what",
        help="stats | hotspot <name-or-address> | owner <address> | search <q>",
    )
    query.add_argument("arg", nargs="?", default=None)

    return parser


def _cmd_ingest(args) -> int:
    from repro.etl.ingest import DEFAULT_BATCH_BLOCKS, ingest_chain
    from repro.etl.store import EtlStore
    from repro.experiments.context import get_result
    from repro.scenarios import resolve

    resolved = resolve(args.scenario, seed=args.seed)
    result = get_result(resolved)
    store = EtlStore(args.db)
    report = ingest_chain(
        result.chain, store,
        batch_blocks=args.batch or DEFAULT_BATCH_BLOCKS,
    )
    print(json.dumps({
        "db": args.db,
        "scenario": resolved.label,
        "scenario_digest": resolved.digest,
        "seed": resolved.config.seed,
        "start_height": report.start_height,
        "tip_height": report.tip_height,
        "blocks_ingested": report.blocks_ingested,
        "transactions_ingested": report.transactions_ingested,
        "up_to_date": report.up_to_date,
    }, indent=2))
    return 0


def _cmd_query(args) -> int:
    from repro.core.explorer import Explorer
    from repro.etl.server import owner_to_json, page_to_json
    from repro.etl.store import EtlStore

    store = EtlStore(args.db, create=False)
    explorer = Explorer.from_store(store)
    if args.what == "stats":
        payload = {
            "checkpoint_height": store.checkpoint_height,
            "tip_hash": store.get_meta("tip_hash"),
            "tables": store.counts(),
        }
    elif args.what == "hotspot":
        key = _require_arg(args, "hotspot <name-or-address>")
        page = (
            explorer.hotspot(key)
            if key.startswith("hs_")
            else explorer.hotspot_by_name(key)
        )
        payload = page_to_json(page)
    elif args.what == "owner":
        payload = owner_to_json(
            explorer.owner(_require_arg(args, "owner <address>"))
        )
    elif args.what == "search":
        needle = _require_arg(args, "search <q>")
        payload = {
            "query": needle,
            "matches": [
                {"gateway": gateway, "name": name}
                for gateway, name in explorer.search(needle)
            ],
        }
    else:
        raise EtlError(f"unknown query {args.what!r}")
    print(json.dumps(payload, indent=2))
    return 0


def _require_arg(args, usage: str) -> str:
    if args.arg is None:
        raise EtlError(f"usage: query {usage}")
    return args.arg


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.trace:
        from repro import obs

        obs.configure_trace(args.trace)
    handlers = {"ingest": _cmd_ingest, "query": _cmd_query}
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
