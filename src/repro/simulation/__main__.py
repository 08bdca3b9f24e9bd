"""Build a synthetic Helium history and (optionally) dump the chain.

Usage::

    python -m repro.simulation                        # summary only
    python -m repro.simulation --scenario small
    python -m repro.simulation --scenario my-whatif.json   # user spec file
    python -m repro.simulation --list-scenarios       # registry + digests
    python -m repro.simulation --dump chain.jsonl     # explorer-style dump
    python -m repro.simulation --checkpoint-every 30 --checkpoint-dir ck/
    python -m repro.simulation --stop-after 120 --checkpoint-dir ck/
    python -m repro.simulation --resume ck/           # continue from ck/
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.chain.serialize import dump_chain
from repro.simulation import SimulationEngine


def positive_int(text: str) -> int:
    """argparse type for day counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simulation",
        description="Generate a synthetic Helium blockchain.",
    )
    parser.add_argument(
        "--scenario", default="paper", metavar="NAME|FILE",
        help="registry name (see --list-scenarios) or a path to a "
        ".json/.toml scenario spec file",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's own seed (default: keep it)",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="list registry scenarios with their resolved digests and exit",
    )
    parser.add_argument("--dump", metavar="FILE", default=None,
                        help="write the chain as JSONL")
    parser.add_argument(
        "--checkpoint-every", type=positive_int, default=None, metavar="N",
        help="save the full run state every N simulated days into "
        "--checkpoint-dir (each save atomically replaces the last)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory for day-level checkpoints",
    )
    parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume from the checkpoint in DIR instead of starting "
        "fresh (the result is bit-identical to an uninterrupted run); "
        "--scenario/--seed are taken from the checkpoint",
    )
    parser.add_argument(
        "--stop-after", type=positive_int, default=None, metavar="D",
        help="halt once D days are simulated, saving a checkpoint to "
        "--checkpoint-dir (exit summary reports the partial state)",
    )
    args = parser.parse_args(argv)

    if args.list_scenarios:
        from repro.scenarios import format_listing

        print(format_listing())
        return 0

    if (args.checkpoint_every or args.stop_after is not None) and not (
        args.checkpoint_dir or args.resume
    ):
        parser.error("--checkpoint-every/--stop-after need --checkpoint-dir")

    started = time.time()
    if args.resume:
        engine = SimulationEngine.resume(args.resume)
        config = engine.config
        print(f"resuming from {args.resume} at day {engine.state.day} "
              f"(seed {config.seed}, {config.n_days} days total)...")
    else:
        from repro.errors import ScenarioSpecError
        from repro.scenarios import resolve

        try:
            resolved = resolve(args.scenario, seed=args.seed)
        except ScenarioSpecError as exc:
            parser.error(str(exc))
        config = resolved.config
        print(f"building {resolved.label} scenario "
              f"({config.target_hotspots} hotspots, {config.n_days} days, "
              f"digest {resolved.digest[:12]})...")
        engine = SimulationEngine(config)

    checkpoint_dir = args.checkpoint_dir or args.resume
    result = engine.run(
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        stop_after_day=args.stop_after,
    )
    elapsed = time.time() - started

    if result is None:
        print(f"stopped after day {engine.state.day} in {elapsed:.1f}s; "
              f"checkpoint saved to {checkpoint_dir}")
        print(f"resume with: python -m repro.simulation --resume "
              f"{checkpoint_dir}")
        return 0

    chain = result.chain
    counts = chain.count_transactions()
    print(f"done in {elapsed:.1f}s:")
    print(f"  hotspots: {len(result.world.hotspots):,} "
          f"({len(result.world.online_hotspots()):,} online)")
    print(f"  owners:   {len(result.world.owners):,}")
    print(f"  blocks:   {len(chain):,} materialised "
          f"(tip height {chain.height:,})")
    print(f"  txns:     {chain.total_transactions:,} "
          f"({counts.get('poc_receipts', 0):,} PoC receipts)")
    print(f"  relayed:  {result.peerbook.relayed_fraction():.1%} of peers")
    from repro import obs

    peak_rss = obs.peak_rss_bytes()
    if peak_rss:
        print(f"  peak RSS: {peak_rss / 1e9:.2f} GB")

    if args.dump:
        lines = dump_chain(chain, args.dump)
        print(f"dumped {lines:,} blocks to {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
