"""Run every experiment and print the paper-vs-measured comparison.

Usage::

    python -m repro.experiments                 # paper scenario, all
    python -m repro.experiments fig12 fig13     # a subset
    python -m repro.experiments --scenario small
    python -m repro.experiments --scenario my-whatif.json   # user spec
    python -m repro.experiments --list-scenarios            # registry
    python -m repro.experiments --jobs 4        # process-pool farm
    python -m repro.experiments --profile       # timings JSON
    python -m repro.experiments sweep --seeds 2021..2024 --jobs 4
    python -m repro.experiments --trace run.jsonl    # JSON-lines trace
    python -m repro.experiments --checkpoint-every 30   # resumable build
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import obs
from repro.experiments.context import get_result
from repro.experiments.registry import EXPERIMENTS, format_report
from repro.parallel.farm import run_farm
from repro.simulation.__main__ import positive_int


def _parse_seeds(spec: str):
    """``A..B`` (inclusive) or a comma list of distinct seeds ->
    [int, ...]."""
    if ".." in spec:
        low, _, high = spec.partition("..")
        start, stop = int(low), int(high)
        if stop < start:
            raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
        return list(range(start, stop + 1))
    seeds = [int(part) for part in spec.split(",") if part.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {spec!r}")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"duplicate seeds in {spec!r}")
    return seeds


def _sweep_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Cross-seed robustness sweep (mean/stddev/CI per row).",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument(
        "--seeds", type=_parse_seeds, required=True, metavar="A..B|A,B,C",
        help="seed range (inclusive) or comma list",
    )
    parser.add_argument(
        "--scenario", default="paper", metavar="NAME|FILE",
        help="registry name (see --list-scenarios) or a path to a "
        ".json/.toml scenario spec file",
    )
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N")
    parser.add_argument(
        "--checkpoint-every", type=positive_int, default=None, metavar="N",
        help="save resumable day-level checkpoints every N days while "
        "cold-building each seed's scenario (resume is bit-identical)",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the robustness report JSON here (default: stdout table only)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="append JSON-lines trace events here (workers join via "
        "the exported REPRO_TRACE environment variable)",
    )
    args = parser.parse_args(argv)
    if args.trace:
        obs.configure_trace(args.trace)

    ids = args.ids or EXPERIMENTS.ids()
    unknown = [i for i in ids if i not in EXPERIMENTS.ids()]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")

    from repro.errors import ScenarioSpecError
    from repro.parallel import format_sweep, run_sweep

    started = time.time()
    try:
        sweep = run_sweep(
            args.scenario, args.seeds, ids, jobs=args.jobs,
            checkpoint_every=args.checkpoint_every,
        )
    except ScenarioSpecError as exc:
        parser.error(str(exc))
    print(format_sweep(sweep))
    print(
        f"\nswept {len(args.seeds)} seeds x {len(ids)} experiments "
        f"in {time.time() - started:.1f}s (jobs={args.jobs})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(sweep, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    obs.trace_event("metrics.snapshot", metrics=obs.snapshot())
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument(
        "--list", action="store_true",
        help="list registered figures/tables with descriptions and exit",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="list registry scenarios with their resolved digests and exit",
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
        "--jobs", type=positive_int, default=1, metavar="N",
        help="run experiments in N worker processes (workers rehydrate "
        "the scenario from the persistent cache; output is identical "
        "to the serial path)",
    )
    parser.add_argument(
        "--checkpoint-every", type=positive_int, default=None, metavar="N",
        help="while cold-building the scenario, save a resumable "
        "day-level checkpoint every N days next to the cache entry; "
        "an interrupted build resumes from it bit-identically",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="write day-loop phase timings (from the phase scheduler) "
        "and per-experiment wall/CPU/RSS high-water mark as "
        "profile.json (next to --export output when given)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="append JSON-lines trace events (engine phases, cache, "
        "workers) here; workers join via the exported REPRO_TRACE "
        "environment variable",
    )
    parser.add_argument(
        "--export", metavar="DIR", default=None,
        help="also write rows/series as JSON+CSV under DIR",
    )
    parser.add_argument(
        "--figures", metavar="DIR", default=None,
        help="also render the figures as SVG under DIR",
    )
    args = parser.parse_args(argv)

    if args.list:
        descriptions = EXPERIMENTS.descriptions()
        width = max(len(i) for i in descriptions)
        for experiment_id, description in descriptions.items():
            print(f"{experiment_id:<{width}}  {description}")
        return 0

    if args.list_scenarios:
        from repro.scenarios import format_listing

        print(format_listing())
        return 0

    ids = args.ids or EXPERIMENTS.ids()
    unknown = [i for i in ids if i not in EXPERIMENTS.ids()]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")

    if args.trace:
        obs.configure_trace(args.trace)

    from repro.errors import ScenarioSpecError
    from repro.scenarios import resolve

    try:
        resolved = resolve(args.scenario, seed=args.seed)
    except ScenarioSpecError as exc:
        parser.error(str(exc))

    print(f"building {resolved.label} scenario "
          f"(seed {resolved.config.seed}, digest {resolved.digest[:12]})...")
    started = time.time()
    result = get_result(resolved, checkpoint_every=args.checkpoint_every)
    scenario_ready_s = time.time() - started
    print(f"scenario ready in {scenario_ready_s:.1f}s\n")

    experiments_started = time.time()
    outcomes = run_farm(
        resolved, None, ids, jobs=args.jobs,
        checkpoint_every=args.checkpoint_every,
    )
    experiments_wall_s = time.time() - experiments_started
    reports = [outcome.report for outcome in outcomes]

    for report in reports:
        print(format_report(report))
        print()
    if args.export:
        from repro.experiments.export import export_all

        written = export_all(reports, args.export)
        print(f"exported {len(written)} files to {args.export}")
    if args.figures:
        from repro.experiments.figures import render_figures

        rendered = render_figures(result, reports, args.figures)
        print(f"rendered {len(rendered)} figures to {args.figures}")
    if args.profile:
        from pathlib import Path

        profile = {
            "scenario": resolved.label,
            "scenario_digest": resolved.digest,
            "seed": resolved.config.seed,
            "jobs": args.jobs,
            "scenario_ready_s": scenario_ready_s,
            # Per-phase day-loop seconds; null when the scenario came
            # from the cache (no day loop ran in this process).
            "day_loop_phases": result.day_loop_timings,
            "experiments": {
                outcome.experiment_id: {
                    "wall_s": outcome.wall_s, "cpu_s": outcome.cpu_s,
                    "rss_hwm_bytes": outcome.rss_hwm_bytes,
                }
                for outcome in outcomes
            },
            "experiments_wall_s": experiments_wall_s,
            # High-water-mark RSS: this process, plus the max over
            # reaped farm workers when any ran.
            "memory": {
                "peak_rss_bytes": obs.peak_rss_bytes(children=True),
            },
        }
        out_dir = Path(args.export) if args.export else Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        profile_path = out_dir / "profile.json"
        with open(profile_path, "w", encoding="utf-8") as handle:
            json.dump(profile, handle, indent=2)
            handle.write("\n")
        print(f"wrote {profile_path}")
    obs.trace_event("metrics.snapshot", metrics=obs.snapshot())
    return 0


if __name__ == "__main__":
    sys.exit(main())
