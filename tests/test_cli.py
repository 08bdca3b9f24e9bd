"""CLI entry-point tests (in-process)."""

import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chain.serialize import load_chain
from repro.experiments.__main__ import main as experiments_main
from repro.simulation.__main__ import main as simulation_main


class TestExperimentsCli:
    def test_runs_selected_experiments(self, capsys):
        code = experiments_main(["--scenario", "small", "fig02", "fig04"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "fig04" in out
        assert "paper=" in out and "measured=" in out

    def test_export_and_figures(self, tmp_path, capsys):
        code = experiments_main([
            "--scenario", "small", "fig02",
            "--export", str(tmp_path / "data"),
            "--figures", str(tmp_path / "figs"),
            "--profile",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "data" / "fig02.json").read_text())
        assert payload["experiment_id"] == "fig02"
        assert (tmp_path / "figs" / "fig02.svg").exists()
        assert (tmp_path / "data" / "summary.csv").exists()
        profile = json.loads((tmp_path / "data" / "profile.json").read_text())
        assert profile["experiments"]["fig02"]["rss_hwm_bytes"] > 0

    def test_unknown_id_errors(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            experiments_main(["--scenario", "small", "fig99"])


class TestSimulationCli:
    def test_summary_and_dump(self, tmp_path, capsys):
        dump = tmp_path / "chain.jsonl"
        code = simulation_main([
            "--scenario", "small", "--seed", "2021", "--dump", str(dump),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hotspots:" in out and "txns:" in out
        # The dump replays into a consistent chain.
        rebuilt = load_chain(dump)
        assert rebuilt.total_transactions > 0


class TestDayCountValidation:
    """Day counts below 1 are usage errors (exit 2) raised by argparse,
    before any scenario is built."""

    @pytest.mark.parametrize("argv", [
        ["--checkpoint-every", "0"],
        ["--checkpoint-every", "-1"],
        ["--stop-after", "0"],
        ["--stop-after", "-4"],
    ])
    def test_simulation_cli(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            simulation_main([
                "--scenario", "small",
                "--checkpoint-dir", str(tmp_path / "ck"), *argv,
            ])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--scenario", "small", "--checkpoint-every", "0", "fig02"],
        ["--scenario", "small", "--checkpoint-every", "-1", "fig02"],
        ["sweep", "--scenario", "small", "--seeds", "7",
         "--checkpoint-every", "0", "fig02"],
        ["--scenario", "small", "--jobs", "0", "fig02"],
        ["--scenario", "small", "--jobs", "-2", "fig02"],
        ["sweep", "--scenario", "small", "--seeds", "7", "--jobs", "0",
         "fig02"],
    ])
    def test_experiments_cli(self, argv, capsys, monkeypatch):
        _forbid_builds(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            experiments_main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds, message", [
        ("3,3", "duplicate seeds"),
        ("7,8,7", "duplicate seeds"),
        (",", "no seeds"),
        ("9..8", "empty seed range"),
    ])
    def test_experiments_cli_seeds(self, seeds, message, capsys, monkeypatch):
        _forbid_builds(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            experiments_main(
                ["sweep", "--scenario", "small", "--seeds", seeds, "fig02"]
            )
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def _forbid_builds(monkeypatch):
    import repro.experiments.__main__ as experiments_module
    import repro.parallel

    def must_not_build(*args, **kwargs):
        pytest.fail("a usage error must not build a scenario")

    monkeypatch.setattr(experiments_module, "get_result", must_not_build)
    monkeypatch.setattr(experiments_module, "run_farm", must_not_build)
    monkeypatch.setattr(repro.parallel, "run_sweep", must_not_build)


def _readme_experiment_commands():
    """Every ``python -m repro.experiments`` command in README.md's code
    blocks, continuation lines joined, as argument lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", readme.read_text(), re.S):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            if line.startswith("python -m repro.experiments"):
                commands.append(shlex.split(line, comments=True)[3:])
    return commands


README_COMMANDS = _readme_experiment_commands()


class TestReadmeCommands:
    """The README's commands parse: none is a usage error (exit 2).
    Scenario resolution and every build are stubbed out."""

    def test_the_readme_has_commands(self):
        assert len(README_COMMANDS) >= 10
        assert any(argv[:1] == ["sweep"] for argv in README_COMMANDS)

    @pytest.mark.parametrize(
        "argv", README_COMMANDS,
        ids=[" ".join(argv) or "no-arguments" for argv in README_COMMANDS],
    )
    def test_command_parses(self, argv, tmp_path, monkeypatch, capsys):
        import repro.experiments.__main__ as experiments_module
        import repro.experiments.export
        import repro.experiments.figures
        import repro.parallel
        import repro.scenarios
        from repro import obs
        from repro.experiments.registry import ExperimentReport
        from repro.parallel import FarmOutcome

        monkeypatch.chdir(tmp_path)  # --export/--out/--trace write here
        for name in ("REPRO_TRACE", "REPRO_TRACE_ID"):
            monkeypatch.setenv(name, "")  # restored after the test
        resolved = repro.scenarios.resolve("small")
        monkeypatch.setattr(
            repro.scenarios, "resolve", lambda *args, **kwargs: resolved
        )
        monkeypatch.setattr(
            experiments_module, "get_result",
            lambda *args, **kwargs: SimpleNamespace(day_loop_timings=None),
        )
        monkeypatch.setattr(
            experiments_module, "run_farm",
            lambda scenario, seed, ids, **kwargs: [
                FarmOutcome(eid, ExperimentReport(eid, eid), 0.0, 0.0, 0)
                for eid in ids
            ],
        )
        monkeypatch.setattr(
            repro.parallel, "run_sweep",
            lambda scenario, seeds, ids, **kwargs: {
                "scenario": str(scenario), "seeds": list(seeds),
                "experiment_ids": [], "experiments": {},
            },
        )
        monkeypatch.setattr(
            repro.experiments.figures, "render_figures",
            lambda result, reports, out_dir: [],
        )
        try:
            assert experiments_main(argv) == 0
        finally:
            obs.close_trace(clear_env=True)


class TestExperimentsListFlag:
    def test_lists_every_experiment_with_a_description(self, capsys):
        from repro.experiments.registry import EXPERIMENTS

        code = experiments_main(["--list"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(EXPERIMENTS.ids())
        for line, experiment_id in zip(lines, EXPERIMENTS.ids()):
            assert line.startswith(experiment_id)
            description = line[len(experiment_id):].strip()
            assert description  # every module carries a one-liner

    def test_list_does_not_build_a_scenario(self, capsys, monkeypatch):
        import repro.experiments.__main__ as experiments_module

        monkeypatch.setattr(
            experiments_module, "get_result",
            lambda *a, **k: pytest.fail("--list must not simulate"),
        )
        assert experiments_main(["--list"]) == 0


class TestListScenariosFlag:
    @pytest.mark.parametrize("entry", [experiments_main, simulation_main])
    def test_lists_registry_with_digests(self, entry, capsys):
        from repro.scenarios import list_scenarios, scenario_names

        assert entry(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for row in list_scenarios():
            assert row["name"] in out
            assert row["digest"][:12] in out
        assert len(out.strip().splitlines()) == len(scenario_names())

    def test_does_not_build_a_scenario(self, capsys, monkeypatch):
        import repro.experiments.__main__ as experiments_module

        monkeypatch.setattr(
            experiments_module, "get_result",
            lambda *a, **k: pytest.fail("--list-scenarios must not simulate"),
        )
        assert experiments_main(["--list-scenarios"]) == 0


class TestSpecFileScenario:
    def test_experiments_cli_accepts_a_spec_file(
        self, tmp_path, capsys, monkeypatch, small_result
    ):
        import json as jsonlib

        import repro.experiments.context as context
        from repro.scenarios import resolve

        # Memoise under the built-in's digest: the equivalent spec file
        # must hit it instead of simulating.
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "off")
        monkeypatch.setattr(
            context, "_CACHE", {resolve("small").digest: small_result}
        )
        spec = tmp_path / "mine.json"
        spec.write_text(jsonlib.dumps({"base": "small", "name": "mine"}))
        code = experiments_main(["--scenario", str(spec), "fig02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "building mine scenario" in out
        assert "fig02" in out

    def test_bad_spec_file_is_a_usage_error(self, tmp_path, capsys):
        import json as jsonlib

        spec = tmp_path / "bad.json"
        spec.write_text(jsonlib.dumps({"base": "small", "n_dys": 120}))
        with pytest.raises(SystemExit):
            experiments_main(["--scenario", str(spec), "fig02"])
        err = capsys.readouterr().err
        assert "n_dys" in err and "did you mean" in err
