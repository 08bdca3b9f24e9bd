"""Correctness gates: a wrong pin fails the run; no program, no result."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run


def test_gate_records_and_raises():
    gates = []
    run.gate("same", "a", "a", gates)
    with pytest.raises(run.GateError):
        run.gate("different", "a", "b", gates)
    assert [g["passed"] for g in gates] == [True, False]


def test_a_wrong_pinned_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.PINS.read_text())
    pins["result_digest"] = "0" * 64
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", wrong)

    def build_only(bench, seed, seconds, pins):
        # The real fixture build and the real gate, without the load.
        built = bench.worker("build", {}, bench.path("cache"))
        run.gate("result_digest", built["result_digest"],
                 pins["result_digest"], [])

    monkeypatch.setitem(run.RUNNERS, "explore-hot", build_only)
    status = run.main_run(["--workload", "explore-hot", "--seconds", "1",
                           "--out", str(tmp_path / "result.json")])
    assert status == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    saved = json.loads((tmp_path / "result.json").read_text())["results"][0]
    assert "result_digest" in saved["error"]


def test_any_failure_still_writes_the_summary_and_fails_the_run(
        tmp_path, monkeypatch, capsys):
    def broken(bench, seed, seconds, pins):
        raise RuntimeError("server on store.db did not start")

    monkeypatch.setitem(run.RUNNERS, "explore-cold", broken)
    status = run.main_run(["--workload", "explore-cold", "--seconds", "1",
                           "--out", str(tmp_path / "result.json")])
    assert status == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["attempted"] >= 1
    saved = json.loads((tmp_path / "result.json").read_text())["results"][0]
    assert "RuntimeError: server on store.db did not start" in saved["error"]


def test_printed_metrics_are_the_ones_benchmark_json_lists():
    spec = json.loads(run.BENCHMARK.read_text())
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == printed


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "benchmarks" / "pipeline"
    shutil.copytree(run.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "results"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, str(Path("benchmarks/pipeline/run.py")),
         "--workload", "explore-hot", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
