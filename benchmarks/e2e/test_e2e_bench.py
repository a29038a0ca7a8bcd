"""Tests of the end-to-end benchmark itself, at ``--quick`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (~15 s); not
part of the tier-1 suite.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402
from metrics import ABSENT, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _measure(names, seed, tmp, *, trace=False, reps=1):
    # seconds=0: every process does exactly one timed run
    return bench.measure(names, seed, quick=True, trace=trace, out_dir=tmp, reps=reps, seconds=0.0)


@pytest.fixture(scope="module")
def traced_set(tmp_path_factory):
    """Three processes per workload at one seed, the middle one traced."""
    tmp = tmp_path_factory.mktemp("e2e-out")
    return _measure(list(WORKLOADS), 1, tmp, trace=True, reps=3)


def test_names_and_manifest_match_the_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(m) for m in PER_LAYER]
    names = [w.name for w in WORKLOADS.values()] + [m[0] for m in END_TO_END] + [
        m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why
    assert any(m[0] == "setup_s" and m[3] == max(b for *_x, b in END_TO_END) for m in END_TO_END)
    pinned = json.loads((HERE / "expected.json").read_text())["workloads"]
    assert set(pinned) == set(WORKLOADS)


def test_host_shares_sum_to_one_and_every_layer_metric_is_reported(traced_set):
    for name, reps in traced_set.items():
        failures = bench.check(name, 1, reps, None)
        assert not any(failures), (name, failures)
        result = bench.summarize(reps, failures, trace=True)
        metrics = result["metrics"]
        assert list(metrics) == [m[0] for m in PER_LAYER], name
        shares = [m["value"] for k, m in metrics.items() if k.startswith("host_share.")]
        assert len(shares) == 9
        assert sum(shares) == pytest.approx(1.0, abs=1e-9), name
        assert result["detail"]["absent"] == []
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_workloads_exercise_the_regime_they_claim(traced_set):
    def layer(name, metric):
        reps = traced_set[name]
        return bench.summarize(reps, [""] * 9, trace=True)["metrics"][metric]["value"]

    assert layer("ssp_isolated_5k", "sim.runner.collapse_share") == 1.0
    assert layer("ssp_isolated_5k", "sim.engine.events_processed") == 0
    for name in ("ssp_straggler_4500", "pssp_softbarrier_400", "bsp_800"):
        assert layer(name, "sim.runner.collapse_share") == 0.0
        assert layer(name, "sim.network.send_calls") > 0
    assert layer("bsp_800", "core.server.dpr_share") > 0.5
    assert layer("pssp_softbarrier_400", "core.server.dprs") > 0
    assert layer("cosim_task_32w", "ml.step_calls") > 0
    assert layer("checked_isolated_800", "analysis.sanitizer.events_checked") > 0
    assert layer("checked_isolated_800", "analysis.sanitizer.violations") == 0
    assert layer("checked_isolated_800", "obs.overhead_s") > 0


def test_runs_of_one_seed_agree_and_the_seed_changes_the_digest(traced_set, tmp_path):
    name = "pssp_softbarrier_400"
    digests = [run["digest"] for rep in traced_set[name] for run in rep["runs"]]
    assert len(digests) == 3 and all(d == digests[0] for d in digests)
    other = _measure([name], 2, tmp_path)[name][0]["runs"][0]["digest"]
    assert other != digests[0]


def test_end_to_end_summary_has_every_metric(traced_set):
    reps = traced_set["bsp_800"]
    result = bench.summarize(reps, bench.check("bsp_800", 1, reps, None), trace=False)
    assert list(result["metrics"]) == [m[0] for m in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == 3 and result["failed"] == 0 and result["correct"]


def test_a_raising_workload_counts_as_failed(tmp_path):
    reps = _measure(["no_such_workload"], 1, tmp_path)["no_such_workload"]
    failures = bench.check("no_such_workload", 1, reps, None)
    assert failures and all(failures)
    assert "KeyError" in failures[0]
    result = bench.summarize(reps, failures, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert result["metrics"] == {}


def test_a_timed_out_process_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_GRACE_S", 0.01)
    reps = _measure(["bsp_800"], 1, tmp_path)["bsp_800"]
    failures = bench.check("bsp_800", 1, reps, None)
    assert len(failures) == 1 and "timed out" in failures[0]


def test_a_tampered_pin_or_a_broken_guard_counts_as_failed(traced_set):
    name = "bsp_800"
    reps = traced_set[name]
    digest = bench.portable(reps[0]["runs"][0]["digest"])
    expected = {"seed": 1, "workloads": {name: {"guards": {"dprs": [1, None]}, "digest": digest}}}
    assert not any(bench.check(name, 1, reps, expected))
    tampered = copy.deepcopy(expected)
    tampered["workloads"][name]["digest"]["duration_s"] += 1e-9
    failures = bench.check(name, 1, reps, tampered)
    assert all("expected.json" in f and "duration_s" in f for f in failures)
    assert bench.summarize(reps, failures, trace=False)["failed"] == 3
    # another seed is not compared with the pin, only with itself and the guards
    assert not any(bench.check(name, 2, reps, tampered))
    guarded = copy.deepcopy(expected)
    guarded["workloads"][name]["guards"]["dprs"] = [0, 0]
    assert all("guard dprs" in f for f in bench.check(name, 1, reps, guarded))


def test_a_missing_counter_is_reported_absent(traced_set):
    class Bare:
        events_processed = 7

    counters = worker.read_counters({"engine": Bare()})
    assert counters["sim.engine.events_processed"] == 7
    assert counters["sim.engine.calendar_sweeps"] is None
    assert counters["core.server.snapshot_copies"] is None
    reps = copy.deepcopy(traced_set["bsp_800"])
    for rep in reps:
        for run in rep["runs"]:
            if "layers" in run:
                run["layers"]["sim.engine.calendar_sweeps"] = None
    result = bench.summarize(reps, [""] * 3, trace=True)
    assert result["metrics"]["sim.engine.calendar_sweeps"]["value"] == ABSENT
    assert result["detail"]["absent"] == ["sim.engine.calendar_sweeps"]


def test_command_line_contract(tmp_path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "ssp_isolated_5k", "--seed", "5",
           "--seconds", "0", "--trace", "0", "--quick", "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 3 and last["failed"] == 0
    assert {k: set(v) for k, v in last["metrics"].items()} == {
        m[0]: {"value", "unit"} for m in END_TO_END}


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", "bsp_800", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
