"""Smoke tests of the benchmark: every metric named in BENCHMARK.json is
emitted and every output check passes, at the tiny ``smoke`` size."""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(stdout):
    lines = stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_metric_and_passes_its_checks(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report, result = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    for name, unit in units("end_to_end").items():
        assert report["end_to_end"][name]["unit"] == unit
    assert report["end_to_end"]["failed_ops_share"]["value"] == 0.0
    assert report["cli_seeds"][0] == 300
    if workload == "mc-oracle":
        assert result["metrics"]["simulate.episodes_per_trial"]["value"] == 2.0
    if workload == "closed-form":
        assert result["metrics"]["model.relay_mixed_per_cell"]["value"] == 2.0


def test_untraced_run_emits_the_end_to_end_metrics():
    proc = bench("--workload", "mc-oracle", "--seed", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report, result = parse(proc.stdout)
    assert result["correct"] and result["attempted"] >= 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {"trials_per_s", "time_to_se_s"} <= set(report["end_to_end"])


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    proc = bench("--workload", "closed-form", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
