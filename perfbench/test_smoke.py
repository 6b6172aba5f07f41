"""Smoke test of the benchmark harness.

Runs every workload at a tiny size (--smoke) in both trace modes and checks
that each run passes its output checks and emits exactly the metrics
BENCHMARK.json names, with their units; that computed counts repeat
exactly; that the traced replay reaches the layers each workload exercises;
and that the benchmark refuses to run without the package sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

# layer metrics that must be non-zero on the workload that exercises them
REACHED = {
    "cli_startup": ["analytic.gain_two_arm_s", "analytic.expected_gain_over_means_s"],
    "profile_elasticity": [
        "analysis.predict_gain_calls", "analysis.self_s", "simulate.replications",
        "simulate.draws_s", "simulate.select_score_s", "simulate.normals_drawn",
    ],
    "sweep_spike_slab": [
        "simulate.simulate_gain_calls", "simulate.busy_s", "simulate.draws_s",
        "simulate.select_score_s", "simulate.bytes_computed", "util.write_s",
    ],
    "csv_pipeline_200k": [
        "cli.cmd_synth_s", "cli.cmd_estimate_s", "cli.cmd_evaluate_s",
        "dataset.generate_synthetic_s", "dataset.write_csv_s", "dataset.bytes_written",
        "dataset.load_csv_s", "dataset.rows_parsed", "dataset.parse_mb_per_s",
        "dataset.split_s", "dataset.subset_s", "util.bytes_written",
        "estimation.fit_predictor_s", "estimation.sigma_rho_s", "estimation.sigma_eps_s",
        "policy.fit_ols_s", "policy.bootstrap_s", "policy.bootstrap_draws", "policy.match_rate",
    ],
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric_with_its_unit(workload, trace):
    doc = result(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in doc["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replay_reaches_the_workloads_layers(workload):
    metrics = result(workload, 1)["metrics"]
    assert [name for name in REACHED[workload] if metrics[name]["value"] <= 0] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = result(workload, 1)["metrics"]
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name, metric in first.items():
        if metric["unit"] in ("count", "bytes"):
            assert again[name]["value"] == metric["value"], name


def test_worker_spans_hang_under_simulate_gain():
    proc = run("sweep_spike_slab", 1)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((ROOT / ".bench_work" / "spans_sweep.json").read_text())["spans"]
    replicates = [s for s in spans if s["name"] == "simulate._replicate"]
    assert replicates
    assert {spans[s["parent"]]["name"] for s in replicates} == {"simulate.simulate_gain"}
    draws = [s for s in spans if s["name"] == "simulate.sample_potential_outcomes"]
    assert {spans[s["parent"]]["name"] for s in draws} == {"simulate._replicate"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
