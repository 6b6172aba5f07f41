"""Benchmark of the persgain command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. Each workload is a fixed
sequence of `persgain` commands whose inputs derive from --seed. Every
command runs as its own subprocess, the way a user runs it, and every output
is checked against an oracle in oracles.py.

--trace 0 measures end to end. Iterations of the command sequence repeat
until --seconds have passed and at least MIN_ITERATIONS have run, so every
median has three samples even when one iteration outlasts --seconds. The
run reports
  wall_s       median wall time of one iteration, interpreter start included
  cpu_s        median user + system CPU seconds of an iteration's commands
  peak_rss_mb  median over iterations of the largest peak RSS of a command
  setup_s      median time to generate the inputs and warm the imports
CPU and RSS come from os.wait4 on each child, so they belong to that
command alone. Failed commands and failed output checks are counted in
`failed`, out of `attempted` commands.

--trace 1 measures the same way with tracing off, then replays one
iteration with every command run by tracer.py, which times calls into each
module from outside the package, and probes interpreter start and import
cost in fresh interpreters. It reports the per-layer metrics in
LAYER_METRICS; trace.overhead_s is the traced iteration's wall time minus
the untraced median. A layer a workload does not reach reports 0.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Samples, quartiles and the environment go to the lines before it and to
.bench_work/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = HERE / "tracer.py"

# what the installed `persgain` console script runs
ENTRY = "import sys; from persgain.cli import main; sys.exit(main())"

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
START_PROBES = 5
IMPORT_PROBES = 3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_METRICS = {
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_numpy_s": "s",
    "cli.cmd_synth_s": "s",
    "cli.cmd_estimate_s": "s",
    "cli.cmd_evaluate_s": "s",
    "analytic.gain_two_arm_s": "s",
    "analytic.expected_gain_over_means_s": "s",
    "analysis.predict_gain_calls": "count",
    "analysis.self_s": "s",
    "simulate.simulate_gain_calls": "count",
    "simulate.replications": "count",
    "simulate.busy_s": "s",
    "simulate.draws_s": "s",
    "simulate.select_score_s": "s",
    "simulate.draw_share": "ratio",
    "simulate.normals_drawn": "count",
    "simulate.bytes_computed": "bytes",
    "dataset.generate_synthetic_s": "s",
    "dataset.write_csv_s": "s",
    "dataset.bytes_written": "bytes",
    "dataset.load_csv_s": "s",
    "dataset.rows_parsed": "count",
    "dataset.bytes_read": "bytes",
    "dataset.parse_mb_per_s": "MB/s",
    "dataset.split_s": "s",
    "dataset.subset_s": "s",
    "util.write_s": "s",
    "util.bytes_written": "bytes",
    "estimation.fit_predictor_s": "s",
    "estimation.sigma_rho_s": "s",
    "estimation.sigma_eps_s": "s",
    "estimation.thin_cells": "count",
    "policy.fit_ols_s": "s",
    "policy.gain_report_s": "s",
    "policy.bootstrap_s": "s",
    "policy.bootstrap_draws": "count",
    "policy.match_rate": "ratio",
    "trace.overhead_s": "s",
}


# --------------------------------------------------------------------------
# workloads


@dataclass
class Step:
    """One persgain command and the check its output must pass."""

    label: str
    argv: list[str]
    check: Callable[[Path, str], list[str]]


def _out(label: str) -> Path:
    return WORK / "out" / label


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


PENN_GEISINGER = {"s": 0.007, "sigma": 0.267, "rho": 0.8, "sigma_eps": 0.2, "m": 20}


def profile_elasticity(seed: int, smoke: bool) -> list[Step]:
    """Bundled-profile elasticity table: five normal-means Monte Carlo grid
    points at m=20, one thread, no CSV."""
    reps, n = (4, 1_000) if smoke else (100, 10_000)
    delta = 0.01
    argv = ["elasticity", "--profile", "penn_geisinger", "--n-replications", str(reps),
            "--n-individuals", str(n), "--delta", str(delta), "--seed", str(seed),
            "--jobs", "1", "--out", str(_out("elasticity"))]
    return [Step("elasticity", argv,
                 lambda out, _: oracles.check_elasticity(out, PENN_GEISINGER, delta, n))]


def sweep_spike_slab(seed: int, smoke: bool) -> list[Step]:
    """Gain versus arm count under spike-slab arm means, on the thread pool;
    the n x m arrays outgrow the L2 cache at large m."""
    m_values = [2, 5] if smoke else [2, 5, 10, 25, 50, 100]
    config = {
        "m_values": m_values,
        "sigma": 10.0,
        "rho": 0.9,
        "sigma_eps": 0.0,
        "dist": {"kind": "spike_slab", "pi_spike": 0.9, "mean": 0.0, "s": math.sqrt(500.0)},
        "n_individuals": 1_000 if smoke else 10_000,
        "n_replications": 4 if smoke else 60,
        "seed": seed,
    }
    path = _write_json(WORK / "sweep.json", config)
    argv = ["sweep", "--config", str(path), "--jobs", "2", "--out", str(_out("sweep"))]
    return [Step("sweep", argv, lambda out, _: oracles.check_sweep(out, m_values))]


# one-factor process: Var(h^a) = SIGMA^2 and corr(h^a, h^b) = RHO exactly
CSV_ARMS, CSV_SIGMA, CSV_RHO, CSV_NOISE = 5, 0.3, 0.5, 0.3


def csv_pipeline_200k(seed: int, smoke: bool) -> list[Step]:
    """synth -> estimate -> evaluate on a 200k-row experiment CSV: CSV
    format and parse, per-arm fits, quantile binning and the bootstrap."""
    rows, n_boot = (20_000, 50) if smoke else (200_000, 1_000)
    m = CSV_ARMS
    beta = [[0.0] * (m + 1) for _ in range(m)]
    for a in range(m):
        beta[a][0] = CSV_SIGMA * math.sqrt(CSV_RHO)
        beta[a][1 + a] = CSV_SIGMA * math.sqrt(1.0 - CSV_RHO)
    dgp = {
        "intercepts": [0.1 * a for a in range(m)],
        "beta": beta,
        "covariates": [{"kind": "normal", "mean": 0.0, "sd": 1.0}] * (m + 1),
        "noise_sd": CSV_NOISE,
    }
    path = _write_json(WORK / "synth.json", {"dgp": dgp, "n": rows, "seed": seed})
    data = str(_out("synth") / "data.csv")
    # the stratified estimator's spread shrinks with the holdout size
    sigma_tol, rho_tol = (0.06, 0.15) if smoke else (0.03, 0.06)
    return [
        Step("synth", ["synth", "--config", str(path), "--jobs", "1", "--out", str(_out("synth"))],
             lambda out, _: oracles.check_synth(out, rows, m)),
        Step("estimate", ["estimate", "--data", data, "--seed", str(seed), "--jobs", "1",
                          "--out", str(_out("estimate"))],
             lambda out, _: oracles.check_moments(out, CSV_SIGMA, CSV_RHO, sigma_tol, rho_tol)),
        Step("evaluate", ["evaluate", "--data", data, "--policies", "uniform,ols",
                          "--n-boot", str(n_boot), "--seed", str(seed), "--jobs", "1",
                          "--out", str(_out("evaluate"))],
             lambda out, _: oracles.check_report(out)),
    ]


GAIN_ARGS = {"mu_a": 1.0, "mu_b": 2.0, "sigma": 1.5, "rho": 0.1, "s": 0.5}


def cli_startup(seed: int, smoke: bool) -> list[Step]:
    """One `gain` call: interpreter start plus import dominate, the floor
    every command pays. The closed form's inputs are fixed; the seed only
    reaches the command's --seed."""
    argv = ["gain"] + [
        item for key, value in GAIN_ARGS.items()
        for item in (f"--{key.replace('_', '-')}", repr(value))
    ] + ["--seed", str(seed)]
    return [Step("gain", argv, lambda _, stdout: oracles.check_gain(stdout, **GAIN_ARGS))]


WORKLOADS = {
    "profile_elasticity": profile_elasticity,
    "sweep_spike_slab": sweep_spike_slab,
    "csv_pipeline_200k": csv_pipeline_200k,
    "cli_startup": cli_startup,
}


# --------------------------------------------------------------------------
# running commands


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    label: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]


def spawn(cmd: list[str], label: str) -> tuple[int, float, float, float, str, str]:
    """Run cmd to completion; returns (exit code, wall s, cpu s, peak RSS MB,
    stdout, stderr). Resource use comes from wait4 on this child only."""
    log = WORK / "log"
    log.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log / f"{label}.out", log / f"{label}.err"
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out_fh, stderr=err_fh, cwd=WORK, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, cpu, rss_mb, stdout, stderr


def run_step(step: Step, spans_path: Path | None = None) -> Outcome:
    if spans_path is None:
        cmd = [sys.executable, "-c", ENTRY, *step.argv]
    else:
        cmd = [sys.executable, str(TRACER), str(spans_path), "--", *step.argv]
    code, wall, cpu, rss, stdout, stderr = spawn(cmd, step.label)
    if code != 0:
        problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
    else:
        try:
            problems = step.check(_out(step.label), stdout)
        except Exception as exc:  # noqa: BLE001 - malformed output fails the check
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return Outcome(step.label, code, wall, cpu, rss, problems)


def run_iteration(steps: list[Step], traced: bool = False) -> tuple[float, list[Outcome]]:
    """Run the steps back to back. The iteration's wall time is the sum of
    the commands' own, so the output checks between them are not timed."""
    outcomes = [
        run_step(step, WORK / f"spans_{step.label}.json" if traced else None) for step in steps
    ]
    return sum(o.wall_s for o in outcomes), outcomes


# --------------------------------------------------------------------------
# set-up and probes


def setup(workload: str, seed: int, smoke: bool) -> tuple[list[Step], float]:
    """Generate the workload's inputs and warm the imports (byte-code cache,
    page cache) with one fresh interpreter that also proves the package is
    the checkout's own. Returns the steps and the time taken."""
    start = time.perf_counter()
    shutil.rmtree(WORK / "out", ignore_errors=True)
    steps = WORKLOADS[workload](seed, smoke)
    probe = subprocess.run(
        [sys.executable, "-c", "import persgain, persgain.cli; print(persgain.__file__)"],
        capture_output=True, text=True, cwd=WORK, env=child_env(),
    )
    elapsed = time.perf_counter() - start
    where = Path(probe.stdout.strip()).resolve() if probe.returncode == 0 else None
    if where is None or SRC.resolve() not in where.parents:
        raise SystemExit(f"persgain does not import from {SRC}: {probe.stderr.strip()[-500:]}")
    return steps, elapsed


def _median_run(cmd: list[str], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, cwd=WORK, env=child_env())
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def import_probe(repeats: int) -> dict[str, float]:
    """-X importtime in fresh interpreters: the cumulative time of the
    persgain.cli import, and the self time of every numpy and scipy module."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import persgain.cli"],
            check=True, capture_output=True, text=True, cwd=WORK, env=child_env(),
        )
        total = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0, "cli.import_numpy_s": 0.0}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            self_us = int(fields[0].rsplit(":", 1)[1])
            cumulative_us = int(fields[1])
            module = fields[2].strip()
            if module == "persgain.cli":
                total["cli.import_s"] += cumulative_us / 1e6
            root = module.split(".")[0]
            if root in ("scipy", "numpy"):
                total[f"cli.import_{root}_s"] += self_us / 1e6
        for key, value in total.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


# --------------------------------------------------------------------------
# per-layer metrics from spans


def _self_times(spans: list[dict]) -> list[float]:
    """Duration minus the part of the interval covered by child spans
    (children on a worker pool may overlap each other)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for child in sorted(children[index], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span["end"] - span["start"] - covered)
    return result


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics from the traced iteration's spans. Replication
    spans run on the --jobs pool, so simulate.draws_s and select_score_s sum
    thread time and may exceed simulate.busy_s, the wall time inside
    simulate_gain."""
    duration = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for path in span_files:
        spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
        for span, own in zip(spans, _self_times(spans)):
            name = span["name"]
            duration[name] += span["end"] - span["start"]
            self_time[name] += own
            calls[name] += 1
            for key, value in span["counts"].items():
                counts[f"{name}.{key}"] += value
    analysis_self = sum((v for k, v in self_time.items() if k.startswith("analysis.")), 0.0)
    replicate_s = duration["simulate._replicate"]
    load_s = duration["dataset.load_csv"]
    ipw_rows = counts["policy._ipw_terms.rows"]
    return {
        "cli.cmd_synth_s": duration["cli.cmd_synth"],
        "cli.cmd_estimate_s": duration["cli.cmd_estimate"],
        "cli.cmd_evaluate_s": duration["cli.cmd_evaluate"],
        "analytic.gain_two_arm_s": duration["analytic.gain_two_arm"],
        "analytic.expected_gain_over_means_s": duration["analytic.expected_gain_over_means"],
        "analysis.predict_gain_calls": calls["analysis.predict_gain"],
        "analysis.self_s": analysis_self,
        "simulate.simulate_gain_calls": calls["simulate.simulate_gain"],
        "simulate.replications": calls["simulate._replicate"],
        "simulate.busy_s": duration["simulate.simulate_gain"],
        "simulate.draws_s": duration["simulate.sample_potential_outcomes"],
        "simulate.select_score_s": self_time["simulate._replicate"],
        "simulate.draw_share": duration["simulate.sample_potential_outcomes"] / replicate_s
        if replicate_s else 0.0,
        "simulate.normals_drawn": counts["simulate._replicate.normals"],
        "simulate.bytes_computed": counts["simulate._replicate.bytes"],
        "dataset.generate_synthetic_s": duration["dataset.generate_synthetic"],
        "dataset.write_csv_s": duration["dataset.write_csv"],
        "dataset.bytes_written": counts["dataset.write_csv.bytes"],
        "dataset.load_csv_s": load_s,
        "dataset.rows_parsed": counts["dataset.load_csv.rows"],
        "dataset.bytes_read": counts["dataset.load_csv.bytes"],
        "dataset.parse_mb_per_s": counts["dataset.load_csv.bytes"] / 1e6 / load_s if load_s else 0.0,
        "dataset.split_s": duration["dataset.split"],
        "dataset.subset_s": duration["dataset.subset"],
        "util.write_s": duration["util.write_csv"] + duration["util.write_json"],
        "util.bytes_written": counts["util.write_csv.bytes"] + counts["util.write_json.bytes"],
        "estimation.fit_predictor_s": duration["estimation.fit_predictor"],
        "estimation.sigma_rho_s": duration["estimation.estimate_sigma_rho"],
        "estimation.sigma_eps_s": duration["estimation.estimate_sigma_eps"],
        "estimation.thin_cells": counts["estimation.estimate_sigma_rho.thin_cells"],
        "policy.fit_ols_s": duration["policy.fit_ols_policy"],
        "policy.gain_report_s": duration["policy.gain_report"],
        "policy.bootstrap_s": self_time["policy.gain_report"],
        "policy.bootstrap_draws": counts["policy.gain_report.bootstrap_draws"],
        "policy.match_rate": counts["policy._ipw_terms.matched"] / ipw_rows if ipw_rows else 0.0,
    }


# --------------------------------------------------------------------------
# reporting


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout when it is a git work tree; a copy without .git
    is identified by src_sha256 alone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "commit": commit(),
        "src_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "persgain" / "cli.py").is_file():
        print(f"error: no persgain sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        steps, elapsed = setup(args.workload, args.seed, args.smoke)
        setups.append(elapsed)

    walls, cpus, rss, outcomes = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
        wall, done = run_iteration(steps)
        walls.append(wall)
        cpus.append(sum(o.cpu_s for o in done))
        rss.append(max(o.rss_mb for o in done))
        outcomes.extend(done)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "setup_s": summary(setups), "wall_s": summary(walls),
              "cpu_s": summary(cpus), "peak_rss_mb": summary(rss)}
    if args.trace:
        traced_wall, traced = run_iteration(steps, traced=True)
        outcomes.extend(traced)
        metrics = layer_metrics([WORK / f"spans_{step.label}.json" for step in steps])
        metrics["cli.python_start_s"] = _median_run([sys.executable, "-c", "pass"], START_PROBES)
        metrics.update(import_probe(IMPORT_PROBES))
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        detail["traced_wall_s"] = traced_wall
        units = LAYER_METRICS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END

    failures = [o for o in outcomes if o.problems]
    detail["attempted"] = len(outcomes)
    detail["failed"] = len(failures)
    detail["fail_rate"] = len(failures) / len(outcomes)
    detail["problems"] = [f"{o.label}: {p}" for o in failures for p in o.problems]
    detail["per_command"] = [
        {"label": o.label, "exit_code": o.exit_code, "wall_s": o.wall_s, "cpu_s": o.cpu_s,
         "rss_mb": o.rss_mb} for o in outcomes
    ]
    detail["environment"]["loadavg_end"] = os.getloadavg()
    detail["metrics"] = metrics
    _write_json(WORK / "result.json", detail)

    print(f"workload {args.workload} seed {args.seed} "
          f"nproc {env['nproc']} python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} commit {env['commit']} src {env['src_sha256']} "
          f"load {env['loadavg_start'][0]:.2f}->{detail['environment']['loadavg_end'][0]:.2f}")
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        s = detail[key]
        print(f"{key}: median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']}")
    print(f"fail_rate: {detail['fail_rate']:.4f} ({len(failures)}/{len(outcomes)})")
    for problem in detail["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
