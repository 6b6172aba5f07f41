"""Acceptance gate: one test per shipped guarantee.

Each test covers exactly one numbered criterion and asserts both the
statistical claim and its runtime budget. `pytest -v` therefore prints one
pass/fail line per criterion. Seeds are pinned, so every run reproduces
the same numbers.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from persgain.analysis import SimSettings, StudyProfile, elasticity_table, predict_gain
from persgain.analytic import (
    TwoArmParams,
    dgain_drho,
    dgain_dsigma,
    expected_gain_over_means,
    gain_two_arm,
)
from persgain.dataset import generate_synthetic, one_factor_dgp, rerandomize_assignment, split
from persgain.estimation import estimate_moments
from persgain.policy import best_uniform, evaluate_ipw, evaluate_oracle, fit_ols_policy
from persgain.simulate import (
    FixedMeans,
    NormalMeans,
    SimConfig,
    SpikeSlabMeans,
    simulate_gain,
    sweep_arms,
)

JOBS = os.cpu_count() or 1


def test_criterion_1_simulation_matches_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    hits = 0
    for case in range(20):
        mu_a = float(rng.uniform(-2, 2))
        mu_b = mu_a + float(rng.uniform(-3, 3))
        sigma = float(rng.uniform(0.2, 2.5))
        rho = float(rng.uniform(-0.9, 0.95))
        exact = gain_two_arm(TwoArmParams(mu_a, mu_b, sigma, rho))
        cfg = SimConfig(
            m=2,
            sigma=sigma,
            rho=rho,
            dist=FixedMeans((mu_a, mu_b)),
            sigma_eps=0.0,
            n_individuals=10_000,
            n_replications=500,
            seed=1000 + case,
        )
        res = simulate_gain(cfg, n_jobs=JOBS)
        hits += abs(res.gain_mean - exact) <= 3 * max(res.gain_se, 1e-12)
    elapsed = time.perf_counter() - start
    assert hits >= 19, f"only {hits}/20 simulations within 3 MC SEs"
    assert elapsed < 60, f"{elapsed:.1f}s"
    print(f"ACCEPTANCE 1: PASS - {hits}/20 within 3 SE, {elapsed:.1f}s")


def test_criterion_2_derivatives_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(-0.9, 0.9))
        mu_a = float(rng.uniform(-1, 1))
        # keep the gap within a few effective scales so the derivative is
        # large enough for a 1e-6 central difference to resolve
        v = sigma * math.sqrt(2 * (1 - rho))
        mu_b = mu_a + float(rng.uniform(-3, 3)) * v
        p = TwoArmParams(mu_a, mu_b, sigma, rho)

        fd_sigma = (
            gain_two_arm(replace(p, sigma=sigma + h)) - gain_two_arm(replace(p, sigma=sigma - h))
        ) / (2 * h)
        fd_rho = (
            gain_two_arm(replace(p, rho=rho + h)) - gain_two_arm(replace(p, rho=rho - h))
        ) / (2 * h)
        err_sigma = abs(dgain_dsigma(p) - fd_sigma) / abs(dgain_dsigma(p))
        err_rho = abs(dgain_drho(p) - fd_rho) / abs(dgain_drho(p))
        worst = max(worst, err_sigma, err_rho)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 1, f"{elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS - worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_monotonicity_propositions():
    for gap in (0.0, 0.5, 2.0):
        sig_gains = [
            gain_two_arm(TwoArmParams(0.0, gap, s, 0.3)) for s in np.linspace(0.05, 4.0, 40)
        ]
        assert all(a < b for a, b in zip(sig_gains, sig_gains[1:])), "not increasing in sigma"
        rho_gains = [
            gain_two_arm(TwoArmParams(0.0, gap, 1.0, r)) for r in np.linspace(-0.95, 1.0, 40)
        ]
        assert all(a > b for a, b in zip(rho_gains, rho_gains[1:])), "not decreasing in rho"
    for sigma, rho in ((1.0, 0.3), (0.267, 0.8)):
        over_s = [
            expected_gain_over_means(sigma, rho, s)
            for s in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a > b for a, b in zip(over_s, over_s[1:])), "not decreasing in s"
    print("ACCEPTANCE 3: PASS - increasing in sigma, decreasing in rho and s")


def test_criterion_4_gain_versus_number_of_arms():
    start = time.perf_counter()
    m_values = [2, 5, 10, 25, 50, 100]
    base = dict(sigma=10.0, sigma_eps=0.0, n_individuals=10_000, n_replications=400, seed=4)

    # normal-means case: same replication streams across rho, so the three
    # curves are common-random-number coupled
    curves = {}
    for rho in (0.0, 0.5, 0.9):
        cfg = SimConfig(m=2, rho=rho, dist=NormalMeans(0.0, math.sqrt(10.0)), **base)
        curves[rho] = sweep_arms(cfg, m_values, n_jobs=JOBS)
    for rho, rows in curves.items():
        gains = [r["gain_mean"] for r in rows]
        assert all(a < b for a, b in zip(gains, gains[1:])), f"rho={rho}: not increasing in m"
    for lo, hi in ((0.0, 0.5), (0.5, 0.9)):
        for i, m in enumerate(m_values):
            if m < 10:
                continue
            d = curves[lo][i]["gain_mean"] - curves[hi][i]["gain_mean"]
            se = math.hypot(curves[lo][i]["gain_se"], curves[hi][i]["gain_se"])
            assert d > 2 * se, f"rho {lo} vs {hi} not separated at m={m}"

    # spike-and-slab averages at rho = 0.9: more arms eventually hurt
    cfg = SimConfig(
        m=2, rho=0.9, dist=SpikeSlabMeans(pi_spike=0.9, mean=0.0, s=math.sqrt(500.0)), **base
    )
    slab = sweep_arms(cfg, m_values, n_jobs=JOBS)
    last = slab[-1]
    peaked = any(
        row["gain_mean"] - last["gain_mean"] >= 2 * math.hypot(row["gain_se"], last["gain_se"])
        for row in slab[1:-1]
    )
    assert peaked, "no interior m beats m=100 by 2 SE"
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"{elapsed:.0f}s"
    print(f"ACCEPTANCE 4: PASS - monotone ordered curves and interior peak, {elapsed:.0f}s")


def test_criterion_5_stratified_estimator_recovers_moments():
    start = time.perf_counter()
    intercepts = (0.30, 0.31, 0.29, 0.32, 0.28)
    noise_sd = 0.25
    case = 0
    for sigma_star in (0.05, 0.10, 0.25):
        for rho_star in (0.0, 0.5, 0.8):
            case += 1
            dgp = one_factor_dgp(
                m=5, sigma=sigma_star, rho=rho_star, intercepts=intercepts, noise_sd=noise_sd
            )
            dataset, _ = generate_synthetic(dgp, n=200_000, seed=500 + case)
            sp = split(dataset, 0.7, seed=case)
            moments = estimate_moments(dataset, sp, n_quantiles=10)
            label = f"sigma*={sigma_star}, rho*={rho_star}"
            assert abs(moments.sigma_hat - sigma_star) <= 0.15 * sigma_star, (
                f"{label}: sigma_hat={moments.sigma_hat:.4f}"
            )
            assert abs(moments.rho_hat_mean - rho_star) <= 0.07, (
                f"{label}: rho_hat={moments.rho_hat_mean:.4f}"
            )
            assert abs(moments.sigma_eps_hat - noise_sd) <= 0.05 * noise_sd, (
                f"{label}: sigma_eps_hat={moments.sigma_eps_hat:.4f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"{elapsed:.0f}s"
    print(f"ACCEPTANCE 5: PASS - 9/9 DGPs recovered, {elapsed:.0f}s")


def test_criterion_6_ipw_unbiased_over_rerandomizations():
    start = time.perf_counter()
    dgp = one_factor_dgp(
        m=3, sigma=0.5, rho=0.3, intercepts=(1.0, 1.2, 0.9), noise_sd=0.5
    )
    fit_ds, _ = generate_synthetic(dgp, n=4_000, seed=61)
    policy = fit_ols_policy(fit_ds)  # fixed nontrivial policy, independent data
    dataset, sealed = generate_synthetic(dgp, n=4_000, seed=60)
    oracle = evaluate_oracle(policy, dataset, sealed)
    values = [
        evaluate_ipw(policy, rerandomize_assignment(dataset, sealed, seed=k)).value
        for k in range(500)
    ]
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    elapsed = time.perf_counter() - start
    assert abs(mean - oracle) <= 2 * se, f"mean={mean:.5f}, oracle={oracle:.5f}, se={se:.5f}"
    assert elapsed < 120, f"{elapsed:.0f}s"
    print(f"ACCEPTANCE 6: PASS - |bias| {abs(mean - oracle):.5f} <= 2 se {2 * se:.5f}, {elapsed:.0f}s")


PG_LIKE = StudyProfile(
    name="pg_like", s=0.007, sigma=0.267, rho=0.80, sigma_eps=0.2, m=20, mean=0.3
)
WALMART_LIKE = StudyProfile(
    name="walmart_like", s=0.007, sigma=0.078, rho=0.61, sigma_eps=0.2, m=23, mean=0.3
)


def test_criterion_7_study_ordering_and_elasticity():
    start = time.perf_counter()
    settings = SimSettings(n_individuals=10_000, n_replications=400, seed=0, n_jobs=JOBS)
    for eps in (0.1, 0.2, 0.4):
        g_pg, _ = predict_gain(replace(PG_LIKE, sigma_eps=eps), settings)
        g_wm, _ = predict_gain(replace(WALMART_LIKE, sigma_eps=eps), settings)
        assert g_pg > 0, f"eps={eps}: PG gain {g_pg:.5f} not positive"
        assert g_wm <= 0 or g_pg / g_wm >= 4, (
            f"eps={eps}: ratio {g_pg / g_wm:.2f} below 4"
        )
    for profile in (PG_LIKE, WALMART_LIKE):
        table = elasticity_table(profile, delta=0.01, settings=settings)
        assert table[0]["best"] == "rho_down", (
            f"{profile.name}: best lever {table[0]['best']!r}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"{elapsed:.0f}s"
    print(f"ACCEPTANCE 7: PASS - gain ratio >= 4 and rho is the top lever, {elapsed:.0f}s")


def test_criterion_8_motivating_example_end_to_end():
    from persgain.dataset import CovariateSpec, SynthDGP

    start = time.perf_counter()
    x_spec = (CovariateSpec("normal", mean=5.0, sd=1.5),)

    exp1 = SynthDGP(
        intercepts=(22.0, 34.0),
        beta=[[0.5], [-1.5]],
        covariates=x_spec,
        noise_sd=1.0,
        arm_names=("A", "B"),
    )
    dataset, sealed = generate_synthetic(exp1, n=50_000, seed=80)
    sp = split(dataset, 0.5, seed=0)
    train = dataset.subset(sp.train_idx)
    personalized = evaluate_oracle(fit_ols_policy(train), dataset, sealed)
    uniform = evaluate_oracle(best_uniform(train), dataset, sealed)
    assert abs(personalized - 26.9) <= 0.1, f"personalized {personalized:.3f}"
    assert abs(uniform - 26.5) <= 0.1, f"uniform {uniform:.3f}"

    exp2 = SynthDGP(
        intercepts=(17.0, 39.0),
        beta=[[0.5], [-1.5]],
        covariates=x_spec,
        noise_sd=1.0,
        arm_names=("A", "B"),
    )
    dataset2, sealed2 = generate_synthetic(exp2, n=50_000, seed=81)
    sp2 = split(dataset2, 0.5, seed=0)
    train2 = dataset2.subset(sp2.train_idx)
    gain2 = evaluate_oracle(fit_ols_policy(train2), dataset2, sealed2) - evaluate_oracle(
        best_uniform(train2), dataset2, sealed2
    )
    assert abs(gain2) <= 0.1, f"no-crossover gain {gain2:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"{elapsed:.0f}s"
    print(
        f"ACCEPTANCE 8: PASS - personalized {personalized:.2f}, uniform {uniform:.2f}, "
        f"flat-case gain {gain2:.3f}, {elapsed:.0f}s"
    )


def test_criterion_9_cli_byte_identical_at_any_parallelism(tmp_path):
    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "persgain.cli", *[str(a) for a in args]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    import json

    from persgain.dataset import one_factor_dgp

    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"dgp": dgp.to_config(), "n": 2_000, "seed": 1}))
    data_dir = tmp_path / "data"
    cli("synth", "--config", synth_cfg, "--out", data_dir)
    data = data_dir / "data.csv"

    commands = {
        "synth": ["synth", "--config", synth_cfg],
        "simulate": ["simulate", "--m", 3, "--sigma", 1, "--rho", 0.2, "--sigma-eps", 0.3,
                     "--n-individuals", 400, "--n-replications", 12],
        "sweep": ["sweep", "--m-values", "2,4", "--sigma", 2, "--rho", 0,
                  "--n-individuals", 300, "--n-replications", 8],
        "estimate": ["estimate", "--data", data, "--quantiles", 5],
        "evaluate": ["evaluate", "--data", data, "--policies", "uniform,ols", "--n-boot", 50],
        "predict": ["predict", "--profile", "walmart",
                    "--n-individuals", 800, "--n-replications", 10],
        "sensitivity": ["sensitivity", "--profile", "walmart", "--parameter", "sigma",
                        "--grid", "0.05,0.1", "--n-individuals", 800, "--n-replications", 10],
        "counterfactual": ["counterfactual", "--profile-a", "walmart",
                           "--profile-b", "penn_geisinger", "--parameter", "rho",
                           "--n-individuals", 800, "--n-replications", 10],
        "elasticity": ["elasticity", "--profile", "penn_geisinger",
                       "--n-individuals", 800, "--n-replications", 10],
    }
    for name, args in commands.items():
        runs = []
        for tag, jobs in (("a", 1), ("b", 4), ("c", 4)):
            out = tmp_path / name / tag
            cli(*args, "--jobs", jobs, "--out", out)
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1] == runs[2], f"{name}: outputs differ across runs"

    outs = {cli("gain", "--mu-a", 1, "--mu-b", 2, "--sigma", 1.5, "--rho", 0.1, "--s", 0.5)
            for _ in range(2)}
    assert len(outs) == 1, "gain stdout differs across runs"
    print("ACCEPTANCE 9: PASS - byte-identical outputs for all commands at jobs 1 and 4")
