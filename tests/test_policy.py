import dataclasses
import tracemalloc

import numpy as np
import pytest

import persgain.policy
from persgain.dataset import (
    CovariateSpec,
    ExperimentDataset,
    SynthDGP,
    generate_synthetic,
    one_factor_dgp,
    rerandomize_assignment,
    split,
)
from persgain.errors import ConfigError
from persgain.estimation import LinearTLearner
from persgain.policy import (
    IpwEstimate,
    UniformPolicy,
    best_uniform,
    evaluate_ipw,
    evaluate_oracle,
    fit_ols_policy,
    gain_report,
)

# the two-arm linear scenario used in several places: outcomes cross at x=6
EXP1 = SynthDGP(
    (22.0, 34.0),
    np.array([[0.5], [-1.5]]),
    (CovariateSpec("normal", mean=5.0, sd=1.5),),
    noise_sd=0.0,
    arm_names=("A", "B"),
)


def manual_dataset(outcomes, arms, arm_names, x=None, propensity=None):
    n = len(outcomes)
    if x is None:
        x = np.linspace(-1.0, 1.0, n).reshape(n, 1)
    if propensity is None:
        propensity = np.full(n, 1.0 / len(arm_names))
    return ExperimentDataset(
        unit_ids=tuple(f"u{i:04d}" for i in range(n)),
        x=np.atleast_2d(x),
        arm=np.asarray(arms),
        outcome=np.asarray(outcomes, dtype=float),
        propensity=propensity,
        arm_names=arm_names,
        covariate_names=tuple(f"c{j}" for j in range(np.atleast_2d(x).shape[1])),
    )


class RowMaxPolicy:
    """Each unit's best arm read off the sealed potential outcomes (ties to
    the lowest arm): the value no policy can beat."""

    def __init__(self, sealed):
        self.pick = dict(zip(sealed.unit_ids, np.argmax(sealed.y, axis=1)))

    def assign(self, dataset):
        return np.array([self.pick[uid] for uid in dataset.unit_ids])


class TestBestUniform:
    def test_picks_highest_training_mean(self):
        ds = manual_dataset([0.1, 0.9, 0.1, 0.9], [0, 1, 0, 1], ("a", "b"))
        assert best_uniform(ds).arm == 1

    def test_arm_without_training_rows_is_named_as_fit_ols_policy_names_it(self):
        train = manual_dataset([0.1, 0.9, 0.1, 0.9], [0, 1, 0, 1], ("a", "b")).subset([0, 2])
        for fit in (best_uniform, fit_ols_policy):
            with pytest.raises(ConfigError, match="^arm 'b' has no training rows$"):
                fit(train)

    def test_tie_goes_to_lowest_index(self):
        ds = manual_dataset([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1], ("a", "b"))
        assert best_uniform(ds).arm == 0

    def test_empty_arm_is_an_error(self):
        ds = manual_dataset([0.5, 0.5], [0, 0], ("a", "b"))
        with pytest.raises(ConfigError, match="'b'"):
            best_uniform(ds)

    def test_finds_true_best_arm_in_most_replications(self):
        dgp = one_factor_dgp(
            m=3, sigma=0.1, rho=0.5, intercepts=[0.0, 0.0, 0.2], noise_sd=0.5
        )
        hits = 0
        for seed in range(200):
            ds, _ = generate_synthetic(dgp, n=300, seed=seed)
            hits += best_uniform(ds).arm == 2
        assert hits >= 190


class TestOlsPolicy:
    def test_crossover_of_two_linear_arms(self):
        ds, _ = generate_synthetic(EXP1, n=4_000, seed=0)
        policy = fit_ols_policy(ds)
        probe = manual_dataset([0.0] * 4, [0, 1, 0, 1], ("A", "B"), x=[[4.0], [5.9], [6.1], [8.0]])
        # 22 + 0.5x beats 34 - 1.5x exactly when x > 6
        assert policy.assign(probe).tolist() == [1, 1, 0, 0]
        assert policy.describe(ds.arm_names) == "ols_interaction"

    def test_noiseless_fit_reproduces_true_argmax_everywhere(self):
        ds, _ = generate_synthetic(EXP1, n=4_000, seed=1)
        policy = fit_ols_policy(ds)
        truth = np.argmax(np.asarray(EXP1.intercepts) + ds.x @ EXP1.beta.T, axis=1)
        assert np.array_equal(policy.assign(ds), truth)

    def test_no_interaction_dgp_collapses_to_best_uniform(self):
        dgp = SynthDGP(
            (0.0, 0.2),
            np.array([[0.4], [0.4]]),
            (CovariateSpec("normal"),),
            noise_sd=0.3,
        )
        ds, _ = generate_synthetic(dgp, n=50_000, seed=2)
        policy = fit_ols_policy(ds)
        assert np.all(policy.assign(ds) == best_uniform(ds).arm)

    def test_reference_arm_choice_cannot_matter(self):
        ds, _ = generate_synthetic(EXP1, n=2_000, seed=3)
        base = fit_ols_policy(ds).assign(ds)
        # relabel arms: old arm a becomes index perm[a]
        perm = np.array([1, 0])
        relabeled = ExperimentDataset(
            unit_ids=ds.unit_ids,
            x=ds.x,
            arm=perm[ds.arm],
            outcome=ds.outcome,
            propensity=ds.propensity,
            arm_names=("B", "A"),
            covariate_names=ds.covariate_names,
        )
        again = fit_ols_policy(relabeled).assign(relabeled)
        assert np.array_equal(perm[base], again)

    def test_duplicated_covariate_warns_and_still_fits(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(200)
        ds = manual_dataset(
            outcomes=x0 + rng.standard_normal(200) * 0.1,
            arms=rng.integers(0, 2, 200),
            arm_names=("a", "b"),
            x=np.column_stack([x0, x0]),
        )
        with pytest.warns(UserWarning, match="rank deficient"):
            policy = fit_ols_policy(ds)
        assert np.all(np.isfinite(policy.coef))

    def test_arm_with_fewer_rows_than_coefficients_warns(self):
        ds = manual_dataset([1.0, 2.0, 3.0], [0, 1, 0], ("a", "b"))
        with pytest.warns(UserWarning, match=r"\['b'\] have rank deficient"), \
                pytest.warns(UserWarning, match=r"\['a', 'b'\] have fewer than p \+ 2 = 3"):
            policy = fit_ols_policy(ds)
        assert np.all(np.isfinite(policy.coef))

    def test_matches_one_regression_on_arm_interactions(self):
        # the per-arm fit spans the same space as one regression on
        # [1, x, arm dummies, dummy * x]: same coefficients
        dgp = one_factor_dgp(m=3, sigma=0.4, rho=0.3, intercepts=[0.1, 0.0, 0.2], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=3_000, seed=16)
        x1 = np.column_stack([np.ones(ds.n), ds.x])
        dummies = [(ds.arm == a).astype(float)[:, None] for a in range(1, ds.m)]
        design = np.hstack([x1] + [d * x1 for d in dummies])
        beta, *_ = np.linalg.lstsq(design, ds.outcome, rcond=None)
        k = ds.p + 1
        shifts = [np.zeros(k)] + [beta[a * k : (a + 1) * k] for a in range(1, ds.m)]
        theta = beta[:k] + np.vstack(shifts)
        np.testing.assert_allclose(fit_ols_policy(ds).coef, theta, rtol=0, atol=1e-12)


class TestPolicyObjects:
    def test_assignment_is_total_and_deterministic(self):
        rng = np.random.default_rng(7)
        arms = ("a", "b", "c", "d")
        policy = LinearTLearner(rng.standard_normal((4, 3)), ("c0", "c1"), arms)
        x = rng.standard_normal((500, 2))
        ds = manual_dataset(np.zeros(500), np.arange(500) % 4, arms, x=x)
        first = policy.assign(ds)
        assert np.array_equal(first, policy.assign(ds))
        assert first.min() >= 0 and first.max() < 4
        assert np.all(UniformPolicy(2).assign(ds) == 2)


class TestIpw:
    def test_uniform_policy_reduces_to_reweighted_arm_mean(self):
        dgp = one_factor_dgp(m=4, sigma=0.3, rho=0.5, intercepts=[0.0] * 4, noise_sd=0.2)
        ds, _ = generate_synthetic(dgp, n=5_000, seed=4)
        est = evaluate_ipw(UniformPolicy(2), ds)
        in_arm = ds.outcome[ds.arm == 2]
        assert est.value == pytest.approx(4.0 * in_arm.sum() / ds.n, abs=1e-12)
        assert est.n_matched == in_arm.size
        assert est.match_rate == in_arm.size / ds.n

    def test_no_matches_returns_zero_with_warning(self):
        ds = manual_dataset([1.0, 2.0, 3.0], [1, 1, 1], ("a", "b"))
        with pytest.warns(UserWarning, match="matches no"):
            est = evaluate_ipw(UniformPolicy(0), ds)
        assert est.value == 0.0 and est.match_rate == 0.0

    def test_unbiased_over_rerandomizations(self):
        dgp = one_factor_dgp(m=3, sigma=0.4, rho=0.3, intercepts=[0.1, 0.0, 0.2], noise_sd=0.3)
        ds, sealed = generate_synthetic(dgp, n=2_000, seed=5)
        policy = fit_ols_policy(ds.subset(range(1_000)))
        truth = evaluate_oracle(policy, ds, sealed)
        values = np.array(
            [
                evaluate_ipw(policy, rerandomize_assignment(ds, sealed, seed=k)).value
                for k in range(500)
            ]
        )
        mc_se = values.std(ddof=1) / np.sqrt(500)
        assert abs(values.mean() - truth) < 2 * mc_se

    def test_reported_se_tracks_sampling_spread(self):
        # the SE models fresh draws of units and assignments together, so
        # the yardstick is the spread across fully regenerated datasets
        dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.0, intercepts=[0.5, 0.5], noise_sd=0.3)
        policy = UniformPolicy(0)
        ses, values = [], []
        for k in range(60):
            ds, _ = generate_synthetic(dgp, n=4_000, seed=100 + k)
            est = evaluate_ipw(policy, ds)
            ses.append(est.se)
            values.append(est.value)
        assert np.mean(ses) == pytest.approx(np.std(values, ddof=1), rel=0.3)

    def test_estimate_must_be_finite(self):
        with pytest.raises(ConfigError, match="finite"):
            IpwEstimate(float("nan"), 0.0, 1, 1.0)


class TestOracle:
    def test_uniform_policy_reads_column_mean(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=[0.0] * 3, noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=1_000, seed=7)
        got = evaluate_oracle(UniformPolicy(1), ds, sealed)
        assert got == pytest.approx(sealed.y[:, 1].mean(), abs=1e-15)

    def test_oracle_policy_attains_row_max_mean(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=[0.0] * 3, noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=1_000, seed=8)
        got = evaluate_oracle(RowMaxPolicy(sealed), ds, sealed)
        assert got == pytest.approx(sealed.y.max(axis=1).mean(), abs=1e-15)

    def test_oracle_dominates_any_fitted_policy(self):
        dgp = one_factor_dgp(m=3, sigma=0.5, rho=0.0, intercepts=[0.0] * 3, noise_sd=0.3)
        ds, sealed = generate_synthetic(dgp, n=5_000, seed=9)
        sp = split(ds, 0.7, seed=0)
        fitted = fit_ols_policy(ds.subset(sp.train_idx))
        holdout = ds.subset(sp.test_idx)
        assert evaluate_oracle(RowMaxPolicy(sealed), holdout, sealed) >= evaluate_oracle(
            fitted, holdout, sealed
        )

    def test_subset_lookup_works(self):
        dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=[0.0, 0.0], noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=100, seed=10)
        sub = ds.subset([5, 17, 40])
        got = evaluate_oracle(UniformPolicy(0), sub, sealed)
        assert got == pytest.approx(sealed.y[[5, 17, 40], 0].mean(), abs=1e-15)

    def test_foreign_units_are_rejected(self):
        dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=[0.0, 0.0], noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=50, seed=11)
        foreign = manual_dataset([1.0, 2.0], [0, 1], ("arm_0", "arm_1"))
        with pytest.raises(ConfigError, match="sealed"):
            evaluate_oracle(UniformPolicy(0), foreign, sealed)
        # one unit the generator never drew is enough
        ids = ds.unit_ids.copy()
        ids[7] = "stranger"
        with pytest.raises(ConfigError, match="'stranger'"):
            evaluate_oracle(UniformPolicy(0), dataclasses.replace(ds, unit_ids=ids), sealed)


class TestGainReport:
    def test_benchmark_row_is_first_with_zero_improvement(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=[0.0, 0.1, 0.2], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=8_000, seed=12)
        sp = split(ds, 0.7, seed=0)
        rows = gain_report([fit_ols_policy], ds, sp, seed=1)
        assert rows[0]["policy"].startswith("best_uniform")
        assert rows[0]["abs_improvement"] == 0.0
        assert rows[0]["rel_improvement"] == 0.0
        assert rows[0]["diff_se_boot"] == 0.0
        assert len(rows) == 2

    def test_only_a_zero_benchmark_leaves_a_non_finite_cell(self):
        # rel_improvement is NaN by convention when the benchmark value is 0;
        # any other non-finite cell is an overflow and raises
        dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=[0.0, 0.1], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=400, seed=12)
        sp = split(ds, 0.5, seed=0)
        zero = dataclasses.replace(ds, outcome=np.zeros(ds.n))
        rows = gain_report([fit_ols_policy], zero, sp, n_boot=5)
        assert [np.isnan(row["rel_improvement"]) for row in rows] == [True, True]
        huge = dataclasses.replace(ds, outcome=np.where(ds.arm == 0, 1e308, -1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigError, match="overflow float64"):
                gain_report([fit_ols_policy], huge, sp, n_boot=5)

    def test_strong_heterogeneity_yields_real_improvement(self):
        dgp = one_factor_dgp(m=3, sigma=1.0, rho=0.0, intercepts=[1.0, 1.0, 1.0], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=30_000, seed=13)
        sp = split(ds, 0.7, seed=0)
        rows = gain_report([fit_ols_policy], ds, sp, seed=1)
        ols = rows[1]
        assert ols["abs_improvement"] > 2 * ols["diff_se_boot"]

    def test_no_heterogeneity_yields_no_significant_improvement(self):
        dgp = SynthDGP((0.5, 0.5), np.zeros((2, 1)), (CovariateSpec("normal"),), noise_sd=0.5)
        ds, _ = generate_synthetic(dgp, n=20_000, seed=14)
        sp = split(ds, 0.7, seed=0)
        rows = gain_report([fit_ols_policy], ds, sp, seed=1)
        ols = rows[1]
        assert abs(ols["abs_improvement"]) <= 2 * ols["diff_se_boot"]

    def test_deterministic_given_seed(self):
        dgp = one_factor_dgp(m=2, sigma=0.4, rho=0.3, intercepts=[0.0, 0.1], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=4_000, seed=15)
        sp = split(ds, 0.7, seed=0)
        fits = [fit_ols_policy]
        assert gain_report(fits, ds, sp, seed=3) == gain_report(fits, ds, sp, seed=3)
        a = gain_report(fits, ds, sp, seed=3)[1]["se_boot"]
        b = gain_report(fits, ds, sp, seed=4)[1]["se_boot"]
        assert a != b

    def test_repeated_policy_reuses_resampled_means_bit_for_bit(self, monkeypatch):
        # `evaluate --policies uniform,uniform,ols` repeats the benchmark
        # twice; the rows it shares with `--policies ols` must be the same
        dgp = one_factor_dgp(m=3, sigma=0.4, rho=0.3, intercepts=[0.0, 0.1, 0.2], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=3_000, seed=16)
        sp = split(ds, 0.7, seed=0)
        fits = [best_uniform, best_uniform, fit_ols_policy]
        rows = gain_report(fits, ds, sp, n_boot=64, seed=5)
        assert gain_report([fit_ols_policy], ds, sp, n_boot=64, seed=5) == [rows[0], rows[3]]
        assert rows[1]["se_boot"] == rows[2]["se_boot"] == rows[0]["se_boot"]
        assert rows[1]["diff_se_boot"] == 0.0
        # a fit listed again is fitted once: best_uniform (the benchmark's own
        # fit) and the OLS fit, each counted and listed twice
        calls = []

        def counting(fit):
            def counted(train):
                calls.append(fit)
                return fit(train)
            return counted

        counted_uniform, counted_ols = counting(best_uniform), counting(fit_ols_policy)
        monkeypatch.setattr(persgain.policy, "best_uniform", counted_uniform)
        fits = [counted_uniform, counted_ols, counted_uniform, counted_ols]
        counted_rows = gain_report(fits, ds, sp, n_boot=64, seed=5)
        assert calls == [best_uniform, fit_ols_policy]
        assert counted_rows == [rows[0], rows[1], rows[3], rows[1], rows[3]]

    def test_each_distinct_fit_is_fitted_scored_and_resampled_once(self, monkeypatch):
        dgp = one_factor_dgp(m=3, sigma=0.4, rho=0.3, intercepts=[0.0, 0.1, 0.2], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=3_000, seed=18)
        sp = split(ds, 0.7, seed=0)
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        counted_uniform = counting("best_uniform", best_uniform)
        monkeypatch.setattr(persgain.policy, "best_uniform", counted_uniform)
        monkeypatch.setattr(persgain.policy, "_ipw_terms",
                            counting("_ipw_terms", persgain.policy._ipw_terms))
        fits = [counted_uniform, counting("fit_ols_policy", fit_ols_policy), counted_uniform]
        bench, uniform, ols, again = gain_report(fits, ds, sp, n_boot=64, seed=5)
        assert sorted(calls) == ["_ipw_terms", "_ipw_terms", "best_uniform", "fit_ols_policy"]
        name = ds.arm_names[best_uniform(ds.subset(sp.train_idx)).arm]
        assert [bench["policy"], uniform["policy"], again["policy"]] == [
            f"best_uniform[{name}]", f"uniform[{name}]", f"uniform[{name}]"]
        for row in (uniform, again):
            assert {**row, "policy": bench["policy"]} == bench
            assert row["diff_se_boot"] == 0.0
        assert ols["policy"] == "ols_interaction" and ols["diff_se_boot"] > 0.0

    def test_bootstrap_memory_does_not_grow_with_resample_count(self):
        # one resample's index vector (6,000 rows, 48 KB) at a time; an
        # n_boot x holdout index matrix would be 24 MB on its own
        dgp = one_factor_dgp(m=3, sigma=0.4, rho=0.3, intercepts=[0.0, 0.1, 0.2], noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=20_000, seed=17)
        sp = split(ds, 0.7, seed=0)
        tracemalloc.start()
        try:
            gain_report([best_uniform, fit_ols_policy], ds, sp, n_boot=500, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
