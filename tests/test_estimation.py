import json
import math
from dataclasses import fields

import numpy as np
import pytest

from persgain.dataset import (
    CovariateSpec,
    ExperimentDataset,
    SynthDGP,
    TrainTestSplit,
    generate_synthetic,
    one_factor_dgp,
    split,
)
from persgain.errors import ConfigError
from persgain.estimation import (
    MomentEstimates,
    _quantile_bins,
    estimate_moments,
    estimate_s,
    estimate_sigma_eps,
    estimate_sigma_rho,
    fit_predictor,
)


def manual_dataset(outcomes, arms, arm_names, x=None):
    n = len(outcomes)
    if x is None:
        x = np.linspace(-1.0, 1.0, n).reshape(n, 1)
    return ExperimentDataset(
        unit_ids=tuple(f"u{i:04d}" for i in range(n)),
        x=x,
        arm=np.asarray(arms),
        outcome=np.asarray(outcomes, dtype=float),
        propensity=np.full(n, 1.0 / len(arm_names)),
        arm_names=arm_names,
        covariate_names=tuple(f"c{j}" for j in range(np.atleast_2d(x).shape[1])),
    )


def holdout_scores(ds, sp, model=None):
    """The holdout and the predictor's score matrix on it, as estimate_moments builds them."""
    model = fit_predictor(ds, sp) if model is None else model
    holdout = ds.subset(sp.test_idx)
    return holdout, model.predict(holdout.x)


class TestEstimateS:
    def test_equal_arm_means_give_zero(self):
        ds = manual_dataset([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1], ("a", "b"))
        assert estimate_s(ds) == 0.0

    def test_two_point_spread(self):
        ds = manual_dataset([0.2, 0.4, 0.2, 0.4], [0, 1, 0, 1], ("a", "b"))
        assert estimate_s(ds) == pytest.approx(0.1414, abs=1e-4)

    def test_recovers_generating_spread(self):
        rng = np.random.default_rng(0)
        intercepts = 0.3 + 0.007 * rng.standard_normal(5)
        dgp = one_factor_dgp(m=5, sigma=0.05, rho=0.5, intercepts=intercepts, noise_sd=0.05)
        ds, _ = generate_synthetic(dgp, n=200_000, seed=1)
        assert estimate_s(ds) == pytest.approx(np.std(intercepts, ddof=1), rel=0.15)

    def test_empty_arm_is_an_error(self):
        ds = manual_dataset([1.0, 2.0], [0, 1], ("a", "b", "c"))
        with pytest.raises(ConfigError, match="'c'"):
            estimate_s(ds)


class TestFitPredictor:
    def test_noiseless_linear_model_is_interpolated(self):
        dgp = one_factor_dgp(m=3, sigma=0.5, rho=0.3, intercepts=[1.0, 2.0, 3.0], noise_sd=0.0)
        ds, _ = generate_synthetic(dgp, n=2_000, seed=2)
        sp = split(ds, 0.7, seed=0)
        model = fit_predictor(ds, sp)
        holdout = ds.subset(sp.test_idx)
        truth = np.asarray(dgp.intercepts) + holdout.x @ dgp.beta.T
        assert np.max(np.abs(model.predict(holdout.x) - truth)) < 1e-8

    def test_pure_noise_has_near_zero_out_of_sample_r2(self):
        dgp = SynthDGP(
            (0.0, 0.0),
            np.zeros((2, 2)),
            (CovariateSpec("normal"), CovariateSpec("normal")),
            noise_sd=1.0,
        )
        ds, _ = generate_synthetic(dgp, n=100_000, seed=3)
        sp = split(ds, 0.7, seed=0)
        model = fit_predictor(ds, sp)
        holdout = ds.subset(sp.test_idx)
        yhat = model.predict(holdout.x)[np.arange(holdout.n), holdout.arm]
        ss_res = np.sum((holdout.outcome - yhat) ** 2)
        ss_tot = np.sum((holdout.outcome - holdout.outcome.mean()) ** 2)
        assert abs(1.0 - ss_res / ss_tot) < 0.01

    def test_coefficients_within_three_classical_ses(self):
        beta = np.array([[0.5, -0.2], [0.1, 0.3]])
        dgp = SynthDGP(
            (1.0, 2.0),
            beta,
            (CovariateSpec("normal"), CovariateSpec("normal")),
            noise_sd=0.5,
        )
        ds, _ = generate_synthetic(dgp, n=20_000, seed=4)
        sp = split(ds, 0.7, seed=0)
        model = fit_predictor(ds, sp)
        train = ds.subset(sp.train_idx)
        design = np.column_stack([np.ones(train.n), train.x])
        for a in range(2):
            x_a = design[train.arm == a]
            se = 0.5 * np.sqrt(np.diag(np.linalg.inv(x_a.T @ x_a)))
            truth = np.concatenate([[dgp.intercepts[a]], beta[a]])
            assert np.all(np.abs(model.coef[a] - truth) <= 3 * se)

    def test_empty_training_arm_is_an_error(self):
        ds = manual_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 1], ("a", "b"))
        sp = TrainTestSplit(np.array([0, 1, 2]), np.array([3]))
        with pytest.raises(ConfigError, match="'b'.*no training rows"):
            fit_predictor(ds, sp)

    def test_thin_training_arm_warns(self):
        ds = manual_dataset(list(range(8)), [0, 0, 0, 0, 0, 1, 1, 1], ("a", "b"))
        sp = TrainTestSplit(np.array([0, 1, 2, 3, 5, 6]), np.array([4, 7]))
        with pytest.warns(UserWarning, match="fewer than p"):
            fit_predictor(ds, sp)


class TestSigmaEps:
    def test_zero_when_predictor_is_perfect(self):
        dgp = one_factor_dgp(m=2, sigma=0.4, rho=0.2, intercepts=[0.0, 0.0], noise_sd=0.0)
        ds, _ = generate_synthetic(dgp, n=3_000, seed=5)
        sp = split(ds, 0.7, seed=0)
        assert estimate_sigma_eps(*holdout_scores(ds, sp)) < 1e-10

    def test_pure_noise_recovers_noise_sd(self):
        dgp = SynthDGP((0.0, 0.0), np.zeros((2, 1)), (CovariateSpec("normal"),), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=60_000, seed=6)
        sp = split(ds, 0.7, seed=0)
        assert estimate_sigma_eps(*holdout_scores(ds, sp)) == pytest.approx(0.3, rel=0.05)

    def test_known_linear_dgp(self):
        dgp = one_factor_dgp(m=3, sigma=0.267, rho=0.8, intercepts=[0.3] * 3, noise_sd=0.25)
        ds, _ = generate_synthetic(dgp, n=60_000, seed=7)
        sp = split(ds, 0.7, seed=0)
        assert estimate_sigma_eps(*holdout_scores(ds, sp)) == pytest.approx(0.25, rel=0.05)


class TestQuantileBins:
    def test_ties_break_by_unit_id(self):
        bins = _quantile_bins(np.array([1.0, 1.0, 0.0, 0.0]), ["b", "a", "d", "c"], 2)
        # ranking is (0,'c'), (0,'d'), (1,'a'), (1,'b')
        assert bins.tolist() == [1, 1, 0, 0]

    def test_bin_sizes_differ_by_at_most_one(self):
        bins = _quantile_bins(np.arange(11.0), [f"u{i}" for i in range(11)], 3)
        sizes = np.bincount(bins)
        assert sorted(sizes.tolist()) == [3, 4, 4]


class TestSigmaRho:
    def pg_like(self, n=200_000, seed=8):
        rng = np.random.default_rng(0)
        intercepts = 0.3 + 0.007 * rng.standard_normal(5)
        dgp = one_factor_dgp(m=5, sigma=0.267, rho=0.8, intercepts=intercepts, noise_sd=0.25)
        ds, _ = generate_synthetic(dgp, n=n, seed=seed)
        return ds, split(ds, 0.7, seed=0)

    def test_recovers_strong_heterogeneity_scenario(self):
        ds, sp = self.pg_like()
        sigma, rho, rho_mean, diag = estimate_sigma_rho(*holdout_scores(ds, sp))
        assert 0.24 <= sigma <= 0.29
        assert 0.75 <= rho_mean <= 0.85
        assert np.allclose(rho, rho.T) and np.allclose(np.diag(rho), 1.0)
        assert np.all(np.abs(rho) <= 1.0)
        assert len(diag["per_arm_sigma"]) == 5
        assert np.array(diag["bin_counts"]).shape == (5, 10)

    def test_independent_arms_give_near_zero_rho(self):
        dgp = one_factor_dgp(m=4, sigma=0.25, rho=0.0, intercepts=[0.0] * 4, noise_sd=0.25)
        ds, _ = generate_synthetic(dgp, n=200_000, seed=9)
        sp = split(ds, 0.7, seed=0)
        _, _, rho_mean, _ = estimate_sigma_rho(*holdout_scores(ds, sp))
        assert abs(rho_mean) < 0.05

    def test_no_heterogeneity_gives_tiny_sigma(self):
        dgp = SynthDGP((0.5, 0.5), np.zeros((2, 1)), (CovariateSpec("normal"),), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=50_000, seed=10)
        sp = split(ds, 0.7, seed=0)
        sigma, _, _, diag = estimate_sigma_rho(*holdout_scores(ds, sp))
        # bin means are arm means plus noise of scale tau / sqrt(bin count)
        bound = 3 * 0.3 / math.sqrt(np.min(diag["bin_counts"]))
        assert sigma < bound

    def test_stratification_shrinks_the_naive_inflated_sd(self):
        # 100 junk covariates make the fitted scores much noisier than the
        # true signal; SD over raw scores inflates, bin means average it out
        m, sigma, rho = 2, 0.1, 0.5
        beta = np.zeros((m, 3 + 100))
        beta[:, 0] = sigma * math.sqrt(rho)
        beta[0, 1] = beta[1, 2] = sigma * math.sqrt(1 - rho)
        covs = tuple(CovariateSpec("normal") for _ in range(103))
        dgp = SynthDGP((0.0, 0.0), beta, covs, noise_sd=1.0)
        ds, _ = generate_synthetic(dgp, n=20_000, seed=11)
        sp = split(ds, 0.7, seed=0)
        model = fit_predictor(ds, sp)
        scores = model.predict(ds.subset(sp.test_idx).x)
        naive = float(scores.std(axis=0, ddof=1).mean())
        sigma_hat, _, _, _ = estimate_sigma_rho(*holdout_scores(ds, sp, model))
        assert naive > sigma_hat
        assert abs(sigma_hat - sigma) < abs(naive - sigma)

    def test_shifting_one_arm_changes_nothing_but_its_level(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=[0.0] * 3, noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=30_000, seed=12)
        sp = split(ds, 0.7, seed=0)
        base_sigma, base_rho, _, base_diag = estimate_sigma_rho(*holdout_scores(ds, sp))
        shifted = ExperimentDataset(
            unit_ids=ds.unit_ids,
            x=ds.x,
            arm=ds.arm,
            outcome=np.where(ds.arm == 1, ds.outcome + 5.0, ds.outcome),
            propensity=ds.propensity,
            arm_names=ds.arm_names,
            covariate_names=ds.covariate_names,
        )
        new_sigma, new_rho, _, new_diag = estimate_sigma_rho(*holdout_scores(shifted, sp))
        assert new_sigma == pytest.approx(base_sigma, abs=1e-9)
        assert np.allclose(new_rho, base_rho, atol=1e-9)
        shift = np.array(new_diag["bin_means"][1]) - np.array(base_diag["bin_means"][1])
        assert np.allclose(shift, 5.0, atol=1e-9)

    def test_deterministic_under_massive_prediction_ties(self):
        dgp = SynthDGP(
            (0.0, 0.0),
            np.array([[0.3, 0.1], [0.0, 0.2]]),
            (CovariateSpec("bernoulli", q=0.5), CovariateSpec("bernoulli", q=0.5)),
            noise_sd=0.2,
        )
        ds, _ = generate_synthetic(dgp, n=5_000, seed=13)
        sp = split(ds, 0.7, seed=0)
        model = fit_predictor(ds, sp)
        s1, r1, m1, _ = estimate_sigma_rho(*holdout_scores(ds, sp, model))
        s2, r2, m2, _ = estimate_sigma_rho(*holdout_scores(ds, sp, model))
        assert s1 == s2 and m1 == m2 and np.array_equal(r1, r2)
        # ties break by unit id, not by row: shuffled holdout rows fill the same bins
        shuffled = TrainTestSplit(sp.train_idx, np.random.default_rng(1).permutation(sp.test_idx))
        s3, r3, m3, _ = estimate_sigma_rho(*holdout_scores(ds, shuffled, model))
        assert s3 == pytest.approx(s1, rel=1e-12) and m3 == pytest.approx(m1, rel=1e-12)
        assert np.allclose(r3, r1, rtol=1e-12, atol=0.0)

    def test_empty_cell_is_reported_with_arm_and_bin(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 1))
        arm = (x[:, 0] > 0).astype(int)
        ds = ExperimentDataset(
            unit_ids=tuple(f"u{i:03d}" for i in range(200)),
            x=x,
            arm=arm,
            outcome=x[:, 0] + 0.1 * rng.standard_normal(200),
            propensity=np.full(200, 0.5),
            arm_names=("lo", "hi"),
            covariate_names=("x0",),
        )
        sp = split(ds, 0.5, seed=0)
        model = fit_predictor(ds, sp)
        with pytest.raises(ConfigError, match=r"arm '(lo|hi)'.*bin \d+"):
            estimate_sigma_rho(*holdout_scores(ds, sp, model))

    def test_small_cells_warn(self):
        ds, _ = generate_synthetic(
            one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=[0.0, 0.0], noise_sd=0.3),
            n=600,
            seed=14,
        )
        sp = split(ds, 0.7, seed=0)
        model = fit_predictor(ds, sp)
        with pytest.warns(UserWarning, match="fewer than 30"):
            estimate_sigma_rho(*holdout_scores(ds, sp, model))

    def test_rejects_single_quantile(self):
        ds, sp = self.pg_like(n=2_000, seed=15)
        model = fit_predictor(ds, sp)
        with pytest.raises(ConfigError, match="n_quantiles"):
            estimate_sigma_rho(*holdout_scores(ds, sp, model), n_quantiles=1)

    def test_constant_outcomes_report_zero_correlation(self):
        # 1.0 sums exactly; the bin means of 0.1, 0.3 and 0.7 differ by
        # rounding, which must not pass for a spread
        for outcome in (1.0, 0.1, 0.3, 0.7):
            ds = manual_dataset(
                [outcome] * 200, [0, 1] * 100, ("a", "b"), x=np.linspace(0, 1, 200).reshape(200, 1)
            )
            sp = split(ds, 0.5, seed=0)
            model = fit_predictor(ds, sp)
            # 100 holdout rows over the quantile bins also leave every cell thin
            with pytest.warns(UserWarning, match="constant"), \
                    pytest.warns(UserWarning, match="fewer than 30 units"):
                sigma, _, rho_mean, diag = estimate_sigma_rho(*holdout_scores(ds, sp, model))
            assert sigma == 0.0 and rho_mean == 0.0, outcome
            assert diag["per_arm_sigma"] == [0.0, 0.0], outcome


class TestMoments:
    def test_bundle_is_json_serializable_and_coherent(self):
        rng = np.random.default_rng(0)
        intercepts = 0.3 + 0.007 * rng.standard_normal(3)
        dgp = one_factor_dgp(m=3, sigma=0.25, rho=0.6, intercepts=intercepts, noise_sd=0.25)
        ds, _ = generate_synthetic(dgp, n=60_000, seed=16)
        sp = split(ds, 0.7, seed=0)
        est = estimate_moments(ds, sp)
        doc = json.loads(json.dumps(est.to_dict()))
        assert list(doc) == [f.name for f in fields(MomentEstimates)]
        assert doc["sigma_hat"] == est.sigma_hat
        assert doc["rho_hat_mean"] == est.rho_hat_mean
        assert len(doc["per_arm_means"]) == 3
        assert est.sigma_eps_hat == pytest.approx(0.25, rel=0.1)
        assert est.s_hat >= 0.0
        # the document is a copy: editing it leaves the frozen estimate as it was
        n_quantiles = est.quantile_diagnostics["n_quantiles"]
        est.to_dict()["quantile_diagnostics"]["n_quantiles"] = -1
        assert est.quantile_diagnostics["n_quantiles"] == n_quantiles

    def test_validation_rejects_malformed_matrix(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ConfigError, match="symmetric"):
            MomentEstimates(0.1, 0.1, bad, 0.45, 0.1, np.array([0.0, 0.0]), {})
