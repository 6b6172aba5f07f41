import math
from dataclasses import replace

import numpy as np
import pytest

from persgain.analysis import (
    SimSettings,
    StudyProfile,
    counterfactual_swap,
    elasticity_table,
    predict_gain,
    sensitivity_sweep,
)
from persgain.analytic import (
    TwoArmParams,
    expected_gain_over_means,
    gain_two_arm,
)
from persgain.errors import ConfigError

PG = StudyProfile("pg_like", s=0.007, sigma=0.267, rho=0.80, sigma_eps=0.2, m=20, mean=0.3)
WM = StudyProfile("walmart_like", s=0.007, sigma=0.078, rho=0.61, sigma_eps=0.2, m=23, mean=0.3)

FAST = SimSettings(n_individuals=4_000, n_replications=200, seed=0)


def effective_scale(sigma: float, rho: float) -> float:
    """Scale v = sigma * sqrt(2 * (1 - rho)) of the between-arm difference.

    Zero exactly when sigma == 0 or rho == 1.
    """
    return sigma * math.sqrt(2.0 * (1.0 - rho))


class TestStudyProfile:
    def test_round_trips_through_config(self):
        again = StudyProfile.from_config(PG.to_config())
        assert again == PG

    def test_rejects_negative_scales(self):
        with pytest.raises(ConfigError, match="sigma"):
            StudyProfile("x", s=0.0, sigma=-0.1, rho=0.0, sigma_eps=0.0, m=3)

    def test_rejects_rho_outside_psd_range(self):
        with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
            StudyProfile("x", s=0.0, sigma=0.1, rho=-0.9, sigma_eps=0.0, m=5)
        # the bound itself is rejected too, by the same rule the simulator applies
        with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
            StudyProfile("x", s=0.0, sigma=0.1, rho=-0.5, sigma_eps=0.0, m=3)
        with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
            StudyProfile("x", s=0.0, sigma=0.1, rho=1.2, sigma_eps=0.0, m=3)

    def test_rejects_unknown_and_missing_fields(self):
        doc = PG.to_config()
        doc["sigma_epsilon"] = 0.1
        with pytest.raises(ConfigError, match="unknown"):
            StudyProfile.from_config(doc)
        with pytest.raises(ConfigError, match="missing"):
            StudyProfile.from_config({"name": "x"})


class TestPredictGain:
    # The simulator benchmarks against the best arm by EMPIRICAL column
    # mean, so when the true means are closer than the column-mean noise
    # theta = v / sqrt(n) the benchmark is inflated by a winner's-curse
    # term. That inflation is itself a rectified-normal mean at scale
    # theta, so the closed-form comparator can be corrected exactly:
    #   E[sim gain] = E_mu[gain] - E_mu[rectified(gap, theta)].

    def test_two_arm_degenerate_means_match_corrected_closed_form(self):
        n = 10_000
        profile = StudyProfile("two", s=0.0, sigma=1.3, rho=0.25, sigma_eps=0.0, m=2, mean=0.7)
        gain, se = predict_gain(profile, SimSettings(n_individuals=n, n_replications=300, seed=1))
        theta = effective_scale(1.3, 0.25) / math.sqrt(n)
        exact = gain_two_arm(TwoArmParams(0.7, 0.7, 1.3, 0.25)) - theta / math.sqrt(2 * math.pi)
        # s = 0 leaves nothing random: each replication scores the exact gain
        assert se == 0.0 and gain == pytest.approx(exact, rel=1e-9)

    def test_twenty_random_two_arm_profiles_match_quadrature(self):
        rng = np.random.default_rng(5)
        n = 5_000
        settings = SimSettings(n_individuals=n, n_replications=400, seed=2)
        for _ in range(20):
            sigma = float(rng.uniform(0.2, 2.0))
            rho = float(rng.uniform(-0.9, 0.95))
            s = float(rng.uniform(0.0, 1.0))
            profile = StudyProfile("r", s=s, sigma=sigma, rho=rho, sigma_eps=0.0, m=2)
            gain, se = predict_gain(profile, settings)
            theta = effective_scale(sigma, rho) / math.sqrt(n)
            # rectified mean at scale theta == two-arm gain with v = theta
            curse = expected_gain_over_means(theta, 0.5, s)
            exact = expected_gain_over_means(sigma, rho, s) - curse
            assert gain == pytest.approx(exact, abs=3 * se), (sigma, rho, s)

    def test_no_heterogeneity_and_no_noise_gives_exactly_zero(self):
        profile = StudyProfile("flat", s=0.4, sigma=0.0, sigma_eps=0.0, rho=0.0, m=4)
        gain, se = predict_gain(profile, FAST)
        assert gain == 0.0 and se == 0.0

    def test_acting_on_pure_noise_cannot_help(self):
        profile = StudyProfile("noise", s=0.4, sigma=0.0, sigma_eps=0.5, rho=0.0, m=4)
        gain, se = predict_gain(profile, FAST)
        assert gain <= 3 * se


class TestSensitivity:
    def test_gain_rises_with_sigma(self):
        rows = sensitivity_sweep(PG, "sigma", [0.05, 0.1, 0.2, 0.4], FAST)
        for a, b in zip(rows, rows[1:]):
            slack = 3 * math.hypot(a["gain_se"], b["gain_se"])
            assert b["gain_mean"] >= a["gain_mean"] - slack

    def test_gain_falls_with_rho(self):
        rows = sensitivity_sweep(PG, "rho", [0.0, 0.3, 0.6, 0.9], FAST)
        for a, b in zip(rows, rows[1:]):
            slack = 3 * math.hypot(a["gain_se"], b["gain_se"])
            assert b["gain_mean"] <= a["gain_mean"] + slack

    def test_gain_falls_with_prediction_error(self):
        rows = sensitivity_sweep(PG, "sigma_eps", [0.0, 0.1, 0.3, 0.6], FAST)
        for a, b in zip(rows, rows[1:]):
            slack = 3 * math.hypot(a["gain_se"], b["gain_se"])
            assert b["gain_mean"] <= a["gain_mean"] + slack

    def test_sigma_and_rho_effects_are_monotone_for_every_seed(self):
        # with common random numbers and m=2 the per-draw gain curve is
        # exactly monotone, mirroring the closed form; no averaging needed.
        # Equal means make the gain sqrt(1 - rho) times one draw's, on both
        # sides of rho = 0, since every rho shares the same draws
        two_arm = StudyProfile("two", s=0.0, sigma=1.0, rho=0.5, sigma_eps=0.0, m=2)
        rho_grid = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]
        for seed in range(5):
            one_rep = SimSettings(n_individuals=2_000, n_replications=1, seed=seed)
            by_sigma = [row["gain_mean"] for row in
                        sensitivity_sweep(two_arm, "sigma", [0.5, 1.0, 2.0, 4.0], one_rep)]
            assert by_sigma == sorted(by_sigma)
            by_rho = sensitivity_sweep(two_arm, "rho", rho_grid, one_rep)
            gains = [row["gain_mean"] for row in by_rho]
            assert gains == sorted(gains, reverse=True)
            ratios = [row["gain_mean"] / math.sqrt(1.0 - row["value"]) for row in by_rho]
            assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12, abs=0.0)

    def test_arm_count_is_sweepable(self):
        rows = sensitivity_sweep(PG, "m", [2, 5, 10], FAST)
        assert [row["value"] for row in rows] == [2.0, 5.0, 10.0]
        assert all(math.isfinite(row["gain_mean"]) for row in rows)

    def test_unsorted_grid_is_sorted_and_baseline_marked(self):
        rows = sensitivity_sweep(PG, "rho", [0.9, 0.80, 0.0], FAST)
        assert [r["value"] for r in rows] == [0.0, 0.80, 0.9]
        assert [r["is_baseline"] for r in rows] == [0, 1, 0]
        assert {r["parameter"] for r in rows} == {"rho"}

    def test_invalid_grid_points_name_the_bound(self):
        with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
            sensitivity_sweep(PG, "rho", [0.5, 1.5], FAST)
        with pytest.raises(ConfigError, match=">= 0"):
            sensitivity_sweep(PG, "sigma", [-0.1], FAST)
        with pytest.raises(ConfigError, match="integer"):
            sensitivity_sweep(PG, "m", [2.5], FAST)
        with pytest.raises(ConfigError, match="at least one"):
            sensitivity_sweep(PG, "sigma", [], FAST)
        with pytest.raises(ConfigError, match="parameter"):
            sensitivity_sweep(PG, "n_individuals", [1], FAST)


class TestCounterfactual:
    def test_self_swap_reproduces_baseline_bit_exactly(self):
        rows = counterfactual_swap(PG, PG, "sigma", FAST)
        gains = {row["gain_mean"] for row in rows}
        assert len(gains) == 1
        base, _ = predict_gain(PG, FAST)
        assert gains == {base}

    def test_swap_back_is_bit_exact(self):
        ab = counterfactual_swap(PG, WM, "rho", FAST)
        ba = counterfactual_swap(WM, PG, "rho", FAST)
        key = lambda r: (r["study"], r["value_used"])
        assert sorted(ab, key=key) == sorted(ba, key=key)

    def test_giving_walmart_the_pg_sigma_beats_pg_itself(self):
        rows = counterfactual_swap(PG, WM, "sigma", FAST)
        pg_base = rows[0]["gain_mean"]
        wm_with_pg_sigma = rows[3]["gain_mean"]
        assert rows[3]["study"] == "walmart_like" and rows[3]["value_used"] == PG.sigma
        assert wm_with_pg_sigma > pg_base

    def test_swapping_arm_counts_barely_moves_these_profiles(self):
        rows = counterfactual_swap(PG, WM, "m", FAST)
        pg_base, pg_swapped = rows[0]["gain_mean"], rows[1]["gain_mean"]
        assert abs(pg_swapped - pg_base) < 0.15 * pg_base

    def test_rejects_unswappable_parameter(self):
        with pytest.raises(ConfigError, match="swap parameter"):
            counterfactual_swap(PG, WM, "mean", FAST)


class TestElasticity:
    def test_baseline_row_comes_first_with_zero_delta(self):
        rows = elasticity_table(WM, 0.01, FAST)
        assert rows[0]["change"] == "baseline"
        assert rows[0]["gain_delta"] == 0.0
        assert len(rows) == 5
        assert len({row["best"] for row in rows}) == 1

    def test_every_improvement_weakly_helps(self):
        rows = elasticity_table(PG, 0.01, FAST)
        for row in rows[1:]:
            assert row["gain_delta"] >= -3 * row["gain_se"], row["change"]

    def test_pg_profile_ranks_lower_rho_first(self):
        rows = elasticity_table(PG, 0.01, SimSettings(n_individuals=10_000, n_replications=300, seed=0))
        assert rows[0]["best"] == "rho_down"

    def test_zero_sigma_makes_sigma_improvement_a_no_op(self):
        profile = StudyProfile("flat", s=0.3, sigma=0.0, rho=0.0, sigma_eps=0.1, m=3)
        rows = elasticity_table(profile, 0.01, FAST)
        by_change = {row["change"]: row for row in rows}
        assert by_change["sigma_up"]["gain_mean"] == by_change["baseline"]["gain_mean"]

    def test_zero_s_makes_s_improvement_a_no_op(self):
        profile = StudyProfile("centered", s=0.0, sigma=0.3, rho=0.2, sigma_eps=0.1, m=3)
        rows = elasticity_table(profile, 0.01, FAST)
        by_change = {row["change"]: row for row in rows}
        assert by_change["s_down"]["gain_mean"] == by_change["baseline"]["gain_mean"]

    def test_rows_equal_cells_predicted_alone(self):
        # the cells share one draw layout, rho_down across 0 included
        profile = StudyProfile("low_rho", s=0.05, sigma=0.3, rho=0.005, sigma_eps=0.1, m=4)
        settings = SimSettings(n_individuals=500, n_replications=20, seed=3)
        rows = elasticity_table(profile, 0.01, settings)
        assert rows[3]["new_value"] < 0
        cells = [profile] + [replace(profile, **{row["parameter"]: row["new_value"]})
                             for row in rows[1:]]
        assert [(row["gain_mean"], row["gain_se"]) for row in rows] == [
            predict_gain(cell, settings) for cell in cells
        ]
        assert predict_gain(cells, settings) == [predict_gain(cell, settings) for cell in cells]

    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            elasticity_table(PG, 0.0, FAST)
