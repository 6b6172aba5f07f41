import math

import numpy as np
import pytest

from persgain.analytic import TwoArmParams, gain_two_arm
from persgain.errors import ConfigError, DomainError
from persgain.simulate import (
    FixedMeans,
    NormalMeans,
    SimConfig,
    SpikeSlabMeans,
    dist_from_config,
    rho_lower_bound,
    sample_mu,
    sample_potential_outcomes,
    simulate_gain,
    sweep_arms,
)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# mu distributions


def test_fixed_means_identity() -> None:
    np.testing.assert_array_equal(sample_mu(FixedMeans([20, 30]), 2, rng()), [20.0, 30.0])


def test_fixed_means_wrong_length() -> None:
    with pytest.raises(ConfigError):
        sample_mu(FixedMeans([1.0, 2.0]), 3, rng())


def test_normal_means_degenerate() -> None:
    np.testing.assert_array_equal(sample_mu(NormalMeans(0.0, 0.0), 5, rng()), np.zeros(5))


def test_spike_slab_variance() -> None:
    # pi = 0.9, s^2 = 50 -> mixture variance (1 - pi) s^2 = 5
    dist = SpikeSlabMeans(pi_spike=0.9, mean=0.0, s=math.sqrt(50.0))
    draws = sample_mu(dist, 1000, rng(1))
    assert np.var(draws) == pytest.approx(5.0, rel=0.2)


def test_dist_config_round_trip() -> None:
    docs = [
        ({"kind": "fixed", "mu": [1.5, -2.0]}, FixedMeans([1.5, -2.0])),
        ({"kind": "normal", "mean": 3.0, "s": 0.5}, NormalMeans(3.0, 0.5)),
        ({"kind": "spike_slab", "pi_spike": 0.9, "s": 7.0}, SpikeSlabMeans(0.9, 0.0, 7.0)),
    ]
    for doc, dist in docs:
        assert dist_from_config(doc) == dist
    with pytest.raises(ConfigError, match="dist s"):
        dist_from_config({"kind": "normal", "s": "x"})
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "nope"})
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "normal", "scale": 2.0})


def test_dist_validation() -> None:
    with pytest.raises(DomainError):
        NormalMeans(0.0, -1.0)
    with pytest.raises(DomainError):
        SpikeSlabMeans(1.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        FixedMeans([1.0, math.inf])


# --------------------------------------------------------------------------
# potential outcomes


def test_outcomes_sigma_zero() -> None:
    mu = np.array([1.0, 2.0, 3.0])
    y = sample_potential_outcomes(mu, 0.0, 0.3, 10, rng())
    np.testing.assert_array_equal(y, np.tile(mu, (10, 1)))


def test_outcomes_rho_one_shifts_rows_uniformly() -> None:
    mu = np.array([1.0, 2.0, 3.0])
    y = sample_potential_outcomes(mu, 2.0, 1.0, 50, rng(3))
    offsets = y - mu
    assert np.allclose(offsets, offsets[:, :1])
    assert not np.allclose(offsets, 0.0)


def test_outcomes_covariance_oracle() -> None:
    # sigma = 10, rho = 0.5: off-diagonal covariance 50, n = 1e6 pins it to +/- 0.5
    y = sample_potential_outcomes(np.zeros(3), 10.0, 0.5, 1_000_000, rng(7))
    cov = np.cov(y, rowvar=False)
    for j in range(3):
        assert cov[j, j] == pytest.approx(100.0, abs=1.0)
        for k in range(j + 1, 3):
            assert cov[j, k] == pytest.approx(50.0, abs=0.5)


def test_one_factor_and_cholesky_agree_in_moments() -> None:
    # rho >= 0 takes the one-factor form, rho < 0 the Cholesky factor; the
    # two must agree where the choice switches
    mu = np.array([1.0, -1.0, 0.5])
    n = 1_000_000
    a = sample_potential_outcomes(mu, 2.0, 0.0, n, rng(11))
    b = sample_potential_outcomes(mu, 2.0, -1e-12, n, rng(12))
    se_mean = 2.0 / math.sqrt(n)
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) < 4 * math.sqrt(2) * se_mean)
    ca, cb = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
    # var of sample covariance of bivariate normal ~ (s11*s22 + s12^2)/n
    se_cov = math.sqrt(16.0 / n)
    assert np.all(np.abs(ca - cb) < 4 * math.sqrt(2) * se_cov)


def test_negative_rho_uses_cholesky_and_respects_bound() -> None:
    mu = np.zeros(4)
    y = sample_potential_outcomes(mu, 1.0, -0.2, 200_000, rng(5))
    cov = np.cov(y, rowvar=False)
    assert cov[0, 1] == pytest.approx(-0.2, abs=0.02)
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        sample_potential_outcomes(mu, 1.0, -0.5, 10, rng())
    assert rho_lower_bound(4) == pytest.approx(-1.0 / 3.0)


def test_rho_above_one_rejected() -> None:
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        sample_potential_outcomes(np.zeros(2), 1.0, 1.2, 10, rng())


# --------------------------------------------------------------------------
# simulate_gain


def two_arm_cfg(mu_a: float, mu_b: float, sigma: float, rho: float, **kw) -> SimConfig:
    return SimConfig(m=2, sigma=sigma, rho=rho, dist=FixedMeans([mu_a, mu_b]), **kw)


def test_gain_matches_analytic_two_arms() -> None:
    settings = [(0.0, 1.0, 1.0, 0.0), (5.0, 5.0, 2.0, 0.5), (0.0, 0.5, 1.0, -0.5),
                (2.0, 0.0, 3.0, 0.8), (1.0, 1.5, 0.7, 0.2)]
    misses = 0
    for i, (mu_a, mu_b, sigma, rho) in enumerate(settings):
        cfg = two_arm_cfg(mu_a, mu_b, sigma, rho, n_individuals=4000, n_replications=300, seed=100 + i)
        res = simulate_gain(cfg)
        truth = gain_two_arm(TwoArmParams(mu_a, mu_b, sigma, rho))
        if abs(res.gain_mean - truth) >= 3 * res.gain_se:
            misses += 1
    assert misses <= 1


def test_gain_nonnegative_without_prediction_noise() -> None:
    cfg = SimConfig(m=5, sigma=1.0, rho=0.2, dist=NormalMeans(0.0, 1.0),
                    n_individuals=50, n_replications=200, seed=2)
    res = simulate_gain(cfg)
    assert min(res.per_replication_gains) >= 0.0
    assert res.gain_mean == pytest.approx(res.v_personalized_mean - res.v_uniform_mean)


def test_gain_zero_when_arms_identical() -> None:
    res = simulate_gain(two_arm_cfg(1.0, 2.0, 0.0, 0.0, n_individuals=100, n_replications=5))
    assert res.gain_mean == 0.0
    res = simulate_gain(two_arm_cfg(1.0, 2.0, 3.0, 1.0, n_individuals=100, n_replications=5))
    assert res.gain_mean == 0.0


def test_huge_prediction_noise_kills_gain() -> None:
    cfg = SimConfig(m=4, sigma=1.0, rho=0.0, dist=FixedMeans([3.0] * 4), sigma_eps=1e6,
                    n_individuals=2000, n_replications=200, seed=4)
    res = simulate_gain(cfg)
    assert abs(res.gain_mean) < 3 * res.gain_se


def test_gain_decreasing_in_sigma_eps_with_crn() -> None:
    sigma = 2.0
    gains = []
    for k, sigma_eps in enumerate([0.0, 0.5 * sigma, sigma, 2 * sigma]):
        cfg = SimConfig(m=5, sigma=sigma, rho=0.3, dist=NormalMeans(0.0, 0.5),
                        sigma_eps=sigma_eps, n_individuals=2000, n_replications=100, seed=6)
        gains.append(simulate_gain(cfg).gain_mean)
    assert all(b < a for a, b in zip(gains, gains[1:]))


def test_per_individual_noise_never_changes_selections() -> None:
    # a scalar error shared by all arms shifts every prediction for an
    # individual equally, so picks and column-mean argmax are unchanged
    base = SimConfig(m=4, sigma=1.0, rho=0.1, dist=NormalMeans(0.0, 1.0),
                     n_individuals=500, n_replications=50, seed=8)
    noisy = SimConfig(m=4, sigma=1.0, rho=0.1, dist=NormalMeans(0.0, 1.0), sigma_eps=5.0,
                      n_individuals=500, n_replications=50, seed=8, noise_mode="per_individual")
    assert simulate_gain(noisy) == simulate_gain(base)


def test_determinism_across_parallelism() -> None:
    cfg = SimConfig(m=3, sigma=1.0, rho=0.4, dist=NormalMeans(0.0, 1.0), sigma_eps=0.5,
                    n_individuals=300, n_replications=40, seed=9)
    a = simulate_gain(cfg, n_jobs=1)
    b = simulate_gain(cfg, n_jobs=4)
    c = simulate_gain(cfg, n_jobs=4)
    assert a == b == c


def test_sim_config_validation() -> None:
    with pytest.raises(ConfigError):
        SimConfig(m=1, sigma=1.0, rho=0.0, dist=NormalMeans())
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        SimConfig(m=5, sigma=1.0, rho=-0.5, dist=NormalMeans())
    with pytest.raises(ConfigError):
        SimConfig(m=2, sigma=1.0, rho=0.0, dist=NormalMeans(), sigma_eps=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(m=2, sigma=1.0, rho=0.0, dist=FixedMeans([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError):
        SimConfig(m=2, sigma=1.0, rho=0.0, dist=NormalMeans(), noise_mode="shared")


# --------------------------------------------------------------------------
# sweep_arms


def test_sweep_gain_increases_with_arms_for_equal_means() -> None:
    cfg = SimConfig(m=2, sigma=1.0, rho=0.0, dist=NormalMeans(0.0, 0.0),
                    n_individuals=2000, n_replications=60, seed=10)
    rows = sweep_arms(cfg, [2, 5, 10, 25])
    gains = [r["gain_mean"] for r in rows]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_sweep_rho_zero_dominates_high_rho_pointwise() -> None:
    lo = SimConfig(m=2, sigma=10.0, rho=0.0, dist=NormalMeans(0.0, math.sqrt(10.0)),
                   n_individuals=1000, n_replications=60, seed=11)
    hi = SimConfig(m=2, sigma=10.0, rho=0.9, dist=NormalMeans(0.0, math.sqrt(10.0)),
                   n_individuals=1000, n_replications=60, seed=11)
    for r_lo, r_hi in zip(sweep_arms(lo, [2, 5, 10]), sweep_arms(hi, [2, 5, 10])):
        assert r_lo["gain_mean"] > r_hi["gain_mean"]


def test_sweep_spike_slab_inverse_u() -> None:
    # high spike probability: a mid-sized menu beats a huge one
    dist = SpikeSlabMeans(pi_spike=0.9, mean=0.0, s=math.sqrt(500.0))
    cfg = SimConfig(m=2, sigma=10.0, rho=0.9, dist=dist,
                    n_individuals=1000, n_replications=80, seed=12)
    rows = {r["m"]: r for r in sweep_arms(cfg, [2, 5, 100])}
    best_small = max(rows[2]["gain_mean"], rows[5]["gain_mean"])
    assert best_small > rows[100]["gain_mean"]


def test_sweep_empty_grid_rejected() -> None:
    cfg = SimConfig(m=2, sigma=1.0, rho=0.0, dist=NormalMeans())
    with pytest.raises(ConfigError):
        sweep_arms(cfg, [])
