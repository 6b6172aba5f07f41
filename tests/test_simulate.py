import itertools
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persgain import simulate
from persgain.analytic import TwoArmParams, gain_two_arm
from persgain.errors import ConfigError
from persgain.simulate import (
    FixedMeans,
    NormalMeans,
    SimConfig,
    SpikeSlabMeans,
    dist_from_config,
    rho_lower_bound,
    sample_potential_outcomes,
    simulate_gain,
    sweep_arms,
)
from persgain._util import stream


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# mu distributions


def draw_means(dist, m: int, generator: np.random.Generator) -> np.ndarray:
    """m arm means of dist as the estimand draws them, from generator, in
    the order the simulator draws their variates, but without its offsets:
    fixed means as given, normal means mean + s z, and spike-slab means the
    spike with probability pi_spike, else mean + s z, drawn unconditionally
    (the simulator's offsets are drawn given at least one slab arm)."""
    if isinstance(dist, FixedMeans):
        return np.asarray(dist.mu, dtype=float)
    if isinstance(dist, NormalMeans):
        return dist.mean + dist.s * generator.standard_normal(m)
    uniform, normal = generator.uniform(size=m), generator.standard_normal(m)
    return np.where(uniform < dist.pi_spike, dist.mean, dist.mean + dist.s * normal)


def test_fixed_means_identity() -> None:
    np.testing.assert_array_equal(FixedMeans([20, 30]).mu, [20.0, 30.0])


def test_fixed_means_wrong_length() -> None:
    with pytest.raises(ConfigError, match="length 2 but m = 3"):
        SimConfig(m=3, sigma=1.0, rho=0.0, dist=FixedMeans([1.0, 2.0]))


def test_normal_means_degenerate() -> None:
    dist = NormalMeans(0.0, 0.0)
    np.testing.assert_array_equal(dist.mean + dist.offsets(dist.variates(5, rng()), 5),
                                  np.zeros(5))


def test_spike_slab_variance() -> None:
    # pi = 0.9, s^2 = 50 -> mixture variance (1 - pi) s^2 = 5
    dist = SpikeSlabMeans(pi_spike=0.9, mean=0.0, s=math.sqrt(50.0))
    draws = draw_means(dist, 1000, rng(1))
    assert np.var(draws) == pytest.approx(5.0, rel=0.2)


def test_the_draw_step_takes_one_kind_of_random_means() -> None:
    # fixed means are not drawn, and a draw of one kind's variates fits no
    # other kind's offsets: each raises ConfigError naming the kinds
    fixed = SimConfig(m=2, sigma=1.0, rho=0.0, dist=FixedMeans([0.0, 1.0]))
    normal = replace(fixed, dist=NormalMeans(0.0, 1.0))
    slab = replace(fixed, dist=SpikeSlabMeans(0.5, 0.0, 1.0))
    for batch, kinds in (([fixed], "FixedMeans"), ([fixed, fixed], "FixedMeans"),
                         ([normal, slab], "NormalMeans, SpikeSlabMeans"),
                         ([slab, fixed], "FixedMeans, SpikeSlabMeans")):
        with pytest.raises(ConfigError, match=f"one kind of random means, got {kinds}$"):
            sample_potential_outcomes(batch[0], rng(), *batch[1:])


@pytest.mark.parametrize("pi", [0.0, 0.3, 0.9])
def test_spike_slab_offsets_are_drawn_given_a_slab_arm(pi) -> None:
    # each spike/slab pattern of m = 3 arms comes up with its probability
    # given at least one slab arm; a slab arm's offset is s times its normal
    m, draws, dist, gen = 3, 20_000, SpikeSlabMeans(pi, 5.0, 2.0), rng(4)
    counts: dict = {}
    for _ in range(draws):
        variates = dist.variates(m, gen)
        offsets = dist.offsets(variates, m)
        slab = offsets != 0.0
        np.testing.assert_array_equal(offsets[slab], 2.0 * variates[1][slab])
        counts[tuple(slab)] = counts.get(tuple(slab), 0) + 1
    assert dist.tied(m) == pytest.approx(pi ** m, rel=1e-15)
    for pattern in itertools.product([False, True], repeat=m):
        slabs = sum(pattern)
        want = (1 - pi) ** slabs * pi ** (m - slabs) / (1 - pi ** m) if slabs else 0.0
        se = math.sqrt(want * (1 - want) / draws)
        assert abs(counts.get(pattern, 0) / draws - want) <= 4 * se, pattern
    # pi = 1 or s = 0: every mean is the spike, and nothing is left to draw
    for tied in (SpikeSlabMeans(1.0, 0.0, 2.0), SpikeSlabMeans(0.4, 0.0, 0.0)):
        assert tied.tied(m) == 1.0
        np.testing.assert_array_equal(tied.offsets(tied.variates(m, gen), m), np.zeros(m))


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
    with pytest.raises(ConfigError):
        NormalMeans(0.0, -1.0)
    with pytest.raises(ConfigError):
        SpikeSlabMeans(1.2, 0.0, 1.0)
    with pytest.raises(ConfigError):
        FixedMeans([1.0, math.inf])


# --------------------------------------------------------------------------
# potential outcomes


def common_term(z: np.ndarray, eps: np.ndarray, sigma: float, rho: float) -> np.ndarray:
    """sigma c: each individual's term common to their arms, from z (1 x n)
    and eps (m x n), sqrt(rho) z for rho >= 0 and
    (sqrt(1+(m-1)rho) - sqrt(1-rho)) times the mean of eps over the arms
    for rho < 0. Either way the column mu + sigma (sqrt(1-rho) eps + c 1)
    has variance sigma^2 (1+(m-1)rho) along the all-ones vector and
    sigma^2 (1-rho) along every orthogonal one, the eigenvalues of the
    equicorrelated covariance, so both forms are exact."""
    if rho >= 0:
        return sigma * (math.sqrt(rho) * z)
    scale = math.sqrt(1.0 + (len(eps) - 1) * rho) - math.sqrt(1.0 - rho)
    return sigma * (scale * eps.mean(axis=0))


def outcomes(mu, sigma: float, rho: float, n: int, seed: int = 0) -> np.ndarray:
    """The m x n outcome matrix Y = Y' + sigma c 1 of (mu, sigma, rho), one
    row per arm: Y' = mu + sigma sqrt(1-rho) eps, which the kernel scores,
    plus the common term (`common_term`), which the kernel leaves out since
    it adds the same mean-0 amount to both policy values. eps is what the
    kernel draws for a fixed-means config in replication 0 of `seed`, block
    by block, joined; z, each individual's common normal, which the
    simulator never draws, is a row of n normals from a generator of its own."""
    mu, m = np.asarray(mu, dtype=float), len(mu)
    rng, size = stream(seed, 0), max(1, simulate.BLOCK_CELLS // m)
    blocks = [rng.standard_normal((m, min(size, n - start))) for start in range(0, n, size)]
    eps = np.concatenate(blocks, axis=1)
    assert eps.shape == (m, n) and len(blocks) == -(-n // size)
    z = np.random.default_rng(seed).standard_normal((1, n))
    spread = mu[:, None] + sigma * math.sqrt(1.0 - rho) * eps
    return spread + common_term(z, eps, sigma, rho)


def test_outcomes_sigma_zero() -> None:
    mu = np.array([1.0, 2.0, 3.0])
    y = outcomes(mu, 0.0, 0.3, 10)
    np.testing.assert_array_equal(y, np.tile(mu[:, None], (1, 10)), strict=True)


def test_outcomes_rho_one_shifts_rows_uniformly() -> None:
    # each individual's arms move together: every arm row's offset from its
    # mean equals the first arm's
    mu = np.array([1.0, 2.0, 3.0])
    y = outcomes(mu, 2.0, 1.0, 50, 3)
    offsets = y - mu[:, None]
    assert np.allclose(offsets, offsets[:1])
    assert not np.allclose(offsets, 0.0)


def test_outcomes_covariance_oracle() -> None:
    # sigma = 10, rho = 0.5: off-diagonal covariance 50, n = 1e6 pins it to +/- 0.5
    y = outcomes(np.zeros(3), 10.0, 0.5, 1_000_000, 7)
    cov = np.cov(y)  # rows are arms
    for j in range(3):
        assert cov[j, j] == pytest.approx(100.0, abs=1.0)
        for k in range(j + 1, 3):
            assert cov[j, k] == pytest.approx(50.0, abs=0.5)


def test_outcomes_are_continuous_in_rho_across_zero() -> None:
    # the common term switches from sqrt(rho) z to a multiple of each
    # individual's mean of eps at rho = 0; both vanish there, so on the same draws the
    # outcomes on either side of 0 must agree
    mu = np.array([1.0, -1.0, 0.5])
    a = outcomes(mu, 2.0, 0.0, 10_000, 11)
    b = outcomes(mu, 2.0, -1e-12, 10_000, 11)
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)


def test_negative_rho_covariance_and_bound() -> None:
    mu = np.zeros(4)
    y = outcomes(mu, 1.0, -0.2, 200_000, 5)
    cov = np.cov(y)
    assert cov[0, 1] == pytest.approx(-0.2, abs=0.02)
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        SimConfig(m=4, sigma=1.0, rho=-0.5, dist=FixedMeans(mu), n_individuals=10)
    assert rho_lower_bound(4) == pytest.approx(-1.0 / 3.0)


def test_outcomes_covariance_oracle_below_zero_rho() -> None:
    # m = 30 near the bound -1/29: every entry of the sample covariance, and
    # the variance of an individual's sum over arms, sigma^2 m (1 + (m-1) rho),
    # along the direction in which the bound makes the covariance singular
    m, sigma, rho, n = 30, 10.0, -0.03, 200_000
    y = outcomes(np.zeros(m), sigma, rho, n, 17)
    target = sigma**2 * ((1.0 - rho) * np.eye(m) + rho * np.ones((m, m)))
    # sd of a sample covariance entry: sqrt((s_jj s_kk + s_jk^2) / n)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    assert np.all(np.abs(np.cov(y) - target) < 5 * se)
    arm_sum_var = sigma**2 * m * (1.0 + (m - 1) * rho)
    assert y.sum(axis=0).var() == pytest.approx(arm_sum_var, rel=5 * math.sqrt(2.0 / n))


@pytest.mark.parametrize("m", [2, 3, 1000])
def test_rho_at_its_lower_bound_gives_finite_outcomes(m) -> None:
    rho = rho_lower_bound(m)
    y = outcomes(np.arange(m, dtype=float), 1.5, rho, 50, m)
    assert np.all(np.isfinite(y))
    cfg = SimConfig(m=m, sigma=1.5, rho=rho, dist=NormalMeans(0.0, 1.0), sigma_eps=0.2,
                    n_individuals=50, n_replications=3, seed=m)
    assert all(math.isfinite(g) for g in simulate_gain(cfg).per_replication_gains)


def test_rho_above_one_rejected() -> None:
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        SimConfig(m=2, sigma=1.0, rho=1.2, dist=FixedMeans(np.zeros(2)), n_individuals=10)


@pytest.mark.parametrize("widest, narrower", [
    (SimConfig(m=6, sigma=1.0, rho=0.3, dist=NormalMeans(0.2, 1.0), n_individuals=40, seed=8),
     [SimConfig(m=3, sigma=2.0, rho=-0.2, dist=NormalMeans(0.0, 0.5), n_individuals=40, seed=8)]),
    (SimConfig(m=5, sigma=1.0, rho=-0.1, dist=SpikeSlabMeans(0.5, 0.0, 2.0), n_individuals=40,
               seed=9),
     [SimConfig(m=m, sigma=0.5, rho=0.4, dist=SpikeSlabMeans(0.2, 1.0, 1.0), sigma_eps=e,
                n_individuals=40, seed=9) for m, e in ((2, 0.0), (4, 0.7))]),
], ids=["sigma_eps_zero", "mixed"])
def test_the_draw_step_makes_every_draw_of_a_replication(widest, narrower) -> None:
    # a random-means replication draws from stream(seed, rep) the variates
    # of the widest config's W means and nothing else, whatever sigma_eps
    # and wherever the widest stands: no eps and no prediction noise; each
    # config's offsets come from the first m of those variates
    rep, width = 3, widest.m

    def draw(batch: list[SimConfig]) -> tuple:
        rng = stream(widest.seed, rep)
        return sample_potential_outcomes(batch[0], rng, *batch[1:]), rng.bit_generator.state

    (mu, *more_mu), state = draw([widest, *narrower])
    rng = stream(widest.seed, rep)
    variates = widest.dist.variates(width, rng)
    np.testing.assert_array_equal(mu, widest.dist.offsets(variates, width), strict=True)
    assert state == rng.bit_generator.state
    assert len(more_mu) == len(narrower)
    for cfg, cfg_mu in zip(narrower, more_mu):
        expected = cfg.dist.offsets(cfg.dist.variates(width, stream(widest.seed, rep)), cfg.m)
        np.testing.assert_array_equal(cfg_mu, expected, strict=True)
    if isinstance(widest.dist, NormalMeans):
        np.testing.assert_array_equal(widest.dist.mean + mu, draw_means(widest.dist, width, stream(
            widest.seed, rep)), strict=True)
    # a batch with sigma_eps > 0 draws exactly what it draws with sigma_eps = 0
    quiet, quiet_state = draw([replace(cfg, sigma_eps=0.0) for cfg in (widest, *narrower)])
    assert quiet_state == state and len(quiet) == 1 + len(narrower)
    for a, b in zip((mu, *more_mu), quiet):
        np.testing.assert_array_equal(a, b, strict=True)
    # the widest config last draws the same variates and gives each config
    # its own offsets
    last, last_state = draw([*narrower, widest])
    assert last_state == state and len(last) == 1 + len(narrower)
    for a, b in zip((*more_mu, mu), last):
        np.testing.assert_array_equal(a, b, strict=True)


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
    # equal means and picks on predictions that are almost all noise: the
    # exact gain is (v^2/c) E[max of 4 N(0,1)] (1 - 1/sqrt(n)), with
    # v = sigma sqrt(1-rho) and c = hypot(v, sigma_eps), about 1.0e-6
    cfg = SimConfig(m=4, sigma=1.0, rho=0.0, dist=FixedMeans([3.0] * 4), sigma_eps=1e6,
                    n_individuals=2000, n_replications=200, seed=4)
    res = simulate_gain(cfg)
    exact = (expected_max_of_normals(4) * (1.0 - 1.0 / math.sqrt(cfg.n_individuals))
             / math.hypot(1.0, cfg.sigma_eps))
    assert res.gain_mean < 1e-5
    assert abs(res.gain_mean - exact) <= 3 * res.gain_se


def test_gain_decreasing_in_sigma_eps_with_crn() -> None:
    sigma = 2.0
    gains = []
    for k, sigma_eps in enumerate([0.0, 0.5 * sigma, sigma, 2 * sigma]):
        cfg = SimConfig(m=5, sigma=sigma, rho=0.3, dist=NormalMeans(0.0, 0.5),
                        sigma_eps=sigma_eps, n_individuals=2000, n_replications=100, seed=6)
        gains.append(simulate_gain(cfg).gain_mean)
    assert all(b < a for a, b in zip(gains, gains[1:]))


def test_determinism_across_parallelism() -> None:
    cfg = SimConfig(m=3, sigma=1.0, rho=0.4, dist=NormalMeans(0.0, 1.0), sigma_eps=0.5,
                    n_individuals=300, n_replications=40, seed=9)
    a = simulate_gain(cfg, n_jobs=1)
    b = simulate_gain(cfg, n_jobs=4)
    c = simulate_gain(cfg, n_jobs=4)
    assert a == b == c


@pytest.mark.parametrize("widths, pooled", [((3,), False), ((100, 92), False), ((200, 56), True)])
def test_a_random_means_batch_takes_the_pool_from_256_arms(monkeypatch, widths, pooled) -> None:
    # below 256 arms in all a replication's arrays are too small for threads
    # to gain on; either way the results have the bits of one thread
    pools = []
    monkeypatch.setattr(simulate, "ThreadPoolExecutor",
                        lambda **kw: pools.append(kw) or ThreadPoolExecutor(**kw))
    batch = [SimConfig(m=m, sigma=1.0, rho=0.4, dist=NormalMeans(0.0, 1.0), sigma_eps=0.5,
                       n_individuals=300, n_replications=4, seed=9) for m in widths]
    assert simulate_gain(batch, n_jobs=2) == simulate_gain(batch, n_jobs=1)
    assert pools == ([{"max_workers": 2}] if pooled else [])


def test_sim_config_validation() -> None:
    with pytest.raises(ConfigError):
        SimConfig(m=1, sigma=1.0, rho=0.0, dist=NormalMeans())
    with pytest.raises(ConfigError, match="integer"):
        SimConfig(m=2.5, sigma=1.0, rho=0.0, dist=NormalMeans())
    assert type(SimConfig(m=3.0, sigma=1.0, rho=0.0, dist=NormalMeans()).m) is int
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        SimConfig(m=5, sigma=1.0, rho=-0.5, dist=NormalMeans())
    with pytest.raises(ConfigError):
        SimConfig(m=2, sigma=1.0, rho=0.0, dist=NormalMeans(), sigma_eps=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(m=2, sigma=1.0, rho=0.0, dist=FixedMeans([1.0, 2.0, 3.0]))


def test_sim_config_sizes_are_integers_numpy_can_address() -> None:
    # 2**62 rows fit numpy's index range, but not as 8-byte cells times 3 arms
    for bad in (50.9, True, 10**400, 2**62):
        with pytest.raises(ConfigError, match="n_individuals"):
            SimConfig(m=3, sigma=1.0, rho=0.0, dist=NormalMeans(), n_individuals=bad)
    with pytest.raises(ConfigError, match="integer"):
        SimConfig(m=True, sigma=1.0, rho=0.0, dist=NormalMeans())


# --------------------------------------------------------------------------
# the individual-level kernel: fixed means, each config scored alone


def reference_draws(cfg: SimConfig, rep: int) -> tuple:
    """One replication's draws for one fixed-means config: (mu, blocks),
    eps in blocks of BLOCK_CELLS // m individuals (at least one; the last
    block may be shorter), one row per arm each."""
    rng = stream(cfg.seed, rep)
    n, m = cfg.n_individuals, cfg.m
    mu = np.asarray(cfg.dist.mu, dtype=float)
    size = max(1, simulate.BLOCK_CELLS // m)
    return mu, [rng.standard_normal((m, min(size, n - start))) for start in range(0, n, size)]


def reference_replicate(cfg: SimConfig, rep: int) -> tuple[float, float]:
    """One replication of one fixed-means config, drawing everything
    itself, scored as the kernel scores it. That is on the predictions
    Yhat' = mu + c eps, c = hypot(v, sigma_eps) and v = sigma sqrt(1-rho),
    each pick valued at E[Y' | Yhat'] = mu + (v/c)^2 (Yhat' - mu), with no
    common term. With sigma_eps = 0, Yhat' is Y'. Each individual's pick is
    the argmax over their column, ties to the lowest arm index, gathered
    cell by cell; the mean of the picks' means is a count of picks per arm
    dotted with mu, as the kernel takes it. Sums over the individuals run
    block by block: of the picks' values and of each arm row (the uniform
    arm's sum is the largest)."""
    mu, blocks = reference_draws(cfg, rep)
    n, m, sigma_eps = cfg.n_individuals, cfg.m, cfg.sigma_eps
    v = cfg.sigma * math.sqrt(1.0 - cfg.rho)
    c = math.hypot(v, sigma_eps) if sigma_eps else v
    shrink = v / c if sigma_eps else 1.0
    picked, arm_sums, counts = 0.0, np.zeros(m), np.zeros(m)
    for eps in blocks:
        y = mu[:, None] + c * eps
        picks = np.argmax(y, axis=0)
        picked += float(y[picks, np.arange(len(picks))].sum())
        arm_sums += [row.sum() for row in y]
        counts += np.bincount(picks, minlength=m)
    uniform = int(np.argmax(arm_sums))
    v_p, v_u = picked / n, float(arm_sums[uniform]) / n
    if sigma_eps:
        k, mu_p, mu_u = shrink * shrink, float((counts * mu).sum()) / n, float(mu[uniform])
        v_p, v_u = mu_p + k * (v_p - mu_p), mu_u + k * (v_u - mu_u)
    return v_p, v_u


def full_replicate(cfg: SimConfig, rep: int) -> tuple[float, float]:
    """The same replication scored on E[Y' | Yhat'], the whole matrix's
    conditional mean given the predictions, with the uniform arm taken from
    the predictions' arm means: the whole-matrix statement of what the kernel
    computes, arm-major like the draws, its blocks joined. Given eps, the
    true outcomes' standardized spread has mean shrink eps,
    shrink = sqrt(v^2 / (v^2 + sigma_eps^2)). v_p and v_u agree with
    reference_replicate up to rounding."""
    mu, blocks = reference_draws(cfg, rep)
    n, sigma, rho = cfg.n_individuals, cfg.sigma, cfg.rho
    eps, mu = np.concatenate(blocks, axis=1), mu[:, None]
    v2 = sigma ** 2 * (1.0 - rho)
    total = v2 + cfg.sigma_eps ** 2
    shrink = math.sqrt(v2 / total) if total else 1.0
    y = mu + sigma * (math.sqrt(1.0 - rho) * shrink * eps)
    yhat = mu + math.sqrt(total) * eps if cfg.sigma_eps else y
    picks = np.argmax(yhat, axis=0)
    v_p = float(y[picks, np.arange(n)].mean())
    v_u = float(y[int(np.argmax(yhat.mean(axis=1)))].mean())
    return v_p, v_u


def noisy_replicate(cfg: SimConfig, rep: int) -> tuple[float, float]:
    """One replication of the full-noise estimator: after mu, z and eps it
    draws the prediction noise (n x m), picks on Yhat = Y + sigma_eps noise
    and scores the picks on Y itself, the arms' common term included. It
    shares no code with the simulator, so it is an independent reference
    for the estimand."""
    rng = stream(cfg.seed, rep)
    n, m, rho = cfg.n_individuals, cfg.m, cfg.rho
    mu = draw_means(cfg.dist, m, rng)
    z = rng.standard_normal((n, 1))
    eps = rng.standard_normal((n, m))
    noise = rng.standard_normal((n, m))
    if rho >= 0:
        common = math.sqrt(rho) * z
    else:
        scale = math.sqrt(1.0 + (m - 1) * rho) - math.sqrt(1.0 - rho)
        common = scale * eps.mean(axis=1, keepdims=True)
    y = mu + cfg.sigma * (math.sqrt(1.0 - rho) * eps + common)
    yhat = y + cfg.sigma_eps * noise
    v_p = float(y[np.arange(n), np.argmax(yhat, axis=1)].mean())
    v_u = float(y[:, int(np.argmax(yhat.mean(axis=0)))].mean())
    return v_p, v_u


def reference_gains(cfg: SimConfig) -> tuple[float, ...]:
    values = [reference_replicate(cfg, rep) for rep in range(cfg.n_replications)]
    v_p = np.array([v[0] for v in values])
    v_u = np.array([v[1] for v in values])
    return tuple(float(g) for g in v_p - v_u)


def layout_grid() -> list[list[SimConfig]]:
    """Fixed-means batches, the ones the individual-level kernel runs, each
    of one m: several configs in each, with rho on both sides of 0, equal
    and unequal means and sigma_eps = 0 and > 0 within a batch. The last
    batch has more rows than numpy's reduction buffer (8192 cells)."""
    base = dict(n_individuals=200, n_replications=6, seed=13)
    four = []
    for rho in (-0.2, 0.0, 0.5, 1.0):
        for sigma, mu, sigma_eps in ((1.0, (0.3, 0.8, -0.2, 0.3), 0.0), (2.5, (0.3,) * 4, 0.8)):
            four.append(SimConfig(m=4, sigma=sigma, rho=rho, dist=FixedMeans(mu),
                                  sigma_eps=sigma_eps, **base))
    five = []
    for rho in (0.3, -0.1):
        five.append(SimConfig(m=5, sigma=2.0, rho=rho, dist=FixedMeans((0.0, 0.0, 3.1, 0.0, -2.4)),
                              sigma_eps=0.4, **base))
        for mu in ((1.0, 2.0, 0.5, 1.5, 1.2), (0.0, 0.1, 0.2, 0.3, 0.4)):
            five.append(SimConfig(m=5, sigma=0.7, rho=rho, dist=FixedMeans(mu), **base))
    thirty = [SimConfig(m=30, sigma=1.0, rho=0.4, dist=FixedMeans(np.linspace(-1.0, 1.0, 30)),
                        sigma_eps=sigma_eps, **base) for sigma_eps in (0.0, 0.3)]
    tall = dict(n_individuals=9_000, n_replications=3, seed=14,
                dist=FixedMeans((0.1, 0.12, 0.05, 0.1, 0.08, 0.11)))
    tall_batch = [SimConfig(m=6, sigma=1.0, rho=rho, sigma_eps=sigma_eps, **tall)
                  for rho, sigma_eps in ((0.3, 0.5), (-0.15, 0.6), (0.6, 0.4), (-0.19, 0.0),
                                         (0.0, 0.0))]
    return [four, five, thirty, tall_batch]


def kernel_values(batch: list[SimConfig], n_jobs: int) -> tuple[list, list]:
    """simulate_gain's results for a batch, and the (top, off_p, off_u) of
    each of its configs in each replication, as `_block_values` returned
    them for the replication's block; with fixed means, top is 0 and the
    offsets are v_p and v_u."""
    block_values, seen = simulate._block_values, {}

    def record(cfgs, reps):
        rows = block_values(cfgs, reps)
        for rep, row in zip(reps, rows, strict=True):
            for point, value in zip(cfgs, row, strict=True):
                seen[id(point), rep] = value
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_block_values", record)
        results = simulate_gain(batch, n_jobs=n_jobs)
    return results, [[seen[id(cfg), rep] for rep in range(cfg.n_replications)] for cfg in batch]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_batched_kernel_matches_per_config_reference_bit_for_bit(n_jobs) -> None:
    # every config of every fixed-means batch against the reference
    for batch in layout_grid():
        results, values = kernel_values(batch, n_jobs)
        assert len(results) == len(batch)
        for cfg, result, per_rep in zip(batch, results, values):
            assert result.per_replication_gains == reference_gains(cfg), cfg
            assert per_rep == [(0.0, *reference_replicate(cfg, rep))
                               for rep in range(cfg.n_replications)], cfg


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_a_batch_over_several_blocks_matches_the_reference_bit_for_bit(n_jobs) -> None:
    # m = 100 and n = 3 B + 17: three whole blocks and a short one, with
    # rho on both sides of 0 and sigma_eps = 0 and > 0
    width = 100
    n = 3 * (simulate.BLOCK_CELLS // width) + 17
    base = dict(dist=FixedMeans(np.linspace(0.0, 0.5, width)), n_individuals=n, n_replications=3,
                seed=21)
    batch = [SimConfig(m=width, sigma=sigma, rho=rho, sigma_eps=sigma_eps, **base)
             for sigma, rho, sigma_eps in ((1.0, -0.01, 0.3), (2.0, 0.4, 0.5), (1.5, -0.01, 0.0),
                                           (0.5, 0.9, 0.0))]
    results, values = kernel_values(batch, n_jobs)
    for cfg, result, per_rep in zip(batch, results, values):
        assert result.per_replication_gains == reference_gains(cfg), cfg
        assert per_rep == [(0.0, *reference_replicate(cfg, rep))
                           for rep in range(cfg.n_replications)], cfg
    assert results[1] == simulate_gain(batch[1], n_jobs=n_jobs)


@pytest.mark.parametrize("cells", [1, 50])
def test_small_blocks_match_the_reference_bit_for_bit(cells) -> None:
    # blocks of one individual (cells = 1) and of one to 25 individuals
    # (cells = 50): every block boundary of the first three layout batches
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "BLOCK_CELLS", cells)
        for batch in layout_grid()[:3]:
            batch = [replace(cfg, n_replications=2) for cfg in batch]
            results, values = kernel_values(batch, 2)
            for cfg, result, per_rep in zip(batch, results, values):
                assert result.per_replication_gains == reference_gains(cfg), cfg
                assert per_rep == [(0.0, *reference_replicate(cfg, rep))
                                   for rep in range(cfg.n_replications)], cfg


def test_one_arm_best_for_everyone_gives_exactly_zero_gain_over_several_blocks() -> None:
    # sigma_eps = 0 and arm 0 far above the rest: each individual's best arm
    # is the uniform arm, so v_p and v_u are one sum, taken over three
    # whole blocks and a short one; a rounding gap between them would be a
    # negative gain, which raises InternalError
    m = 100
    n = 3 * (simulate.BLOCK_CELLS // m) + 5
    base = dict(dist=FixedMeans([50.0] + [0.0] * (m - 1)), n_individuals=n, n_replications=3,
                seed=8)
    batch = [SimConfig(m=m, sigma=1.0, rho=0.5, **base),
             SimConfig(m=m, sigma=2.0, rho=-0.005, **base)]
    for n_jobs in (1, 2):
        for result in simulate_gain(batch, n_jobs=n_jobs):
            assert result.per_replication_gains == (0.0, 0.0, 0.0)
            assert result.gain_mean == 0.0 and result.gain_se == 0.0


def test_kernel_values_match_the_whole_matrix_formula_up_to_rounding() -> None:
    # v_p and v_u of every replication against the whole-matrix formula
    for batch in layout_grid():
        _, values = kernel_values(batch, 1)
        for cfg, per_rep in zip(batch, values):
            for rep, kernel in enumerate(per_rep):
                for got, want in zip(kernel[1:], full_replicate(cfg, rep)):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (cfg, rep)


@st.composite
def batches(draw) -> list[SimConfig]:
    """A fixed-means batch: one m and up to three configs, each with its
    own means, sigma, rho anywhere in its range and sigma_eps 0 or not."""
    m = draw(st.integers(2, 7))
    layout = dict(n_individuals=draw(st.integers(1, 60)), n_replications=draw(st.integers(1, 3)),
                  seed=draw(st.integers(0, 2**16)))
    scale = st.floats(0.0, 3.0)
    return [SimConfig(m=m, sigma=draw(scale), rho=draw(st.floats(rho_lower_bound(m), 1.0)),
                      dist=FixedMeans(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))),
                      sigma_eps=draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0))), **layout)
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=150, deadline=None)
@given(batch=batches(), n_jobs=st.sampled_from([1, 2]))
def test_max_reduction_kernel_matches_the_argmax_reference(batch, n_jobs) -> None:
    # every replication's (v_p, v_u) against the argmax-based reference
    results, values = kernel_values(batch, n_jobs)
    for cfg, result, per_rep in zip(batch, results, values):
        for rep, kernel in enumerate(per_rep):
            for got, want in zip(kernel[1:], reference_replicate(cfg, rep)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (cfg, rep)
        if cfg.sigma_eps == 0.0:
            assert min(result.per_replication_gains) >= 0.0


def test_every_individual_tied_goes_to_the_lowest_arm() -> None:
    # 1e20 + c eps rounds to 1e20 in every cell: arms 0 and 1 tie for every
    # individual, and each individual counts once, for arm 0
    cfg = SimConfig(m=3, sigma=1.0, rho=0.0, dist=FixedMeans([1e20, 1e20, 0.0]), sigma_eps=1.0,
                    n_individuals=100, n_replications=3, seed=5)
    result, values = kernel_values([cfg], 1)
    assert values[0] == [(0.0, *reference_replicate(cfg, rep)) for rep in range(3)]
    assert all(v_p == v_u for _, v_p, v_u in values[0])
    assert result[0].per_replication_gains == (0.0, 0.0, 0.0)


def test_a_tie_between_arms_with_different_means_goes_to_the_lowest() -> None:
    # means one ulp apart and predictions within a few ulps of them: some
    # individuals' two predictions round to one value. With n = 1 the tied
    # individual scores mu_J + k (best - mu_J), k = (v/c)^2 near 1/2, and
    # the two arms' means give different values
    ulp = 2.0 ** -52
    cfg = SimConfig(m=2, sigma=ulp, rho=0.0, dist=FixedMeans([1.0, 1.0 + ulp]), sigma_eps=ulp,
                    n_individuals=1, n_replications=200, seed=1)
    c = math.hypot(cfg.sigma, cfg.sigma_eps)
    k = (cfg.sigma / c) * (cfg.sigma / c)
    _, values = kernel_values([cfg], 1)
    telling = 0
    for rep, kernel in enumerate(values[0]):
        assert kernel == (0.0, *reference_replicate(cfg, rep)), rep
        mu, blocks = reference_draws(cfg, rep)
        yhat = mu + c * blocks[0][:, 0]
        if yhat[0] == yhat[1]:
            first, second = mu + k * (yhat[0] - mu)  # v_p if arm 0, or arm 1, took the tie
            assert kernel[1] == first, rep
            telling += first != second
    assert telling >= 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sigma_eps", [0.0, 1e308])
def test_overflowing_outcomes_raise_config_error_from_score(monkeypatch, sigma_eps) -> None:
    # c eps overflows to inf in some cells of the individual-level kernel;
    # the replication's values are checked where they are scored
    score, scored = simulate._score, []
    monkeypatch.setattr(simulate, "_score", lambda *args: scored.append(args) or score(*args))
    batch = [SimConfig(m=3, sigma=1e308, rho=rho, dist=FixedMeans([0.0, 1.0, -1.0]),
                       sigma_eps=sigma_eps, n_individuals=100, n_replications=2, seed=7)
             for rho in (0.0, 0.5)]
    for cfgs in (batch, batch[1:]):
        scored.clear()
        with pytest.raises(ConfigError, match="the outcomes overflow float64"):
            simulate_gain(cfgs)
        assert not all(math.isfinite(v) for v in scored[-1][1:3])


def unbiasedness_batches() -> list[list[SimConfig]]:
    """Designs with sigma_eps > 0 for the conditional estimators against the
    noise-drawing reference: rho < 0, fixed means, spike-slab means, and a
    batch whose narrower config has sigma_eps > 0."""
    base = dict(n_individuals=100, n_replications=2_000, seed=61)
    return [
        [SimConfig(m=4, sigma=1.0, rho=-0.25, dist=NormalMeans(0.2, 0.3), sigma_eps=1.0, **base)],
        [SimConfig(m=3, sigma=1.5, rho=0.3, dist=FixedMeans([0.2, 0.0, -0.1]), sigma_eps=1.5,
                   **base)],
        [SimConfig(m=5, sigma=2.0, rho=-0.1, dist=SpikeSlabMeans(0.5, 0.0, 1.0), sigma_eps=2.0,
                   **base)],
        [SimConfig(m=6, sigma=1.0, rho=0.4, dist=NormalMeans(0.0, 0.5), sigma_eps=1.0, **base),
         SimConfig(m=3, sigma=1.0, rho=-0.3, dist=NormalMeans(0.0, 0.5), sigma_eps=1.2, **base)],
    ]


def quiet_unbiasedness_batches() -> list[list[SimConfig]]:
    """Designs with sigma_eps = 0 for the simulator, which leaves out the
    arms' common term, against the reference, which keeps it: normal means
    at rho < 0, and a spike-slab batch that mixes rho."""
    base = dict(n_individuals=100, n_replications=2_000, seed=61)
    return [
        [SimConfig(m=4, sigma=1.0, rho=-0.25, dist=NormalMeans(0.2, 0.3), **base)],
        [SimConfig(m=5, sigma=2.0, rho=0.5, dist=SpikeSlabMeans(0.5, 0.0, 1.0), **base),
         SimConfig(m=3, sigma=1.5, rho=-0.3, dist=SpikeSlabMeans(0.5, 0.0, 1.0), **base)],
    ]


def test_conditional_estimator_is_unbiased_with_no_larger_variance() -> None:
    # the reference runs on its own seed, so the two estimates are
    # independent; a narrower config's reference runs it alone at its m,
    # which has the distribution of its batch's first m columns. With
    # sigma_eps = 0 and fixed means both estimators have one gain
    # distribution; conditioning on random means shrinks the variance too,
    # but those designs check the means only
    checked = quiet = 0
    for batch in unbiasedness_batches() + quiet_unbiasedness_batches():
        results, values = kernel_values(batch, 2)
        for cfg, result, per_rep in zip(batch, results, values):
            reference = [noisy_replicate(replace(cfg, seed=cfg.seed + 1), rep)
                         for rep in range(cfg.n_replications)]
            top, off_p, off_u = np.array(per_rep).T
            centre = 0.0 if isinstance(cfg.dist, FixedMeans) else cfg.dist.mean
            got, want = (centre + top + off_p, centre + top + off_u), np.array(reference).T
            got_gains, want_gains = off_p - off_u, want[0] - want[1]
            assert result.gain_mean == pytest.approx(got_gains.mean(), rel=1e-12, abs=1e-15)
            for name, a, b in (("gain", got_gains, want_gains), ("v_p", got[0], want[0]),
                               ("v_u", got[1], want[1])):
                se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / len(a))
                assert abs(a.mean() - b.mean()) <= 4 * se, (name, cfg)
            if not cfg.sigma_eps:
                quiet += 1
                continue
            assert got_gains.var(ddof=1) <= want_gains.var(ddof=1), cfg
            checked += 1
    assert checked == 5
    assert quiet == 3


# --------------------------------------------------------------------------
# random means: each replication scored by its values given the means


def means_grid() -> list[list[SimConfig]]:
    """One batch per kind of random means: normal means with several
    configs, several m and rho on both sides of 0 within the batch, and
    spike-slab means; then a normal batch of configs that differ in m, rho
    and sigma_eps, with sigma_eps > 0 on both sides of rho = 0."""
    base = dict(n_individuals=200, n_replications=6, seed=13)
    normal = []
    for rho in (-0.2, 0.0, 0.5, 1.0):
        for sigma, s, sigma_eps in ((1.0, 0.5, 0.0), (2.5, 0.0, 0.8)):
            normal.append(SimConfig(m=4, sigma=sigma, rho=rho, dist=NormalMeans(0.3, s),
                                    sigma_eps=sigma_eps, **base))
    for m in (2, 3, 9, 30):
        normal.append(SimConfig(m=m, sigma=1.0, rho=0.4, dist=NormalMeans(0.0, 1.0),
                                sigma_eps=0.3, **base))
    spike_slab = []
    for rho in (0.3, -0.1):
        for pi in (0.2, 0.9):
            spike_slab.append(SimConfig(m=5, sigma=2.0, rho=rho,
                                        dist=SpikeSlabMeans(pi, 0.0, 3.0), sigma_eps=0.4, **base))
    mixed = dict(n_individuals=9_000, n_replications=3, seed=14, dist=NormalMeans(0.1, 0.05))
    mixed_batch = [SimConfig(m=m, sigma=1.0, rho=rho, sigma_eps=sigma_eps, **mixed)
                   for m, rho, sigma_eps in ((6, 0.3, 0.5), (4, -0.25, 0.6), (5, 0.6, 0.4),
                                             (3, -0.3, 0.0), (5, 0.0, 0.0))]
    return [normal, spike_slab, mixed_batch]


def means_values(cfg: SimConfig, rep: int, width: int) -> tuple[float, float, float]:
    """(top, off_p, off_u) of a random-means config in replication `rep` of
    a batch drawn at `width` arms, drawing its offsets itself from the
    first m of the W means' variates and scoring them alone, a block of one
    replication of one config."""
    mu = cfg.dist.offsets(cfg.dist.variates(width, stream(cfg.seed, rep)), cfg.m)
    return simulate._score_block([cfg], [(mu,)])[0][0]


def nested_batches() -> list[list[SimConfig]]:
    """Batches whose configs, but one, differ from the widest in m alone:
    normal and spike-slab means, rho on both sides of 0, sigma_eps = 0 and
    > 0, two configs with one m and a second widest."""
    width = 40
    batches = []
    for dist in (NormalMeans(0.1, 0.5), SpikeSlabMeans(0.7, 0.0, 2.0)):
        for rho in (-0.02, 0.6):
            for sigma_eps in (0.0, 0.4):
                base = dict(sigma=1.3, rho=rho, dist=dist, sigma_eps=sigma_eps, n_individuals=500,
                            n_replications=3, seed=19)
                batches.append([SimConfig(m=m, **base) for m in (5, width, 2, 17, 5, width)]
                               + [SimConfig(m=17, **{**base, "sigma": 0.9})])
    return batches


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_configs_nested_in_the_widest_share_its_rows_bit_for_bit(n_jobs) -> None:
    # a config of a random-means batch is scored on the first m of the W
    # means its replication draws, with the bits of scoring those means on
    # their own, and the widest has the bits of running it alone
    for batch in nested_batches() + means_grid():
        width = max(cfg.m for cfg in batch)
        results, values = kernel_values(batch, n_jobs)
        for cfg, per_rep in zip(batch, values):
            assert per_rep == [means_values(cfg, rep, width)
                               for rep in range(cfg.n_replications)], cfg
        widest = next(index for index, cfg in enumerate(batch) if cfg.m == width)
        assert results[widest] == simulate_gain(batch[widest], n_jobs=n_jobs)


def counterfactual_batches() -> list[list[SimConfig]]:
    """Batches shaped like a counterfactual over m: two studies that differ
    in sigma, each at 23 and 20 arms (walmart's and penn_geisinger's), with
    rho on both sides of 0 and sigma_eps = 0 and > 0."""
    batches = []
    for rho in (-0.03, 0.6):
        for sigma_eps in (0.0, 0.3):
            base = dict(rho=rho, dist=NormalMeans(0.0, 0.05), sigma_eps=sigma_eps,
                        n_individuals=10_000, n_replications=4, seed=23)
            batches.append([SimConfig(m=m, sigma=sigma, **base)
                            for sigma, m in ((0.078, 23), (0.078, 20), (0.267, 20), (0.267, 23))])
    return batches


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_each_study_of_a_counterfactual_over_m_spreads_its_rows_once(monkeypatch, n_jobs) -> None:
    # each replication draws the means of all four cells once, at 23 arms,
    # and scores each cell once, on its own first m of them
    draw, draws = simulate.sample_potential_outcomes, []
    monkeypatch.setattr(simulate, "sample_potential_outcomes",
                        lambda *args, **kw: draws.append(args[0].m) or draw(*args, **kw))
    for batch in counterfactual_batches():
        draws.clear()
        _, values = kernel_values(batch, n_jobs)
        assert draws == [23] * batch[0].n_replications
        for cfg, per_rep in zip(batch, values):
            assert per_rep == [means_values(cfg, rep, 23) for rep in range(cfg.n_replications)]


def test_batched_kernel_equals_one_config_runs_and_keeps_order() -> None:
    alone = narrower = 0
    for batch in means_grid() + layout_grid():
        # the widest config of the normal batch comes last; a repeated
        # config is scored twice, each time as if alone
        cfgs = [*batch[1::3], batch[1]]
        width = max(cfg.m for cfg in cfgs)
        wide = next(cfg for cfg in cfgs if cfg.m == width)
        for cfg, result in zip(cfgs, simulate_gain(cfgs)):
            if cfg.m == width:
                alone += 1
                assert result == simulate_gain(cfg), cfg
            else:
                # a narrower config depends only on its batch's width
                narrower += 1
                assert result == simulate_gain([cfg, wide])[0], cfg
    assert alone >= 6 and narrower >= 3
    assert simulate_gain([]) == []


def test_simulate_gain_keeps_no_state_between_calls() -> None:
    # two threads run batches of widths 40, 23 and 7 at once, several times
    # each, one of them on a pool of its own: every result has the bits of
    # the same batch run serially. The width-7 batch has fixed means and
    # spans four blocks of draws
    batches = {
        "wide": nested_batches()[5],
        "counterfactual": counterfactual_batches()[1],
        "narrow": [SimConfig(m=7, sigma=0.8, rho=-0.1, dist=FixedMeans(np.linspace(0.0, 0.3, 7)),
                             sigma_eps=0.2, n_individuals=3 * (simulate.BLOCK_CELLS // 7) + 1,
                             n_replications=3, seed=5)],
    }
    want = {name: simulate_gain(batch) for name, batch in batches.items()}
    calls = [[("wide", 2), ("narrow", 1)] * 3, [("counterfactual", 1), ("narrow", 1)] * 3]
    start = threading.Barrier(len(calls), timeout=60)

    def run(thread_calls: list) -> list:
        start.wait()
        return [simulate_gain(batches[name], n_jobs=n_jobs) for name, n_jobs in thread_calls]

    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        done = list(pool.map(run, calls))
    for thread_calls, thread_done in zip(calls, done):
        for (name, _), results in zip(thread_calls, thread_done):
            assert results == want[name], name


def test_a_batch_of_several_layouts_fails_before_any_draw(monkeypatch) -> None:
    keys: list = []
    monkeypatch.setattr(simulate, "stream", lambda *key: keys.append(key) or stream(*key))
    base = SimConfig(m=3, sigma=1.0, rho=0.2, dist=NormalMeans(0.0, 1.0),
                     n_individuals=20, n_replications=2, seed=5)
    others = (replace(base, seed=6), replace(base, n_individuals=21),
              replace(base, dist=SpikeSlabMeans(0.5, 0.0, 1.0)))
    for other in others:
        for n_jobs in (1, 2):
            with pytest.raises(ConfigError, match="config 2 has draw layout"):
                simulate_gain([base, replace(base, m=4), other, replace(other, m=2)],
                              n_jobs=n_jobs)
    assert keys == []


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_fixed_means_of_several_m_in_one_batch_each_equal_their_lone_run(n_jobs) -> None:
    # each fixed-means config draws its own eps, so a batch takes any m in
    # any order, over one block or several, with sigma_eps = 0 and > 0
    n = 2 * (simulate.BLOCK_CELLS // 40) + 9
    batch = [SimConfig(m=m, sigma=1.0 + 0.1 * m, rho=rho, dist=FixedMeans(np.linspace(0.0, 0.4, m)),
                       sigma_eps=sigma_eps, n_individuals=n, n_replications=3, seed=5)
             for m, rho, sigma_eps in ((3, 0.2, 0.0), (40, -0.02, 0.3), (2, 0.5, 0.7),
                                       (40, 0.1, 0.0), (7, -0.1, 0.0))]
    for cfg, result in zip(batch, simulate_gain(batch, n_jobs=n_jobs)):
        assert result == simulate_gain(cfg), cfg
        assert result.per_replication_gains == reference_gains(cfg), cfg


def order_batches() -> list[list[SimConfig]]:
    """Random-means batches in an order that is not widest first: normal
    means at m = 7, 3, 12 and 5, the mixed batch of `means_grid`, and a
    spike-slab sweep whose 347 arms in all take the thread pool."""
    normal = dict(sigma=1.0, rho=0.3, dist=NormalMeans(0.2, 0.8), sigma_eps=0.4,
                  n_individuals=1_000, n_replications=5, seed=31)
    slab = dict(sigma=10.0, rho=0.9, dist=SpikeSlabMeans(0.9, 0.0, 22.0), sigma_eps=0.5,
                n_individuals=20_000, n_replications=4, seed=3)
    return [[SimConfig(m=m, **normal) for m in (7, 3, 12, 5)], means_grid()[2][::-1],
            [SimConfig(m=m, **slab) for m in (2, 5, 40, 300)]]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_a_random_means_batch_in_any_order_gives_each_config_its_widest_first_bits(n_jobs) -> None:
    # a batch keeps its order: each config gets the bits it gets when the
    # batch runs widest first, whatever the order, the widest among them
    shuffle = np.random.default_rng(4)
    for batch in order_batches():
        ranked = sorted(batch, key=lambda cfg: -cfg.m)
        want = dict(zip(map(id, ranked), simulate_gain(ranked, n_jobs=n_jobs)))
        orders = [batch, batch[::-1], [batch[k] for k in shuffle.permutation(len(batch))]]
        for order in orders:
            for cfg, result in zip(order, simulate_gain(order, n_jobs=n_jobs)):
                assert result == want[id(cfg)], (order.index(cfg), cfg)


class CountingGenerator:
    """A generator that delegates to a real one and records the size of each
    standard_normal call, or the shape of the array it fills."""

    def __init__(self, rng: np.random.Generator, sizes: list) -> None:
        self._rng, self._sizes = rng, sizes

    def standard_normal(self, size=None, out=None):
        self._sizes.append(size if out is None else out.shape)
        return self._rng.standard_normal(size, out=out)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("sigma_eps, n_by_m_draws", [
    ((0.0,), 1), ((0.0, 0.0), 1), ((0.5,), 1), ((0.0, 0.5), 1), ((0.5, 0.0), 1),
])
def test_prediction_noise_is_drawn_only_when_some_config_needs_it(
    monkeypatch, sigma_eps, n_by_m_draws
) -> None:
    """No config needs the noise drawn. Each fixed-means config draws eps,
    m x n (one block), once per replication and no other m x n array,
    whatever sigma_eps; a random-means replication draws its m means alone.
    The results keep the bits of the references."""
    sizes: list = []
    monkeypatch.setattr(simulate, "stream", lambda *key: CountingGenerator(stream(*key), sizes))
    n, m, reps = 50, 3, 4
    cfgs = [SimConfig(m=m, sigma=1.0 + k, rho=0.2 - 0.3 * k, dist=FixedMeans([0.1, -0.2, 0.3]),
                      sigma_eps=e, n_individuals=n, n_replications=reps)
            for k, e in enumerate(sigma_eps)]
    results = simulate_gain(cfgs)
    assert sizes == [(m, n)] * (n_by_m_draws * len(cfgs) * reps)
    for cfg, result in zip(cfgs, results):
        assert result.per_replication_gains == reference_gains(cfg), cfg
    sizes.clear()
    cfgs = [replace(cfg, dist=NormalMeans(0.0, 1.0)) for cfg in cfgs]
    results = simulate_gain(cfgs)
    assert sizes == [m] * reps
    for cfg, result in zip(cfgs, results):
        values = [means_values(cfg, rep, m) for rep in range(reps)]
        assert result.per_replication_gains == tuple(v_p - v_u for _, v_p, v_u in values), cfg


def traced_memory(batch: list[SimConfig], n_jobs: int) -> tuple[int, int]:
    """How far traced memory (numpy's buffers included) rose at its peak
    during simulate_gain(batch, n_jobs), and where it ended, both against
    its value before the call."""
    # a batch one row taller first, so that first-call caches stay out of
    # the trace but arrays it kept would not fit the measured call
    simulate_gain([replace(cfg, n_individuals=cfg.n_individuals + 1) for cfg in batch],
                  n_jobs=n_jobs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        simulate_gain(batch, n_jobs=n_jobs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, current - start


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_a_narrower_noisy_config_needs_no_second_scratch_array(n_jobs) -> None:
    # no config draws the noise, and sigma_eps > 0 on the m = 90 config of a
    # random-means batch costs no n x 90 array: its pick probabilities take
    # a few arrays of one row per arm
    n = 2_000

    def batch(sigma_eps: float) -> list[SimConfig]:
        base = dict(sigma=1.0, rho=0.3, dist=NormalMeans(0.0, 0.5), n_individuals=n,
                    n_replications=4, seed=3)
        return [SimConfig(m=2, **base), SimConfig(m=90, sigma_eps=sigma_eps, **base),
                SimConfig(m=100, sigma_eps=0.5, **base)]

    quiet_peak, quiet_end = traced_memory(batch(0.0), n_jobs)
    noisy_peak, noisy_end = traced_memory(batch(0.5), n_jobs)
    assert noisy_peak - quiet_peak <= n * 90 * 8 / 4
    # every array goes when the call returns; what stays is the
    # interpreter's own bookkeeping
    assert quiet_end < 8_192 and noisy_end < 8_192


def test_a_large_batch_holds_one_block_of_draws_whatever_n() -> None:
    # n = 200,000 at m = 100 would be a 160 MB draw matrix; the kernel holds
    # a 100 x 1,310 block of eps and its marks, 1.2 MB, one config at a time
    base = dict(dist=FixedMeans(np.linspace(0.0, 0.5, 100)), n_individuals=200_000,
                n_replications=2, seed=3)
    batch = [SimConfig(m=100, sigma=1.0, rho=0.3, sigma_eps=0.5, **base),
             SimConfig(m=100, sigma=2.0, rho=-0.01, **base)]
    peak, end = traced_memory(batch, 1)
    assert peak < 4_000_000
    assert end < 8_192


def test_jobs_below_one_rejected() -> None:
    cfg = SimConfig(m=2, sigma=1.0, rho=0.0, dist=NormalMeans(), n_replications=2)
    for n_jobs in (0, -3):
        with pytest.raises(ConfigError, match="n_jobs"):
            simulate_gain(cfg, n_jobs=n_jobs)


def expected_max_of_normals(m: int) -> float:
    """E[max of m i.i.d. N(0, 1)] = integral of x m phi(x) Phi(x)^(m-1),
    by the trapezoid rule on [-12, 12]."""
    x = np.linspace(-12.0, 12.0, 24_001)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    f = x * m * pdf * cdf ** (m - 1)
    return float(np.sum((f[1:] + f[:-1]) * np.diff(x)) / 2.0)


def exact_gain(cfg: SimConfig) -> float:
    """The simulator's estimand for normal means N(M, s^2): with
    v^2 = sigma^2 (1 - rho), the personalized pick's expected edge minus
    the in-sample winner's curse of the best column mean."""
    s2 = cfg.dist.s ** 2
    v2 = cfg.sigma ** 2 * (1.0 - cfg.rho)
    e2 = cfg.sigma_eps ** 2
    n = cfg.n_individuals
    personalized = (s2 + v2) / math.sqrt(s2 + v2 + e2)
    uniform = (s2 + v2 / n) / math.sqrt(s2 + (v2 + e2) / n)
    return expected_max_of_normals(cfg.m) * (personalized - uniform)


def test_exact_m_arm_gain_is_an_oracle_for_the_simulator() -> None:
    # ten designs sharing one draw layout and ten with layouts of their own
    # (rho on both sides of 0, every other one with sigma_eps = 0), then ten
    # sharing a prefix layout: twelve batches, one per layout; criterion 1's
    # rule
    rng = np.random.default_rng(29)
    cfgs = []
    for _ in range(10):
        cfgs.append(SimConfig(
            m=6, sigma=float(rng.uniform(0.2, 2.0)), rho=float(rng.uniform(0.0, 0.95)),
            dist=NormalMeans(float(rng.uniform(-1, 1)), float(rng.uniform(0.0, 1.0))),
            sigma_eps=float(rng.uniform(0.0, 1.5)), n_individuals=1_000, n_replications=400,
            seed=31,
        ))
    for k in range(10):
        m = int(rng.integers(3, 13))
        cfgs.append(SimConfig(
            m=m, sigma=float(rng.uniform(0.2, 2.0)),
            rho=float(rng.uniform(-0.9 / (m - 1), 0.95)),
            dist=NormalMeans(float(rng.uniform(-1, 1)), float(rng.uniform(0.0, 1.0))),
            sigma_eps=(float(rng.uniform(0.0, 1.5)), 0.0)[k % 2], n_individuals=1_000,
            n_replications=400, seed=40 + k,
        ))
    # ten designs with m from 2 to 12 sharing one layout, drawn at m = 12:
    # each narrower one uses the first m means and columns of those draws
    for k, m in enumerate((2, 3, 4, 5, 6, 7, 8, 9, 11, 12)):
        rho = rng.uniform(-0.9 / (m - 1), 0.0) if k % 3 == 0 else rng.uniform(0.0, 0.95)
        cfgs.append(SimConfig(
            m=m, sigma=float(rng.uniform(0.2, 2.0)), rho=float(rho),
            dist=NormalMeans(float(rng.uniform(-1, 1)), float(rng.uniform(0.0, 1.0))),
            sigma_eps=(float(rng.uniform(0.0, 1.5)), 0.0)[k % 2], n_individuals=1_000,
            n_replications=400, seed=53,
        ))
    assert any(cfg.rho < 0 for cfg in cfgs[20:]) and any(cfg.sigma_eps for cfg in cfgs[20:])
    batches = [cfgs[:10], *([cfg] for cfg in cfgs[10:20]), cfgs[20:]]
    results = [result for batch in batches for result in simulate_gain(batch, n_jobs=2)]
    hits = sum(
        abs(result.gain_mean - exact_gain(cfg)) <= 3 * result.gain_se
        for cfg, result in zip(cfgs, results)
    )
    assert hits >= 29, f"only {hits}/30 designs within 3 MC SEs of the exact gain"


def expected_max_of_shifted_normals(mu: Sequence[float], scale: float) -> float:
    """E[max_j (mu_j + scale e_j)], e_j i.i.d. N(0, 1): lo plus the integral
    over [lo, hi] of P(max > x) = 1 - prod_j Phi((x - mu_j) / scale), by
    the trapezoid rule, lo and hi 12 scales beyond the means."""
    lo, hi = min(mu) - 12.0 * scale, max(mu) + 12.0 * scale
    x = np.linspace(lo, hi, 20_001)
    cdf = np.ones_like(x)
    for mean in mu:
        cdf *= [0.5 * math.erfc((mean - v) / (scale * math.sqrt(2.0))) for v in x]
    tail = 1.0 - cdf
    return lo + float(np.sum((tail[1:] + tail[:-1]) * np.diff(x)) / 2.0)


@pytest.mark.parametrize("mu, sigma, rho", [
    ((0.2, 0.0, -0.1), 1.5, 0.3),
    ((0.5, 0.3, 0.0, -0.2), 1.0, -0.2),
    ((0.1, 0.0, 0.0, -0.1, 0.05), 0.8, rho_lower_bound(5)),
], ids=["rho_positive", "rho_negative", "rho_at_bound"])
def test_values_match_their_exact_expectations_without_prediction_noise(mu, sigma, rho) -> None:
    # sigma_eps = 0, fixed means and v = sigma sqrt(1-rho): E[v_p] is
    # E[max_j (mu_j + v e_j)], an individual's best arm, and E[v_u] is
    # E[max_j (mu_j + (v/sqrt(n)) e_j)], since v_u is the best arm's column
    # mean; the common term the kernel leaves out would add 0 to each
    n, reps = 100, 2_000
    cfg = SimConfig(m=len(mu), sigma=sigma, rho=rho, dist=FixedMeans(mu), n_individuals=n,
                    n_replications=reps, seed=61)
    results, values = kernel_values([cfg], 2)
    _, v_p, v_u = np.array(values[0]).T
    v = sigma * math.sqrt(1.0 - rho)
    for got, per_rep, scale in ((results[0].v_personalized_mean, v_p, v),
                                (results[0].v_uniform_mean, v_u, v / math.sqrt(n))):
        exact = expected_max_of_shifted_normals(mu, scale)
        se = per_rep.std(ddof=1) / math.sqrt(reps)
        assert abs(got - exact) <= 4 * se, (got, exact, se)


def test_expected_max_of_normals_known_values() -> None:
    # E[max] of 2 and 3 standard normals: 1/sqrt(pi) and 3/(2 sqrt(pi))
    assert expected_max_of_normals(2) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
    assert expected_max_of_normals(3) == pytest.approx(1.5 / math.sqrt(math.pi), abs=1e-12)
    assert expected_max_of_shifted_normals((0.0,) * 3, 1.0) == pytest.approx(
        1.5 / math.sqrt(math.pi), abs=1e-12)
    # two arms: E[max] = a Phi(d/t) + b Phi(-d/t) + t phi(d/t), d = a - b,
    # t = scale sqrt(2)
    a, b, scale = 0.3, -0.2, 0.7
    t = scale * math.sqrt(2.0)
    cdf = 0.5 * math.erfc(-(a - b) / (t * math.sqrt(2.0)))
    pdf = math.exp(-0.5 * ((a - b) / t) ** 2) / math.sqrt(2.0 * math.pi)
    assert expected_max_of_shifted_normals((a, b), scale) == pytest.approx(
        a * cdf + b * (1.0 - cdf) + t * pdf, abs=1e-12)


# --------------------------------------------------------------------------
# values given the means


def test_norm_cdf_matches_erfc_on_its_smaller_tail_and_never_decreases() -> None:
    # within 1e-7 of the smaller tail, min(Phi, 1 - Phi), plus the rounding
    # of 1 - tail to a float near 1
    x = np.linspace(-40.0, 40.0, 40_001)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    tail = np.minimum(want, 1.0 - want)
    assert np.all(np.abs(simulate._norm_cdf(x) - want) <= 1e-7 * tail + 2.0 ** -53)
    assert simulate._norm_cdf(np.zeros(1))[0] == 0.5
    assert np.all(np.diff(simulate._norm_cdf(np.linspace(-40.0, 40.0, 2_000_001))) >= 0.0)


VALUE_MEANS = [
    ((0.0, 0.0, 0.0), 1.0),
    ((1.2, 1.0, 0.9), 1.5),
    ((0.5, 0.3, 0.0, -0.2), 0.2),
    ((3.0, 0.4, -1.0, 2.2, 2.9, 0.0, 1.1, 2.95, -0.5, 0.6), 0.7),
    ((100.0, 70.0, 69.0), 1.0),
]


@pytest.mark.parametrize("mu, t", VALUE_MEANS)
def test_value_without_prediction_noise_is_the_expected_max(mu, t) -> None:
    # k = 1: V(mu, t, 1) = E[max_j (mu_j + t e_j)], by the tests' own
    # quadrature with math.erfc; _values gives its distance from max mu
    want = expected_max_of_shifted_normals(mu, t)
    got = simulate._values(np.array([mu]), t, 1.0)[0]
    assert max(mu) + got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(want - max(mu), rel=1e-6)


def pick_probabilities(mu: Sequence[float], t: float) -> np.ndarray:
    """P(J = j) for J = argmax_j (mu_j + t e_j): the integral over x of
    phi((x - mu_j) / t) / t times prod_{l != j} Phi((x - mu_l) / t), by the
    trapezoid rule with math.erfc, 12 scales beyond the means."""
    x = np.linspace(min(mu) - 12.0 * t, max(mu) + 12.0 * t, 20_001)
    cdf = [np.array([0.5 * math.erfc((mean - v) / (t * math.sqrt(2.0))) for v in x])
           for mean in mu]
    probs = []
    for j, mean in enumerate(mu):
        f = np.exp(-0.5 * ((x - mean) / t) ** 2) / (t * math.sqrt(2.0 * math.pi))
        for l, other in enumerate(cdf):
            if l != j:
                f = f * other
        probs.append(float(np.sum((f[1:] + f[:-1]) * np.diff(x)) / 2.0))
    return np.array(probs)


@pytest.mark.parametrize("mu, t", VALUE_MEANS[:4])
def test_pick_probabilities_sum_to_one_and_match_their_integrals(mu, t) -> None:
    # _values takes E[d_J], the lag of the pick, from pick probabilities it
    # normalizes to sum to 1. With k = 0 the value is E[mu_J] = max mu -
    # t E[d_J], their mean of mu, the same for each row of a block; with
    # k = 1/2 it is half that plus half E[max H]
    mu = np.array(mu)
    want = pick_probabilities(mu, t)
    assert abs(want.sum() - 1.0) <= 1e-9
    got = simulate._values(np.array([mu, mu]), t, 0.0)
    assert got[0] == got[1]
    assert max(mu) + got[0] == pytest.approx(float(want @ mu), rel=0, abs=1e-9)
    half = 0.5 * float(want @ mu) + 0.5 * expected_max_of_shifted_normals(mu, t)
    assert max(mu) + simulate._values(mu[None], t, 0.5)[0] == pytest.approx(half, rel=0, abs=1e-9)


def test_gains_without_prediction_noise_are_never_negative() -> None:
    # one arm 30 c ahead, all arms tied, and random means at m = 2 to 100
    # with ties (spike-slab) and near-ties (a tiny s): each E[gain | mu] is
    # >= 0 after rounding, so _summarize's check holds
    c = 1.3
    for mu in (np.array([30.0 * c] + [0.0] * 4), np.zeros(7), np.zeros(100)):
        for n in (1, 2, 10_000):
            assert (simulate._values(mu[None], c, 1.0)[0]
                    >= simulate._values(mu[None], c / math.sqrt(n), 1.0)[0])
    assert simulate._values(np.array([[30.0 * c, 0.0]]), c, 1.0)[0] == 0.0
    m_values = [2, 3, 4, 6, 10, 17, 30, 50, 75, 100]
    for dist in (SpikeSlabMeans(0.9, 0.0, 40.0), NormalMeans(0.0, 1e-9), NormalMeans(0.0, 30.0)):
        cfgs = [SimConfig(m=m, sigma=c, rho=0.2, dist=dist, n_individuals=10_000,
                          n_replications=20, seed=3) for m in m_values]
        for result in simulate_gain(cfgs):
            assert min(result.per_replication_gains) >= 0.0


def test_no_spread_gives_exactly_zero_gain_without_warnings() -> None:
    # sigma = 0, or rho = 1: every individual's outcomes are the means, so
    # both policies get the best one, and no division by the zero scale runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma, rho in ((0.0, 0.3), (2.0, 1.0)):
            for dist in (NormalMeans(0.0, 1.0), SpikeSlabMeans(0.5, 0.0, 1.0)):
                result = simulate_gain(SimConfig(m=4, sigma=sigma, rho=rho, dist=dist,
                                                 n_individuals=100, n_replications=5))
                assert result.per_replication_gains == (0.0,) * 5
                assert result.gain_mean == 0.0 and result.gain_se == 0.0


@pytest.mark.parametrize("m, sigma, rho, sigma_eps, n", [
    (2, 1.0, 0.0, 0.0, 1_000), (5, 1.5, -0.2, 0.0, 100), (20, 0.267, 0.8, 0.2, 10_000),
    (100, 10.0, 0.9, 3.0, 7),
])
def test_equal_random_means_give_the_exact_gain_with_zero_se(m, sigma, rho, sigma_eps, n) -> None:
    # NormalMeans(s=0), simulate's and sweep's default, leaves nothing random
    cfg = SimConfig(m=m, sigma=sigma, rho=rho, dist=NormalMeans(0.4, 0.0), sigma_eps=sigma_eps,
                    n_individuals=n, n_replications=7, seed=2)
    result = simulate_gain(cfg)
    assert result.gain_se == 0.0
    assert result.gain_mean == pytest.approx(exact_gain(cfg), rel=1e-9)


def test_a_value_given_the_means_that_overflows_raises_config_error_from_score(
    monkeypatch,
) -> None:
    # every mean is finite, but v E[max of 100 normals] exceeds float64
    score, scored = simulate._score, []
    monkeypatch.setattr(simulate, "_score", lambda *args: scored.append(args) or score(*args))
    cfg = SimConfig(m=100, sigma=1e308, rho=0.0, dist=NormalMeans(0.0, 1.0), n_individuals=100,
                    n_replications=2, seed=7)
    with pytest.raises(ConfigError, match="the outcomes overflow float64"):
        simulate_gain(cfg)
    assert not all(math.isfinite(v) for v in scored[-1])


@pytest.mark.parametrize("rows", [1, 3, 1_000])
def test_the_arms_taken_a_few_rows_at_a_time_give_one_product(monkeypatch, rows) -> None:
    # P(u), and so the value at k = 1, has the same bits however many arms
    # each group of the pick sums or each chunk takes, so the monotonicity
    # argument holds at any m; the picks agree up to rounding
    mu = np.array([[3.0, 0.4, -1.0, 2.2, 2.9, 0.0, 1.1, 2.95, -0.5, 0.6, 3.0]])
    whole = [simulate._values(mu, 0.7, k)[0] for k in (1.0, 0.5)]
    for name in ("_ROWS", "_CHUNK_LAGS"):
        with monkeypatch.context() as patch:
            patch.setattr(simulate, name, rows)
            top, picked = (simulate._values(mu, 0.7, k)[0] for k in (1.0, 0.5))
        assert top == whole[0], name
        assert picked == (whole[1] if name == "_CHUNK_LAGS" else pytest.approx(whole[1], rel=1e-13))


def test_a_random_means_replication_holds_a_few_rows_of_arms_whatever_m() -> None:
    # m = 12,000 arms with sigma_eps > 0 would take about 110 MB of
    # (m - 1) x 129 arrays at once; the arms go 1,016 rows at a time
    cfg = SimConfig(m=12_000, sigma=1.0, rho=0.3, dist=NormalMeans(0.0, 0.5), sigma_eps=0.5,
                    n_individuals=100, n_replications=2, seed=1)
    peak, end = traced_memory([cfg], 1)
    assert peak < 16_000_000
    assert end < 8_192


def wide_batches() -> list[list[SimConfig]]:
    """Random-means batches whose widest config has over _ROWS = 1,016
    arms, so that its pick sums add several groups: normal and spike-slab
    means, sigma_eps = 0 and > 0 within a batch, and a narrow config whose
    replications share a chunk."""
    batches = []
    for dist in (NormalMeans(0.0, 0.3), SpikeSlabMeans(0.5, 0.2, 0.4)):
        base = dict(rho=0.3, dist=dist, n_individuals=100, n_replications=4, seed=2)
        batches.append([SimConfig(m=1_030, sigma=1.0, sigma_eps=0.5, **base),
                        SimConfig(m=1_020, sigma=1.0, **base),
                        SimConfig(m=6, sigma=2.0, sigma_eps=0.2, **base)])
    return batches


def test_a_replications_values_have_the_same_bits_in_any_block_and_chunk(monkeypatch) -> None:
    # blocks of 1, 3 and the default count of replications, and chunks of 1,
    # 3 and the default count of lags, on one thread and on two: chunks of
    # 1 and 3 lags end at each group of _ROWS lags, which 3 does not divide
    for batch in wide_batches():
        want = simulate_gain(batch)
        assert simulate_gain(batch, n_jobs=2) == want
        arms = sum(cfg.m for cfg in batch) + len(simulate._U)
        for cells, lags in ((1, None), (3 * arms, None), (None, 1), (None, 3), (1, 3)):
            with monkeypatch.context() as patch:
                if cells:
                    patch.setattr(simulate, "BLOCK_CELLS", cells)
                if lags:
                    patch.setattr(simulate, "_CHUNK_LAGS", lags)
                assert simulate_gain(batch) == want, (cells, lags)


def test_a_block_of_random_means_holds_a_bounded_count_of_replications() -> None:
    # 200 replications of m = 2,000 arms with sigma_eps > 0: one block of
    # them all would take over 16 MB of means and lags at once
    cfg = SimConfig(m=2_000, sigma=1.0, rho=0.3, dist=NormalMeans(0.0, 0.5), sigma_eps=0.5,
                    n_individuals=100, n_replications=200, seed=1)
    peak, _ = traced_memory([cfg], 1)
    assert peak < 16_000_000


def test_a_huge_common_mean_leaves_the_gain_as_it_is() -> None:
    # the gain is taken from each value's distance from max mu, and mu from
    # its distance from the distribution's mean: shifting every mean by
    # 1e308 moves v_p and v_u alone, where the values themselves, near
    # 1e308, would keep nothing of a gain near 1
    for dist in (NormalMeans(0.0, 1.0), SpikeSlabMeans(0.5, 0.0, 1.0)):
        cfg = SimConfig(m=5, sigma=1.0, rho=0.2, dist=dist, sigma_eps=0.1, n_individuals=10,
                        n_replications=3, seed=4)
        near, far = simulate_gain([cfg, replace(cfg, dist=replace(dist, mean=1e308))])
        assert far.per_replication_gains == near.per_replication_gains
        assert (far.gain_mean, far.gain_se) == (near.gain_mean, near.gain_se)
        assert near.gain_se > 0.0
        assert far.v_personalized_mean == 1e308 + near.v_personalized_mean
        assert far.v_uniform_mean == 1e308 + near.v_uniform_mean


def test_a_few_spike_slab_replications_report_a_positive_se() -> None:
    # m = 2 at pi = 0.9: each replication's means are tied (both the spike)
    # with probability 0.81, and 4 replications often are all tied. They
    # score the tied case exactly and draw at least one slab arm, so each
    # replication's gain differs and the SE is > 0; pi = 1 leaves nothing
    # random, and the gain is the exact gain at equal means
    dist = SpikeSlabMeans(0.9, 0.0, math.sqrt(500.0))
    for seed in range(1, 11):
        cfg = SimConfig(m=2, sigma=10.0, rho=0.9, dist=dist, n_individuals=1_000,
                        n_replications=4, seed=seed)
        for row in sweep_arms(cfg, [2, 5]):
            assert row["gain_mean"] > 0.0 and row["gain_se"] > 0.0, (seed, row)
    spike = replace(cfg, m=5, dist=SpikeSlabMeans(1.0, 0.2, 3.0))
    result = simulate_gain(spike)
    assert result.gain_se == 0.0
    assert result.gain_mean == pytest.approx(exact_gain(replace(spike, dist=NormalMeans(0.2))),
                                             rel=1e-9)


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
