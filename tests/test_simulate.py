import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persgain import simulate
from persgain.analysis import SimSettings, StudyProfile, elasticity_table
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


def test_fixed_means_identity() -> None:
    np.testing.assert_array_equal(FixedMeans([20, 30]).sample(2, rng()), [20.0, 30.0])


def test_fixed_means_wrong_length() -> None:
    with pytest.raises(ConfigError):
        FixedMeans([1.0, 2.0]).sample(3, rng())


def test_normal_means_degenerate() -> None:
    np.testing.assert_array_equal(NormalMeans(0.0, 0.0).sample(5, rng()), np.zeros(5))


def test_spike_slab_variance() -> None:
    # pi = 0.9, s^2 = 50 -> mixture variance (1 - pi) s^2 = 5
    dist = SpikeSlabMeans(pi_spike=0.9, mean=0.0, s=math.sqrt(50.0))
    draws = dist.sample(1000, rng(1))
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
    with pytest.raises(ConfigError):
        NormalMeans(0.0, -1.0)
    with pytest.raises(ConfigError):
        SpikeSlabMeans(1.2, 0.0, 1.0)
    with pytest.raises(ConfigError):
        FixedMeans([1.0, math.inf])


# --------------------------------------------------------------------------
# potential outcomes


def outcomes(mu, sigma: float, rho: float, n: int, seed: int = 0) -> np.ndarray:
    """The m x n outcome matrix Y = Y' + sigma c 1 of (mu, sigma, rho), one
    row per arm: the sum of the two parts the kernel scores, `_spread` and
    `_common`, which the kernel itself never builds. eps is a fixed-means
    config's, drawn block by block by the draw step for replication 0 of
    `seed` and joined; z, each individual's common normal, which the
    simulator never draws (it draws only their mean), is a row of n normals
    from a generator of its own."""
    mu, m = np.asarray(mu, dtype=float), len(mu)
    cfg = SimConfig(m=m, sigma=sigma, rho=rho, dist=FixedMeans(mu),
                    n_individuals=n, n_replications=1, seed=seed)
    rng, size = stream(seed, 0), simulate._block_size(m)
    blocks = [sample_potential_outcomes(cfg, rng, out=np.empty((m, min(size, n - start))),
                                        first=not start)[0]
              for start in range(0, n, size)]
    eps = np.concatenate(blocks, axis=1)
    assert eps.shape == (m, n) and len(blocks) == -(-n // size)
    z = np.random.default_rng(seed).standard_normal((1, n))
    common = simulate._common(z, eps, sigma, rho)  # taken before eps is overwritten
    spread = simulate._spread(eps, mu[:, None], sigma * math.sqrt(1.0 - rho), out=eps)
    return np.add(spread, common, out=eps)


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
    # from stream(seed, rep): the widest config's W means, one normal zeta
    # (sqrt(n) times the mean of z), then eps block by block, each block
    # arm-major (W x b, each arm's b normals contiguous), and no prediction
    # noise, whatever sigma_eps; each narrower config's means are the first
    # m of the W means it maps the same variates to
    rep, width, sizes = 3, widest.m, (17, 17, 6)
    assert sum(sizes) == widest.n_individuals

    def draw(batch: list[SimConfig]) -> tuple:
        rng = stream(widest.seed, rep)
        eps, *head = sample_potential_outcomes(batch[0], rng, *batch[1:],
                                                out=np.empty((width, sizes[0])))
        later = [sample_potential_outcomes(batch[0], rng, out=np.empty((width, b)), first=False)
                 for b in sizes[1:]]
        assert all(len(drawn) == 1 for drawn in later)
        return head, [eps, *(drawn[0] for drawn in later)]

    head, blocks = draw([widest, *narrower])
    zeta, mu, *more_mu = head
    rng = stream(widest.seed, rep)
    np.testing.assert_array_equal(mu, widest.dist.sample(width, rng), strict=True)
    assert type(zeta) is float and zeta == rng.standard_normal()
    for block, b in zip(blocks, sizes):
        np.testing.assert_array_equal(block, rng.standard_normal((width, b)), strict=True)
        assert block.flags.c_contiguous
    assert len(more_mu) == len(narrower)
    for cfg, cfg_mu in zip(narrower, more_mu):
        expected = cfg.dist.sample(width, stream(widest.seed, rep))[: cfg.m]
        np.testing.assert_array_equal(cfg_mu, expected, strict=True)
    # a batch with sigma_eps > 0 draws exactly what it draws with sigma_eps = 0
    quiet_head, quiet_blocks = draw([replace(cfg, sigma_eps=0.0) for cfg in (widest, *narrower)])
    assert len(quiet_head) == len(head) == 2 + len(narrower)
    for a, b in zip((*head, *blocks), (*quiet_head, *quiet_blocks)):
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
# batches: one draw layout each, drawn once at its widest m


def reference_draws(cfg: SimConfig, rep: int, width: int | None = None) -> tuple:
    """One replication's draws for one config at `width` arms (cfg.m by
    default): (mu, zeta, blocks), with cfg.m means, zeta = sqrt(n) z_bar,
    and eps whole at `width` in blocks of BLOCK_CELLS // width individuals
    (at least one; the last block may be shorter), one row per arm each."""
    rng = stream(cfg.seed, rep)
    n, m = cfg.n_individuals, cfg.m
    width = m if width is None else width
    mu = cfg.dist.sample(m if isinstance(cfg.dist, FixedMeans) else width, rng)[:m]
    zeta = rng.standard_normal()
    size = max(1, simulate.BLOCK_CELLS // width)
    return mu, zeta, [rng.standard_normal((width, min(size, n - start)))
                      for start in range(0, n, size)]


def reference_replicate(cfg: SimConfig, rep: int, width: int | None = None) -> tuple[float, float]:
    """One replication of one config, drawing everything itself at `width`
    arms and keeping the first cfg.m: the per-config kernel that the batched
    simulate_gain replaced, scored as the batched kernel scores it. That is
    on the predictions Yhat' = mu + c eps, c = hypot(v, sigma_eps) and
    v = sigma sqrt(1-rho), each pick valued at E[Y' | Yhat'] =
    mu + (v/c)^2 (Yhat' - mu), with C, the common term's conditional mean
    over the individuals, added to v_p and v_u alike. With sigma_eps = 0,
    Yhat' is Y'. Each individual's pick is the argmax over their column,
    ties to the lowest arm index, gathered cell by cell; the mean of the
    picks' means is a count of picks per arm dotted with mu, as the kernel
    takes it. Sums over the individuals run block by block: of the picks'
    values, of each arm row (the uniform arm's sum is the largest) and,
    for C at rho < 0, of each arm row of eps at `width`."""
    mu, zeta, blocks = reference_draws(cfg, rep, width)
    n, m, sigma, rho, sigma_eps = cfg.n_individuals, cfg.m, cfg.sigma, cfg.rho, cfg.sigma_eps
    v = sigma * math.sqrt(1.0 - rho)
    c = math.hypot(v, sigma_eps) if sigma_eps else v
    shrink = v / c if sigma_eps else 1.0
    picked, arm_sums, eps_sums, counts = 0.0, np.zeros(m), np.zeros(len(blocks[0])), np.zeros(m)
    for eps in blocks:
        eps_sums += [row.sum() for row in eps]
        y = mu[:, None] + c * eps[:m]
        picks = np.argmax(y, axis=0)
        picked += float(y[picks, np.arange(len(picks))].sum())
        arm_sums += [row.sum() for row in y]
        counts += np.bincount(picks, minlength=m)
    if rho >= 0:
        common = sigma * (math.sqrt(rho) * (zeta / math.sqrt(n)))
    else:
        scale = math.sqrt(1.0 + (m - 1) * rho) - math.sqrt(1.0 - rho)
        common = sigma * (scale * (shrink * (eps_sums / n)[:m]).mean())
    uniform = int(np.argmax(arm_sums))
    v_p, v_u = picked / n, float(arm_sums[uniform]) / n
    if sigma_eps:
        k, mu_p, mu_u = shrink * shrink, float((counts * mu).sum()) / n, float(mu[uniform])
        v_p, v_u = mu_p + k * (v_p - mu_p), mu_u + k * (v_u - mu_u)
    return v_p + common, v_u + common


def full_replicate(cfg: SimConfig, rep: int, width: int | None = None) -> tuple[float, float]:
    """The same replication scored on E[Y | Yhat], the whole outcome matrix's
    conditional mean given the predictions, common term and all, with the
    uniform arm taken from Yhat's arm means: the whole-matrix statement of
    what the kernel computes, arm-major like the draws, its blocks joined.
    Given eps, the true outcomes' standardized spread has mean shrink eps,
    shrink = sqrt(v^2 / (v^2 + sigma_eps^2)). For rho >= 0 the common term
    enters v_p and v_u only through the mean of z, so z is z_bar in every
    cell. v_p and v_u agree with reference_replicate up to rounding."""
    mu, zeta, blocks = reference_draws(cfg, rep, width)
    n, m, sigma, rho = cfg.n_individuals, cfg.m, cfg.sigma, cfg.rho
    eps, mu = np.concatenate(blocks, axis=1)[:m], mu[:, None]
    v2 = sigma ** 2 * (1.0 - rho)
    total = v2 + cfg.sigma_eps ** 2
    shrink = math.sqrt(v2 / total) if total else 1.0
    if rho >= 0:
        common = np.full((1, n), math.sqrt(rho) * zeta / math.sqrt(n))
    else:
        scale = math.sqrt(1.0 + (m - 1) * rho) - math.sqrt(1.0 - rho)
        common = scale * shrink * eps.mean(axis=0, keepdims=True)
    y = mu + sigma * (math.sqrt(1.0 - rho) * shrink * eps + common)
    yhat = mu + math.sqrt(total) * eps + sigma * common if cfg.sigma_eps else y
    picks = np.argmax(yhat, axis=0)
    v_p = float(y[picks, np.arange(n)].mean())
    v_u = float(y[int(np.argmax(yhat.mean(axis=1)))].mean())
    return v_p, v_u


def noisy_replicate(cfg: SimConfig, rep: int) -> tuple[float, float]:
    """One replication of the full-noise estimator: after mu, z and eps it
    draws the prediction noise (n x m), picks on Yhat = Y + sigma_eps noise
    and scores the picks on Y itself. It shares no code with the kernel, so
    it is an independent reference for the estimand."""
    rng = stream(cfg.seed, rep)
    n, m, rho = cfg.n_individuals, cfg.m, cfg.rho
    mu = cfg.dist.sample(m, rng)
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


def reference_gains(cfg: SimConfig, width: int | None = None) -> tuple[float, ...]:
    values = [reference_replicate(cfg, rep, width) for rep in range(cfg.n_replications)]
    v_p = np.array([v[0] for v in values])
    v_u = np.array([v[1] for v in values])
    return tuple(float(g) for g in v_p - v_u)


def layout_grid() -> list[list[SimConfig]]:
    """One batch per draw layout: normal, spike-slab and fixed means, with
    several configs in each batch, several m in the normal one and rho on
    both sides of 0 within a batch. The last batch has more rows than
    numpy's reduction buffer (8192 cells), with narrower configs that have
    sigma_eps > 0 on both sides of rho = 0."""
    base = dict(n_individuals=200, n_replications=6, seed=13)
    normal = []
    for rho in (-0.2, 0.0, 0.5, 1.0):
        for sigma, s, sigma_eps in ((1.0, 0.5, 0.0), (2.5, 0.0, 0.8)):
            normal.append(SimConfig(m=4, sigma=sigma, rho=rho, dist=NormalMeans(0.3, s),
                                    sigma_eps=sigma_eps, **base))
    for m in (2, 3, 9, 30):
        normal.append(SimConfig(m=m, sigma=1.0, rho=0.4, dist=NormalMeans(0.0, 1.0),
                                sigma_eps=0.3, **base))
    # the first config of each m = 5 batch (rho = 0.3) is its widest and
    # writes its outcomes over the shared draws; the others write into the
    # scratch
    spike_slab, fixed = [], []
    for rho in (0.3, -0.1):
        for pi in (0.2, 0.9):
            spike_slab.append(SimConfig(m=5, sigma=2.0, rho=rho,
                                        dist=SpikeSlabMeans(pi, 0.0, 3.0), sigma_eps=0.4, **base))
        for mu in ((1.0, 2.0, 0.5, 1.5, 1.2), (0.0, 0.1, 0.2, 0.3, 0.4)):
            fixed.append(SimConfig(m=5, sigma=0.7, rho=rho, dist=FixedMeans(mu), **base))
    tall = dict(n_individuals=9_000, n_replications=3, seed=14, dist=NormalMeans(0.1, 0.05))
    tall_batch = [SimConfig(m=m, sigma=1.0, rho=rho, sigma_eps=sigma_eps, **tall)
                  for m, rho, sigma_eps in ((6, 0.3, 0.5), (4, -0.25, 0.6), (5, 0.6, 0.4),
                                            (3, -0.3, 0.0), (5, 0.0, 0.0))]
    return [normal, spike_slab, fixed, tall_batch]


def kernel_values(batch: list[SimConfig], n_jobs: int) -> tuple[list, list]:
    """simulate_gain's results for a batch, and the (v_p, v_u) of each of its
    configs in each replication, as `_replicate` returned them."""
    replicate, seen = simulate._replicate, {}

    def record(cfg, rep, *more):
        values = replicate(cfg, rep, *more)
        for point, value in zip((cfg, *more), values):
            seen[id(point), rep] = value
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_replicate", record)
        results = simulate_gain(batch, n_jobs=n_jobs)
    return results, [[seen[id(cfg), rep] for rep in range(cfg.n_replications)] for cfg in batch]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_batched_kernel_matches_per_config_reference_bit_for_bit(n_jobs) -> None:
    # Every config is compared with the reference drawn at its batch's
    # width: the fixed-means batch has sigma_eps = 0 throughout, and the
    # others mix sigma_eps = 0 and sigma_eps > 0 configs, widest and narrower.
    for batch in layout_grid():
        width = max(cfg.m for cfg in batch)
        results, values = kernel_values(batch, n_jobs)
        assert len(results) == len(batch)
        for cfg, result, per_rep in zip(batch, results, values):
            assert result.per_replication_gains == reference_gains(cfg, width), cfg
            assert per_rep == [reference_replicate(cfg, rep, width)
                               for rep in range(cfg.n_replications)], cfg


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_a_batch_over_several_blocks_matches_the_reference_bit_for_bit(n_jobs) -> None:
    # W = 100 and n = 3 B + 17: three whole blocks and a short one, with
    # rho on both sides of 0 and sigma_eps = 0 and > 0, widest and narrower
    width = 100
    n = 3 * (simulate.BLOCK_CELLS // width) + 17
    base = dict(dist=NormalMeans(0.1, 0.5), n_individuals=n, n_replications=3, seed=21)
    batch = [SimConfig(m=m, sigma=sigma, rho=rho, sigma_eps=sigma_eps, **base)
             for m, sigma, rho, sigma_eps in ((7, 1.0, -0.1, 0.3), (width, 2.0, 0.4, 0.5),
                                              (50, 1.5, -0.01, 0.0), (2, 0.5, 0.9, 0.0))]
    results, values = kernel_values(batch, n_jobs)
    for cfg, result, per_rep in zip(batch, results, values):
        assert result.per_replication_gains == reference_gains(cfg, width), cfg
        assert per_rep == [reference_replicate(cfg, rep, width)
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
            width = max(cfg.m for cfg in batch)
            results, values = kernel_values(batch, 2)
            for cfg, result, per_rep in zip(batch, results, values):
                assert result.per_replication_gains == reference_gains(cfg, width), cfg
                assert per_rep == [reference_replicate(cfg, rep, width)
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


def test_scoring_without_the_common_term_changes_values_by_rounding_only() -> None:
    # v_p and v_u of every replication against the whole-Y formula
    for batch in layout_grid():
        width = max(cfg.m for cfg in batch)
        _, values = kernel_values(batch, 1)
        for cfg, per_rep in zip(batch, values):
            for rep, kernel in enumerate(per_rep):
                for got, want in zip(kernel, full_replicate(cfg, rep, width)):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (cfg, rep)


@st.composite
def batches(draw) -> list[SimConfig]:
    """One draw layout: a widest config and up to two more, of one kind of
    mean distribution, each with its own sigma, rho anywhere in its range
    and sigma_eps 0 or not. Narrower configs are normal or spike-slab;
    fixed-means batches take one m."""
    kind = draw(st.sampled_from(["fixed", "normal", "spike_slab"]))
    width = draw(st.integers(2, 7))
    layout = dict(n_individuals=draw(st.integers(1, 60)), n_replications=draw(st.integers(1, 3)),
                  seed=draw(st.integers(0, 2**16)))
    scale = st.floats(0.0, 3.0)
    ms = [width] + draw(st.lists(st.just(width) if kind == "fixed" else st.integers(2, width),
                                 max_size=2))
    batch = []
    for m in ms:
        if kind == "fixed":
            dist = FixedMeans(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
        elif kind == "normal":
            dist = NormalMeans(draw(st.floats(-2.0, 2.0)), draw(scale))
        else:
            dist = SpikeSlabMeans(draw(st.floats(0.0, 1.0)), draw(st.floats(-2.0, 2.0)), draw(scale))
        batch.append(SimConfig(
            m=m, sigma=draw(scale), rho=draw(st.floats(rho_lower_bound(m), 1.0)), dist=dist,
            sigma_eps=draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0))), **layout))
    return batch


@settings(max_examples=150, deadline=None)
@given(batch=batches(), n_jobs=st.sampled_from([1, 2]))
def test_max_reduction_kernel_matches_the_argmax_reference(batch, n_jobs) -> None:
    # every replication's (v_p, v_u) against the argmax-based reference,
    # drawn at the batch's width
    width = batch[0].m
    results, values = kernel_values(batch, n_jobs)
    for cfg, result, per_rep in zip(batch, results, values):
        for rep, kernel in enumerate(per_rep):
            for got, want in zip(kernel, reference_replicate(cfg, rep, width)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (cfg, rep)
        if cfg.sigma_eps == 0.0:
            assert min(result.per_replication_gains) >= 0.0


def test_every_individual_tied_goes_to_the_lowest_arm() -> None:
    # 1e20 + c eps rounds to 1e20 in every cell: arms 0 and 1 tie for every
    # individual, and each individual counts once, for arm 0
    cfg = SimConfig(m=3, sigma=1.0, rho=0.0, dist=FixedMeans([1e20, 1e20, 0.0]), sigma_eps=1.0,
                    n_individuals=100, n_replications=3, seed=5)
    result, values = kernel_values([cfg], 1)
    assert values[0] == [reference_replicate(cfg, rep) for rep in range(3)]
    assert all(v_p == v_u for v_p, v_u in values[0])
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
        assert kernel == reference_replicate(cfg, rep), rep
        mu, _, blocks = reference_draws(cfg, rep)
        yhat = mu + c * blocks[0][:, 0]
        if yhat[0] == yhat[1]:
            first, second = mu + k * (yhat[0] - mu)  # v_p if arm 0, or arm 1, took the tie
            assert kernel[0] == first, rep
            telling += first != second
    assert telling >= 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sigma_eps", [0.0, 1e308])
def test_overflowing_outcomes_raise_config_error_from_score(monkeypatch, sigma_eps) -> None:
    # c eps overflows to inf in some cells; the replication's values are
    # checked where they are scored
    score, scored = simulate._score, []
    monkeypatch.setattr(simulate, "_score", lambda *args: scored.append(args) or score(*args))
    batch = [SimConfig(m=m, sigma=1e308, rho=0.0, dist=NormalMeans(0.0, 1.0), sigma_eps=sigma_eps,
                       n_individuals=100, n_replications=2, seed=7) for m in (4, 3)]
    for cfgs in (batch, batch[1:]):
        scored.clear()
        with pytest.raises(ConfigError, match="the outcomes overflow float64"):
            simulate_gain(cfgs)
        assert not all(math.isfinite(v) for v in scored[-1][:2])


def unbiasedness_batches() -> list[list[SimConfig]]:
    """Designs with sigma_eps > 0 for the conditional estimator against the
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


def test_conditional_estimator_is_unbiased_with_no_larger_variance() -> None:
    # the reference runs on its own seed, so the two estimates are
    # independent; a narrower config's reference runs it alone at its m,
    # which has the distribution of its batch's first m columns
    checked = 0
    for batch in unbiasedness_batches():
        results, values = kernel_values(batch, 2)
        for cfg, result, per_rep in zip(batch, results, values):
            reference = [noisy_replicate(replace(cfg, seed=cfg.seed + 1), rep)
                         for rep in range(cfg.n_replications)]
            got, want = np.array(per_rep).T, np.array(reference).T
            got_gains, want_gains = got[0] - got[1], want[0] - want[1]
            assert result.gain_mean == pytest.approx(got_gains.mean(), rel=1e-12, abs=1e-15)
            for name, a, b in (("gain", got_gains, want_gains), ("v_p", got[0], want[0]),
                               ("v_u", got[1], want[1])):
                se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / len(a))
                assert abs(a.mean() - b.mean()) <= 4 * se, (name, cfg)
            assert got_gains.var(ddof=1) <= want_gains.var(ddof=1), cfg
            checked += 1
    assert checked == 5


def test_batched_kernel_equals_one_config_runs_and_keeps_order() -> None:
    alone = narrower = 0
    for batch in layout_grid():
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
    assert alone >= 3 and narrower >= 3
    assert simulate_gain([]) == []


def unshared_replicate(cfg: SimConfig, rep: int, *more: SimConfig) -> list[tuple[float, float]]:
    """`_replicate` as it was before configs shared rows: every config,
    whatever it shares with cfg, writes its own Yhat' for each block into an
    array of its own, takes its own max and arm sums, and counts its hits on
    the float equality written over its Yhat'."""
    n, width = cfg.n_individuals, cfg.m
    points = (*more, cfg)
    best_sums = [0.0] * len(points)
    arm_sums = [np.zeros(point.m) for point in points]
    hits = [np.zeros(point.m) for point in points]
    eps_sums = np.zeros(width)
    rng, size = stream(cfg.seed, rep), simulate._block_size(width)
    for start in range(0, n, size):
        b = min(size, n - start)
        eps, *head = sample_potential_outcomes(cfg, rng, *more, out=np.empty((width, b)),
                                               first=not start)
        if head:
            zeta, mu, *more_mu = head
            means = (*more_mu, mu)
        eps_sums += eps.sum(axis=1)
        for k, point in enumerate(points):
            c = simulate._scales(point)[0]
            y = simulate._spread(eps[: point.m], means[k][:, None], c,
                                 out=np.empty((point.m, b)))
            arm_sums[k] += y.sum(axis=1)
            best = y.max(axis=0)
            best_sums[k] += float(best.sum())
            if point.sigma_eps:
                block_hits = np.equal(y, best, out=y).sum(axis=1)
                if block_hits.sum() != b:
                    block_hits = np.bincount(np.argmax(y, axis=0), minlength=point.m)
                hits[k] += block_hits
    z_bar, eps_bar = zeta / math.sqrt(n), eps_sums / n
    values = []
    for k, point in enumerate(points):
        mu, shrink = means[k], simulate._scales(point)[1]
        common = float(simulate._common(z_bar, shrink * eps_bar[: point.m], point.sigma,
                                        point.rho))
        uniform = int(np.argmax(arm_sums[k]))
        v_p, v_u = best_sums[k] / n, float(arm_sums[k][uniform]) / n
        if point.sigma_eps:
            q, mu_p, mu_u = shrink * shrink, float((hits[k] * mu).sum()) / n, float(mu[uniform])
            v_p, v_u = mu_p + q * (v_p - mu_p), mu_u + q * (v_u - mu_u)
        values.append(simulate._score(v_p, v_u, common))
    *values, widest = values
    return [widest, *values]


def nested_batches() -> list[list[SimConfig]]:
    """Batches whose configs, but one, differ from the widest in m alone:
    normal and spike-slab means, rho on both sides of 0, sigma_eps = 0 and
    > 0, two configs with one m, a second widest, and over three blocks."""
    width = 40
    n = 2 * (simulate.BLOCK_CELLS // width) + 11
    batches = []
    for dist in (NormalMeans(0.1, 0.5), SpikeSlabMeans(0.7, 0.0, 2.0)):
        for rho in (-0.02, 0.6):
            for sigma_eps in (0.0, 0.4):
                base = dict(sigma=1.3, rho=rho, dist=dist, sigma_eps=sigma_eps, n_individuals=n,
                            n_replications=2, seed=19)
                batches.append([SimConfig(m=m, **base) for m in (5, width, 2, 17, 5, width)]
                               + [SimConfig(m=17, **{**base, "sigma": 0.9})])
    return batches


def check_two_groups_share_rows(monkeypatch, batches: list[list[SimConfig]], n_jobs: int) -> None:
    """Each batch, of two groups over three blocks, spreads two sets of rows
    per block; each config gets the bits of scoring it on rows of its own,
    and the widest those of running it alone."""
    spread, spreads = simulate._spread, []
    monkeypatch.setattr(simulate, "_spread", lambda *args, **kw: spreads.append(1)
                        or spread(*args, **kw))
    for batch in batches:
        order = sorted(range(len(batch)), key=lambda index: -batch[index].m)
        widest, *rest = (batch[index] for index in order)
        spreads.clear()
        results, values = kernel_values(batch, n_jobs)
        blocks = -(-widest.n_individuals // simulate._block_size(widest.m))
        assert blocks == 3 and len(spreads) == 2 * blocks * widest.n_replications
        for rep in range(widest.n_replications):
            want = unshared_replicate(widest, rep, *rest)
            assert [values[index][rep] for index in order] == want, (widest, rep)
        assert results[order[0]] == simulate_gain(widest, n_jobs=n_jobs)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_configs_nested_in_the_widest_share_its_rows_bit_for_bit(monkeypatch, n_jobs) -> None:
    # only the config that differs from the widest in more than m spreads
    # rows of its own beside the widest's
    batches = nested_batches()
    for batch in batches:
        assert sorted(map(len, simulate._groups(batch))) == [1, len(batch) - 1]
    check_two_groups_share_rows(monkeypatch, batches, n_jobs)


def counterfactual_batches() -> list[list[SimConfig]]:
    """Batches shaped like a counterfactual over m: two studies that differ
    in sigma, each at 23 and 20 arms (walmart's and penn_geisinger's), with
    rho on both sides of 0 and sigma_eps = 0 and > 0, over three blocks."""
    n = 2 * (simulate.BLOCK_CELLS // 23) + 7
    batches = []
    for rho in (-0.03, 0.6):
        for sigma_eps in (0.0, 0.3):
            base = dict(rho=rho, dist=NormalMeans(0.0, 0.05), sigma_eps=sigma_eps,
                        n_individuals=n, n_replications=2, seed=23)
            batches.append([SimConfig(m=m, sigma=sigma, **base)
                            for sigma, m in ((0.078, 23), (0.078, 20), (0.267, 20), (0.267, 23))])
    return batches


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_each_study_of_a_counterfactual_over_m_spreads_its_rows_once(monkeypatch, n_jobs) -> None:
    # each study is one group of two: the widest's, and one whose rows go
    # to the scratch though its largest m is the batch's
    batches = counterfactual_batches()
    for batch in batches:
        assert sorted(map(len, simulate._groups(batch))) == [2, 2]
    check_two_groups_share_rows(monkeypatch, batches, n_jobs)


def test_only_the_groups_besides_the_widest_s_take_scratch(monkeypatch) -> None:
    # a sweep's configs differ from its widest in m alone, so it needs no
    # scratch; elasticity's five configs are five groups of m = 20, and the
    # four besides the widest's take one 20 x B scratch
    arrays, sizes = simulate._arrays, []

    def spy(*args):
        held = arrays(*args)
        sizes.append(held[1].size)
        return held

    monkeypatch.setattr(simulate, "_arrays", spy)
    cfg = SimConfig(m=2, sigma=10.0, rho=0.9, dist=SpikeSlabMeans(0.9, 0.0, 22.0),
                    n_individuals=10_000, n_replications=2, seed=3)
    sweep_arms(cfg, [2, 5, 10, 25, 50, 100])
    assert sizes == [0, 0]
    sizes.clear()
    profile = StudyProfile(name="pg", s=0.007, sigma=0.267, rho=0.8, sigma_eps=0.2, m=20)
    elasticity_table(profile, settings=SimSettings(n_individuals=10_000, n_replications=2))
    assert sizes == [20 * simulate._block_size(20)] * 2


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
    # a fixed vector fits one m only, so a narrower one is refused up front
    fixed = [SimConfig(m=m, sigma=1.0, rho=0.0, dist=FixedMeans([0.5] * m),
                       n_individuals=20, n_replications=2) for m in (3, 2)]
    for n_jobs in (1, 2):
        with pytest.raises(ConfigError, match="config 1 has 2 fixed means, but its batch "
                                              "draws m = 3 arms"):
            simulate_gain(fixed, n_jobs=n_jobs)
    assert keys == []


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
    """No config needs the noise drawn: each replication draws eps, m x n
    (one block), and no other m x n array, whatever sigma_eps; the results
    keep the bits of the reference."""
    sizes: list = []
    monkeypatch.setattr(simulate, "stream", lambda *key: CountingGenerator(stream(*key), sizes))
    n, m, reps = 50, 3, 4
    cfgs = [SimConfig(m=m, sigma=1.0 + k, rho=0.2 - 0.3 * k, dist=NormalMeans(0.0, 1.0),
                      sigma_eps=e, n_individuals=n, n_replications=reps)
            for k, e in enumerate(sigma_eps)]
    results = simulate_gain(cfgs)
    assert sizes.count((m, n)) == n_by_m_draws * reps
    # per replication: the means, zeta (one normal) and eps (one row per
    # arm); every config's means come from the one draw of them
    assert sizes == [m, None, (m, n)] * reps
    for cfg, result in zip(cfgs, results):
        assert result.per_replication_gains == reference_gains(cfg), cfg


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
    # no config draws the noise, and sigma_eps > 0 on the m = 90 config
    # costs no n x 90 array for its Yhat beside its Y' scratch
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
    # interpreter's own bookkeeping, far less than a block's row of
    # individuals' best predictions (1,310 cells, 10 kB)
    assert quiet_end < 8_192 and noisy_end < 8_192


def test_a_large_batch_holds_one_block_of_draws_whatever_n() -> None:
    # n = 200,000 at m up to 100 would be a 160 MB draw matrix; each thread
    # holds a 100 x 1,310 block of eps and a 50 x 1,310 scratch, 1.6 MB
    base = dict(sigma=1.0, rho=0.3, dist=NormalMeans(0.0, 0.5), n_individuals=200_000,
                n_replications=2, seed=3)
    batch = [SimConfig(m=2, **base), SimConfig(m=50, sigma_eps=0.5, **base),
             SimConfig(m=100, **base)]
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


def test_expected_max_of_normals_known_values() -> None:
    # E[max] of 2 and 3 standard normals: 1/sqrt(pi) and 3/(2 sqrt(pi))
    assert expected_max_of_normals(2) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
    assert expected_max_of_normals(3) == pytest.approx(1.5 / math.sqrt(math.pi), abs=1e-12)


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
