import math
from dataclasses import replace

import numpy as np
import pytest

from persgain import simulate
from persgain.analytic import TwoArmParams, gain_two_arm
from persgain.errors import ConfigError, DomainError
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


def test_outcomes_are_continuous_in_rho_across_zero() -> None:
    # the common term switches from sqrt(rho) z to a multiple of the row
    # mean of eps at rho = 0; both vanish there, so on the same draws the
    # outcomes on either side of 0 must agree
    mu = np.array([1.0, -1.0, 0.5])
    a = sample_potential_outcomes(mu, 2.0, 0.0, 10_000, rng(11))
    b = sample_potential_outcomes(mu, 2.0, -1e-12, 10_000, rng(11))
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)


def test_negative_rho_covariance_and_bound() -> None:
    mu = np.zeros(4)
    y = sample_potential_outcomes(mu, 1.0, -0.2, 200_000, rng(5))
    cov = np.cov(y, rowvar=False)
    assert cov[0, 1] == pytest.approx(-0.2, abs=0.02)
    with pytest.raises(ConfigError, match=r"-1/\(m-1\)"):
        sample_potential_outcomes(mu, 1.0, -0.5, 10, rng())
    assert rho_lower_bound(4) == pytest.approx(-1.0 / 3.0)


def test_outcomes_covariance_oracle_below_zero_rho() -> None:
    # m = 30 near the bound -1/29: every entry of the sample covariance, and
    # the variance of the row sum, sigma^2 m (1 + (m-1) rho), along the
    # direction in which the bound makes the covariance singular
    m, sigma, rho, n = 30, 10.0, -0.03, 200_000
    y = sample_potential_outcomes(np.zeros(m), sigma, rho, n, rng(17))
    target = sigma**2 * ((1.0 - rho) * np.eye(m) + rho * np.ones((m, m)))
    # sd of a sample covariance entry: sqrt((s_jj s_kk + s_jk^2) / n)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    assert np.all(np.abs(np.cov(y, rowvar=False) - target) < 5 * se)
    row_sum_var = sigma**2 * m * (1.0 + (m - 1) * rho)
    assert y.sum(axis=1).var() == pytest.approx(row_sum_var, rel=5 * math.sqrt(2.0 / n))


@pytest.mark.parametrize("m", [2, 3, 1000])
def test_rho_at_its_lower_bound_gives_finite_outcomes(m) -> None:
    rho = rho_lower_bound(m)
    y = sample_potential_outcomes(np.arange(m, dtype=float), 1.5, rho, 50, rng(m))
    assert np.all(np.isfinite(y))
    cfg = SimConfig(m=m, sigma=1.5, rho=rho, dist=NormalMeans(0.0, 1.0), sigma_eps=0.2,
                    n_individuals=50, n_replications=3, seed=m)
    assert all(math.isfinite(g) for g in simulate_gain(cfg).per_replication_gains)


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


def reference_replicate(cfg: SimConfig, rep: int, width: int | None = None) -> tuple[float, float]:
    """One replication of one config, drawing everything itself at `width`
    arms (cfg.m by default) and keeping the first cfg.m: the per-config
    kernel that the batched simulate_gain replaced, kept as its reference."""
    rng = stream(cfg.seed, rep)
    n, m, rho = cfg.n_individuals, cfg.m, cfg.rho
    width = m if width is None else width
    if isinstance(cfg.dist, FixedMeans):
        mu = cfg.dist.sample(m, rng)
    else:
        mu = cfg.dist.sample(width, rng)[:m]
    z = rng.standard_normal((n, 1))
    eps = rng.standard_normal((n, width))[:, :m]
    if rho >= 0:
        common = math.sqrt(rho) * z
    else:
        scale = math.sqrt(1.0 + (m - 1) * rho) - math.sqrt(1.0 - rho)
        common = scale * eps.mean(axis=1, keepdims=True)
    y = mu + cfg.sigma * (math.sqrt(1.0 - rho) * eps + common)
    yhat = y + cfg.sigma_eps * rng.standard_normal((n, width))[:, :m]
    picks = np.argmax(yhat, axis=1)
    v_p = float(y[np.arange(n), picks].mean())
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
    both sides of 0 within a batch."""
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
    # writes its outcomes over the shared draws; the rho < 0 ones take the
    # row mean of eps from the draws and write into scratch
    spike_slab, fixed = [], []
    for rho in (0.3, -0.1):
        for pi in (0.2, 0.9):
            spike_slab.append(SimConfig(m=5, sigma=2.0, rho=rho,
                                        dist=SpikeSlabMeans(pi, 0.0, 3.0), sigma_eps=0.4, **base))
        for mu in ((1.0, 2.0, 0.5, 1.5, 1.2), (0.0, 0.1, 0.2, 0.3, 0.4)):
            fixed.append(SimConfig(m=5, sigma=0.7, rho=rho, dist=FixedMeans(mu), **base))
    return [normal, spike_slab, fixed]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_batched_kernel_matches_per_config_reference_bit_for_bit(n_jobs) -> None:
    # Every config is compared with the reference drawn at its batch's
    # width. This also pins the sigma_eps = 0 fast path: the fixed-means
    # batch has sigma_eps = 0 throughout, which skips the noise draw, and
    # the normal one (m from 2 to 30) is mixed, which draws it, while
    # reference_replicate always draws the noise.
    for batch in layout_grid():
        width = max(cfg.m for cfg in batch)
        results = simulate_gain(batch, n_jobs=n_jobs)
        assert len(results) == len(batch)
        for cfg, result in zip(batch, results):
            assert result.per_replication_gains == reference_gains(cfg, width), cfg


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
    standard_normal call."""

    def __init__(self, rng: np.random.Generator, sizes: list) -> None:
        self._rng, self._sizes = rng, sizes

    def standard_normal(self, size=None):
        self._sizes.append(size)
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("sigma_eps, n_by_m_draws", [
    ((0.0,), 1), ((0.0, 0.0), 1), ((0.5,), 2), ((0.0, 0.5), 2), ((0.5, 0.0), 2),
])
def test_prediction_noise_is_drawn_only_when_some_config_needs_it(
    monkeypatch, sigma_eps, n_by_m_draws
) -> None:
    """Each replication draws eps, n x m, and the n x m prediction noise only
    if some config in the layout has sigma_eps > 0; the results keep the bits
    of the reference, which always draws the noise."""
    sizes: list = []
    monkeypatch.setattr(simulate, "stream", lambda *key: CountingGenerator(stream(*key), sizes))
    n, m, reps = 50, 3, 4
    cfgs = [SimConfig(m=m, sigma=1.0 + k, rho=0.2 - 0.3 * k, dist=NormalMeans(0.0, 1.0),
                      sigma_eps=e, n_individuals=n, n_replications=reps)
            for k, e in enumerate(sigma_eps)]
    results = simulate_gain(cfgs)
    assert sizes.count((n, m)) == n_by_m_draws * reps
    for cfg, result in zip(cfgs, results):
        assert result.per_replication_gains == reference_gains(cfg), cfg


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
