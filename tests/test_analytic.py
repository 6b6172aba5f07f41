import math
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from persgain.analytic import (
    TwoArmParams,
    dgain_drho,
    dgain_dsigma,
    expected_gain_over_means,
    gain_two_arm,
)
from persgain.errors import ConfigError

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Frozen oracle values, computed before implementation with mpmath (40 digit)
# quadrature and cross-checked by direct Monte Carlo:
#   E[max(X,0)] with X ~ N(-1, 2) via quad of x*N(x;-1,2) on [0, inf)
#   E_d[gain(|d|)] with d ~ N(0, 2), sigma=1, rho=0 via quad of
#     gain(d) * 2 * N(d; 0, 2) on [0, inf)
GAIN_0_1_1_0 = 0.19964122837424567
MEAN_GAIN_1_0_S1 = 0.23369497725510907


def effective_scale(sigma: float, rho: float) -> float:
    """Scale v = sigma * sqrt(2 * (1 - rho)) of the between-arm difference.

    Zero exactly when sigma == 0 or rho == 1.
    """
    return sigma * math.sqrt(2.0 * (1.0 - rho))


def test_effective_scale() -> None:
    assert effective_scale(1.0, 0.0) == pytest.approx(math.sqrt(2.0))
    assert effective_scale(0.0, 0.3) == 0.0
    assert effective_scale(2.0, 1.0) == 0.0
    assert effective_scale(1.0, -1.0) == pytest.approx(2.0)


def test_gain_equal_means() -> None:
    # d = 0 collapses the rectified mean to v * phi(0) = sigma * sqrt((1-rho)/pi)
    g = gain_two_arm(TwoArmParams(30.0, 30.0, 1.0, 0.0))
    assert g == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert g == pytest.approx(math.sqrt(2.0) / SQRT_2PI, rel=1e-14)


def test_gain_identical_arms_is_zero() -> None:
    assert gain_two_arm(TwoArmParams(20.0, 30.0, 1.0, 1.0)) == 0.0
    assert gain_two_arm(TwoArmParams(20.0, 30.0, 0.0, 0.5)) == 0.0


def test_gain_matches_rectified_normal_oracle() -> None:
    assert gain_two_arm(TwoArmParams(0.0, 1.0, 1.0, 0.0)) == pytest.approx(
        GAIN_0_1_1_0, abs=1e-12
    )


def test_gain_label_symmetry_and_translation() -> None:
    # keep d/v <= 8 so the gain is positive in floats, not just in theory
    rng = np.random.default_rng(42)
    for _ in range(100):
        sigma = rng.uniform(0.1, 5.0)
        rho = rng.uniform(-0.99, 0.99)
        mu_a = rng.normal(0, 10)
        mu_b = mu_a + rng.choice([-1, 1]) * rng.uniform(0.0, 8.0) * effective_scale(sigma, rho)
        c = rng.normal(0, 50)
        g = gain_two_arm(TwoArmParams(mu_a, mu_b, sigma, rho))
        assert g > 0
        assert gain_two_arm(TwoArmParams(mu_b, mu_a, sigma, rho)) == g
        shifted = gain_two_arm(TwoArmParams(mu_a + c, mu_b + c, sigma, rho))
        assert shifted == pytest.approx(g, rel=1e-9)


def test_gain_strictly_increasing_in_sigma() -> None:
    sigmas = np.arange(0.1, 5.01, 0.1)
    gains = [gain_two_arm(TwoArmParams(0.0, 1.0, s, 0.3)) for s in sigmas]
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert all(dgain_dsigma(TwoArmParams(0.0, 1.0, s, 0.3)) > 0 for s in sigmas)


def test_gain_strictly_decreasing_in_rho() -> None:
    rhos = np.linspace(-0.9, 0.99, 40)
    gains = [gain_two_arm(TwoArmParams(0.0, 1.0, 1.0, r)) for r in rhos]
    assert all(b < a for a, b in zip(gains, gains[1:]))
    assert all(dgain_drho(TwoArmParams(0.0, 1.0, 1.0, r)) < 0 for r in rhos)


def test_derivative_spot_values() -> None:
    assert dgain_dsigma(TwoArmParams(0.0, 0.0, 1.0, 0.0)) == pytest.approx(
        math.sqrt(2.0) / SQRT_2PI, rel=1e-14
    )
    assert dgain_drho(TwoArmParams(0.0, 0.0, 1.0, 0.5)) == pytest.approx(
        -1.0 / SQRT_2PI, rel=1e-14
    )


def _fd_sigma(p: TwoArmParams, h: float = 1e-6) -> float:
    up = gain_two_arm(TwoArmParams(p.mu_a, p.mu_b, p.sigma + h, p.rho))
    dn = gain_two_arm(TwoArmParams(p.mu_a, p.mu_b, p.sigma - h, p.rho))
    return (up - dn) / (2 * h)


def _fd_rho(p: TwoArmParams, h: float = 1e-6) -> float:
    up = gain_two_arm(TwoArmParams(p.mu_a, p.mu_b, p.sigma, p.rho + h))
    dn = gain_two_arm(TwoArmParams(p.mu_a, p.mu_b, p.sigma, p.rho - h))
    return (up - dn) / (2 * h)


def test_derivatives_match_central_differences() -> None:
    # sample d/v <= 6 so phi(d/v) stays well away from underflow
    rng = np.random.default_rng(7)
    for _ in range(100):
        sigma = rng.uniform(0.2, 5.0)
        rho = rng.uniform(-0.95, 0.95)
        v = effective_scale(sigma, rho)
        d = rng.uniform(0.0, 6.0) * v
        p = TwoArmParams(0.0, d, sigma, rho)
        assert dgain_dsigma(p) == pytest.approx(_fd_sigma(p), rel=1e-6)
        assert dgain_drho(p) == pytest.approx(_fd_rho(p), rel=1e-6)


def test_derivatives_reject_boundary() -> None:
    with pytest.raises(ConfigError):
        dgain_dsigma(TwoArmParams(0.0, 1.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        dgain_drho(TwoArmParams(0.0, 1.0, 1.0, 1.0))


def test_params_validation() -> None:
    with pytest.raises(ConfigError):
        TwoArmParams(0.0, 1.0, -0.1, 0.0)
    with pytest.raises(ConfigError):
        TwoArmParams(0.0, 1.0, 1.0, 1.5)
    with pytest.raises(ConfigError):
        TwoArmParams(math.nan, 1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        TwoArmParams(0.0, math.inf, 1.0, 0.0)


def test_expected_gain_degenerate_cases() -> None:
    assert expected_gain_over_means(1.0, 1.0, 123.0) == 0.0
    assert expected_gain_over_means(0.0, 0.3, 0.0) == 0.0
    # s = 0 pins d at 0, so the mean gain is the equal-means gain
    equal_means = 1.0 / math.sqrt(math.pi)
    assert expected_gain_over_means(1.0, 0.0, 0.0) == pytest.approx(equal_means, rel=1e-14)


def test_expected_gain_quadrature_matches_oracle() -> None:
    assert expected_gain_over_means(1.0, 0.0, 1.0) == pytest.approx(MEAN_GAIN_1_0_S1, abs=1e-15)


def test_expected_gain_mc_agrees_with_quadrature() -> None:
    # Monte Carlo straight from the model: arm means ~ N(0, s^2), then an
    # individual's two outcomes with correlation rho; the gain is
    # E[max(Y_a, Y_b)] - E[max(mu_a, mu_b)]
    sigma, rho, s, n = 1.3, 0.2, 0.8, 1_000_000
    rng = np.random.default_rng(11)
    mu = s * rng.standard_normal((n, 2))
    shared = rng.standard_normal((n, 1))
    y = mu + sigma * (math.sqrt(rho) * shared + math.sqrt(1.0 - rho) * rng.standard_normal((n, 2)))
    gains = y.max(axis=1) - mu.max(axis=1)
    se = gains.std(ddof=1) / math.sqrt(n)
    assert abs(gains.mean() - expected_gain_over_means(sigma, rho, s)) < 4 * se


def test_expected_gain_decreasing_in_s() -> None:
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 1e3, 1e6]
    vals = [expected_gain_over_means(1.0, 0.0, s) for s in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0  # no cancellation to zero when s dwarfs sigma


def test_expected_gain_validation() -> None:
    with pytest.raises(ConfigError):
        expected_gain_over_means(1.0, 0.0, -1.0)
    with pytest.raises(ConfigError):
        expected_gain_over_means(-1.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        expected_gain_over_means(1.0, 1.5, 1.0)
    with pytest.raises(ConfigError):
        expected_gain_over_means(1.0, 0.0, math.inf)


def test_importing_the_cli_leaves_scipy_unloaded() -> None:
    # numpy is the only dependency, and only the commands that build arrays
    # load it: importing the CLI loads neither numpy nor scipy
    code = "import sys, persgain.cli; sys.exit('scipy' in sys.modules or 'numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def _mean_gain_50_digits(sigma: float, rho: float, s: float) -> Decimal:
    # the non-cancelling form c / (sqrt(s^2 + c) + s), c = sigma^2 (1 - rho),
    # in 50 significant digits; Decimal's exponent range holds every square
    with localcontext() as ctx:
        ctx.prec = 50
        c = Decimal(sigma) ** 2 * (1 - Decimal(rho))
        if c == 0:
            return Decimal(0)
        return c / ((Decimal(s) ** 2 + c).sqrt() + Decimal(s)) / PI_50.sqrt()


LOG_GRID = [10.0 ** k for k in range(-150, 301, 10)] + [1e154]


@pytest.mark.parametrize("rho", [-1.0, 0.0, 0.1, 0.9])
def test_expected_gain_within_8_ulp_of_a_50_digit_reference(rho: float) -> None:
    # s^2 + sigma^2 (1 - rho) leaves the float range at either end of the
    # grid, e.g. (sigma, s) = (1e154, 1e154), (1e200, 1e200) and (1, 1e300)
    for sigma in LOG_GRID:
        for s in LOG_GRID + [0.0]:
            want = _mean_gain_50_digits(sigma, rho, s)
            got = expected_gain_over_means(sigma, rho, s)
            assert abs(Decimal(got) - want) <= 8 * Decimal(math.ulp(float(want))), (sigma, s)


def test_gain_two_arm_with_a_gap_past_the_largest_float_is_zero() -> None:
    # d = 2e308 overflows; the gain is E[max(0, D - d)] for D ~ N(0, 1.8)
    assert gain_two_arm(TwoArmParams(1e308, -1e308, 1.0, 0.1)) == 0.0


def test_gain_two_arm_with_a_scale_past_the_largest_float_is_finite() -> None:
    # v = 2e308 overflows; with d = 1 the gain is v / sqrt(2 pi) - 1 / 2,
    # which is v / sqrt(2 pi) in double precision
    got = gain_two_arm(TwoArmParams(1.0, 2.0, 1e308, -1.0))
    assert got == pytest.approx(1e308 * (2.0 / SQRT_2PI), rel=1e-15)


def test_gain_two_arm_keeps_the_unscaled_formulas_bits() -> None:
    rng = np.random.default_rng(5)
    draws = zip(rng.normal(0, 3, 500), rng.normal(0, 3, 500), rng.exponential(2, 500),
                rng.uniform(-1, 1, 500))
    for mu_a, mu_b, sigma, rho in draws:
        p = TwoArmParams(float(mu_a), float(mu_b), float(sigma), float(rho))
        d, v = p.gap, effective_scale(p.sigma, p.rho)
        z = d / v
        if z > 30:  # past this the terms reach the subnormal range, where halving rounds
            continue
        phi = math.exp(-0.5 * z * z) / SQRT_2PI
        assert gain_two_arm(p) == -d * 0.5 * math.erfc(z / math.sqrt(2.0)) + v * phi
