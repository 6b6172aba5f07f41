"""Closed-form gain from personalizing between two treatment arms.

With per-arm average responses mu_a, mu_b, within-arm heterogeneity sigma
and cross-arm correlation rho, the value of assigning each individual their
better arm (rather than giving everyone the better arm on average) is the
mean of a rectified normal:

    gain = -d * (1 - Phi(d / v)) + v * phi(d / v),   d = |mu_b - mu_a|,
    v = sigma * sqrt(2 * (1 - rho))

where Phi/phi are the standard normal CDF/pdf. `v` is the scale of the
individual-level difference between arms; when it is zero the two arms are
identical up to a constant shift and the gain vanishes.

The upper tail 1 - Phi(z) is erfc(z / sqrt(2)) / 2, which keeps full
relative precision for large gaps, and phi is exp(-x^2/2)/sqrt(2*pi).
Averaged over arm means drawn i.i.d. N(M, s^2) the gain has a closed form
too (see expected_gain_over_means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "TwoArmParams",
    "effective_scale",
    "gain_two_arm",
    "dgain_dsigma",
    "dgain_drho",
    "expected_gain_over_means",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def _check_moments(sigma: float, rho: float) -> None:
    _check_finite(sigma=sigma, rho=rho)
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if not -1.0 <= rho <= 1.0:
        raise ConfigError(f"rho must lie in [-1, 1], got {rho}")


@dataclass(frozen=True)
class TwoArmParams:
    """Average responses of two arms plus the heterogeneity moments."""

    mu_a: float
    mu_b: float
    sigma: float
    rho: float

    def __post_init__(self) -> None:
        _check_finite(mu_a=self.mu_a, mu_b=self.mu_b)
        _check_moments(self.sigma, self.rho)

    @property
    def gap(self) -> float:
        return abs(self.mu_b - self.mu_a)


def effective_scale(sigma: float, rho: float) -> float:
    """Scale v = sigma * sqrt(2 * (1 - rho)) of the between-arm difference.

    Zero exactly when sigma == 0 or rho == 1.
    """
    _check_moments(sigma, rho)
    return sigma * math.sqrt(2.0 * (1.0 - rho))


def gain_two_arm(p: TwoArmParams) -> float:
    """Expected per-individual gain of arm-level personalization over the
    better uniform arm. Always >= 0; symmetric in arm labels; 0 when v = 0.
    Runs on d / 2 and v / 2, doubling the result, so d or v past the largest
    float still gives the gain; halving is exact outside the subnormal range.
    """
    half_v = p.sigma * math.sqrt(0.5 * (1.0 - p.rho))  # sqrt(2 (1 - rho)) / 2
    if half_v == 0.0:
        return 0.0
    half_d = abs(0.5 * p.mu_b - 0.5 * p.mu_a)
    z = half_d / half_v
    return 2.0 * (-half_d * 0.5 * math.erfc(z / math.sqrt(2.0)) + half_v * _phi(z))


def dgain_dsigma(p: TwoArmParams) -> float:
    """Partial derivative of the gain in sigma: sqrt(2(1-rho)) * phi(d/v).

    Strictly positive; requires sigma > 0 and rho < 1.
    """
    t = math.sqrt(2.0 * (1.0 - p.rho))
    v = p.sigma * t
    if v == 0.0:
        raise ConfigError("derivative undefined at v = 0 (sigma = 0 or rho = 1)")
    return t * _phi(p.gap / v)


def dgain_drho(p: TwoArmParams) -> float:
    """Partial derivative of the gain in rho: -sigma * phi(d/v) / sqrt(2(1-rho)).

    Strictly negative; requires sigma > 0 and rho < 1.
    """
    t = math.sqrt(2.0 * (1.0 - p.rho))
    v = p.sigma * t
    if v == 0.0:
        raise ConfigError("derivative undefined at v = 0 (sigma = 0 or rho = 1)")
    return -p.sigma * _phi(p.gap / v) / t


def expected_gain_over_means(sigma: float, rho: float, s: float) -> float:
    """Gain averaged over arm means drawn i.i.d. N(M, s^2), exactly:

        (sqrt(s^2 + sigma^2 (1 - rho)) - s) / sqrt(pi)

    The gain is E[max(Y_a, Y_b)] - max(mu_a, mu_b), and E[max(A, B)] for a
    jointly normal pair is the mean of A and B plus SD(A - B) / sqrt(2 pi).
    Over the draws of the means, Y_a - Y_b has variance 2 s^2 + v^2 and
    mu_a - mu_b has variance 2 s^2, so M cancels. The difference of square
    roots is evaluated as t (t / (hypot(s, t) + s)), t = sigma sqrt(1 - rho),
    on s / 4 and t / 4: it does not cancel when s dwarfs sigma, and it
    overflows or underflows only where the result does.
    """
    _check_finite(s=s)
    _check_moments(sigma, rho)
    if s < 0:
        raise ConfigError(f"s must be >= 0, got {s}")
    t4 = 0.25 * sigma * math.sqrt(1.0 - rho)  # t / 4
    if t4 == 0.0:
        return 0.0
    s4 = 0.25 * s
    return t4 * (t4 / (math.hypot(s4, t4) + s4)) * (4.0 / math.sqrt(math.pi))
