"""Monte Carlo gain from personalizing over m treatment arms.

Each replication draws per-arm average responses mu from a chosen
distribution, then an n x m matrix of potential outcomes whose rows are
i.i.d. N(mu, Sigma) with the equicorrelated covariance
Sigma = sigma^2 [(1-rho) I + rho J]. The personalized policy picks each
row's argmax; the uniform benchmark picks the single arm with the best
column mean. With sigma_eps > 0 both selections are made on noisy
predictions Yhat = Y + eps but are always scored on the true Y, so the
gain can go negative when predictions are poor.

Replication r of a run with seed k uses the generator derived from
SeedSequence(k, spawn_key=(r,)). Streams never depend on execution order,
so any parallelism degree yields bit-identical results, and two runs that
differ only in (sigma, rho, sigma_eps, dist parameters) consume identical
underlying draws, so sweeps over those knobs are common-random-number
coupled by construction. (The prediction-noise normals are drawn even when
sigma_eps = 0 for exactly this reason; adding 0.0 * noise leaves Y bit-for-bit
unchanged.)
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence, Union

import numpy as np

from ._util import stream, typed, typed_list
from .errors import ConfigError, DomainError, InternalError

__all__ = [
    "FixedMeans",
    "NormalMeans",
    "SpikeSlabMeans",
    "AvgResponseDist",
    "dist_from_config",
    "rho_lower_bound",
    "check_rho",
    "sample_mu",
    "sample_potential_outcomes",
    "SimConfig",
    "SimResult",
    "simulate_gain",
    "sweep_arms",
]


# --------------------------------------------------------------------------
# distributions of per-arm average responses


@dataclass(frozen=True)
class FixedMeans:
    """Deterministic vector of average responses, one entry per arm."""

    mu: tuple[float, ...]

    def __init__(self, mu: Sequence[float]) -> None:
        object.__setattr__(self, "mu", tuple(float(x) for x in mu))
        if not all(math.isfinite(x) for x in self.mu):
            raise DomainError("Fixed means must all be finite")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if len(self.mu) != m:
            raise ConfigError(
                f"Fixed means have length {len(self.mu)} but m = {m} arms were requested"
            )
        return np.asarray(self.mu, dtype=float)


@dataclass(frozen=True)
class NormalMeans:
    """Average responses drawn i.i.d. N(mean, s^2)."""

    mean: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.s)):
            raise DomainError("Normal means require finite (mean, s)")
        if self.s < 0:
            raise DomainError(f"s must be >= 0, got {self.s}")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.s * rng.standard_normal(m)


@dataclass(frozen=True)
class SpikeSlabMeans:
    """Each arm's average response is `mean` with probability pi_spike,
    else a fresh N(mean, s^2) draw. Resulting variance: (1 - pi_spike) * s^2."""

    pi_spike: float
    mean: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.pi_spike <= 1.0):
            raise DomainError(f"pi_spike must lie in [0, 1], got {self.pi_spike}")
        if not (math.isfinite(self.mean) and math.isfinite(self.s)):
            raise DomainError("SpikeSlab means require finite (mean, s)")
        if self.s < 0:
            raise DomainError(f"s must be >= 0, got {self.s}")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        # both arrays are always drawn so runs differing only in pi_spike
        # share the underlying randomness
        spike = rng.uniform(size=m) < self.pi_spike
        slab = self.mean + self.s * rng.standard_normal(m)
        return np.where(spike, self.mean, slab)


AvgResponseDist = Union[FixedMeans, NormalMeans, SpikeSlabMeans]

_DIST_KINDS = {"fixed", "normal", "spike_slab"}


def dist_from_config(doc: dict) -> AvgResponseDist:
    """Build a distribution from its config form: a "kind" (fixed, normal or
    spike_slab) plus that kind's fields."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("dist config must be an object with a 'kind' field")
    kind = doc["kind"]
    extra = set(doc) - {"kind", "mu", "mean", "s", "pi_spike"}
    if extra:
        raise ConfigError(f"dist config has unknown fields: {sorted(extra)}")
    mean = typed(float, doc.get("mean", 0.0), "dist mean")
    s = typed(float, doc.get("s", 0.0), "dist s")
    if kind == "fixed":
        if "mu" not in doc:
            raise ConfigError("fixed dist requires a 'mu' list")
        return FixedMeans(typed_list(float, doc["mu"], "dist mu"))
    if kind == "normal":
        return NormalMeans(mean, s)
    if kind == "spike_slab":
        if "pi_spike" not in doc:
            raise ConfigError("spike_slab dist requires 'pi_spike'")
        return SpikeSlabMeans(typed(float, doc["pi_spike"], "dist pi_spike"), mean, s)
    raise ConfigError(f"unknown dist kind {kind!r}; expected one of {sorted(_DIST_KINDS)}")


def sample_mu(dist: AvgResponseDist, m: int, rng: np.random.Generator) -> np.ndarray:
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    return dist.sample(m, rng)


# --------------------------------------------------------------------------
# potential outcomes


def rho_lower_bound(m: int) -> float:
    """Smallest admissible rho for m arms: -1/(m-1), where the
    equicorrelation matrix turns singular, plus a 1e-9 margin that keeps
    its Cholesky factor well defined."""
    return -1.0 / (m - 1) + 1e-9


def check_rho(rho: float, m: int) -> None:
    """The one rule for rho everywhere: rho_lower_bound(m) <= rho <= 1."""
    bound = rho_lower_bound(m)
    if not bound <= rho <= 1.0:
        raise ConfigError(
            f"rho = {rho} is outside [-1/(m-1) + 1e-9, 1] = [{bound}, 1] for m = {m}; "
            "below -1/(m-1) the equicorrelation matrix is not PSD"
        )


def sample_potential_outcomes(
    mu: np.ndarray,
    sigma: float,
    rho: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n x m matrix with rows i.i.d. N(mu, sigma^2 [(1-rho) I + rho J]).

    For rho >= 0 the one-factor form Y_i = mu + sigma (sqrt(rho) z_i 1 +
    sqrt(1-rho) eps_i) costs O(nm); negative rho falls back to a Cholesky
    factor of the full covariance.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu.shape[0]
    if mu.ndim != 1 or m < 2:
        raise DomainError("mu must be a vector with at least two entries")
    if sigma < 0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    check_rho(rho, m)
    if rho >= 0:
        z = rng.standard_normal((n, 1))
        eps = rng.standard_normal((n, m))
        return mu + sigma * (math.sqrt(rho) * z + math.sqrt(1.0 - rho) * eps)
    # factor the correlation matrix, not sigma^2 * corr: stays PD when
    # sigma = 0 and keeps the draws common across sigma grids
    corr = (1.0 - rho) * np.eye(m) + rho * np.ones((m, m))
    chol = np.linalg.cholesky(corr)
    e = rng.standard_normal((n, m))
    return mu + sigma * (e @ chol.T)


# --------------------------------------------------------------------------
# the simulation proper


@dataclass(frozen=True)
class SimConfig:
    m: int
    sigma: float
    rho: float
    dist: AvgResponseDist
    sigma_eps: float = 0.0
    n_individuals: int = 10_000
    n_replications: int = 200
    seed: int = 0
    noise_mode: Literal["per_cell", "per_individual"] = "per_cell"

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 2:
            raise ConfigError(f"m must be an integer >= 2, got {self.m}")
        if self.n_individuals < 1 or self.n_replications < 1:
            raise ConfigError("n_individuals and n_replications must be >= 1")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.sigma_eps < 0 or not math.isfinite(self.sigma_eps):
            raise ConfigError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps}")
        check_rho(self.rho, self.m)
        if self.noise_mode not in ("per_cell", "per_individual"):
            raise ConfigError(
                f"noise_mode must be 'per_cell' or 'per_individual', got {self.noise_mode!r}"
            )
        if isinstance(self.dist, FixedMeans) and len(self.dist.mu) != self.m:
            raise ConfigError(
                f"Fixed means have length {len(self.dist.mu)} but m = {self.m}"
            )


@dataclass(frozen=True)
class SimResult:
    gain_mean: float
    gain_se: float
    v_personalized_mean: float
    v_uniform_mean: float
    per_replication_gains: tuple[float, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "gain_mean": self.gain_mean,
            "gain_se": self.gain_se,
            "v_personalized_mean": self.v_personalized_mean,
            "v_uniform_mean": self.v_uniform_mean,
            "per_replication_gains": list(self.per_replication_gains),
        }


def _replicate(cfg: SimConfig, rep: int) -> tuple[float, float]:
    rng = stream(cfg.seed, rep)
    n = cfg.n_individuals
    mu = sample_mu(cfg.dist, cfg.m, rng)
    y = sample_potential_outcomes(mu, cfg.sigma, cfg.rho, n, rng)
    shape = (n, cfg.m) if cfg.noise_mode == "per_cell" else (n, 1)
    yhat = y + cfg.sigma_eps * rng.standard_normal(shape)
    picks = np.argmax(yhat, axis=1)  # ties: lowest arm index
    v_p = float(y[np.arange(n), picks].mean())
    v_u = float(y[:, int(np.argmax(yhat.mean(axis=0)))].mean())
    if not (math.isfinite(v_p) and math.isfinite(v_u)):
        raise InternalError(f"non-finite replication values: v_p={v_p}, v_u={v_u}")
    return v_p, v_u


def simulate_gain(cfg: SimConfig, n_jobs: int = 1) -> SimResult:
    """Run cfg.n_replications independent replications and aggregate.

    n_jobs > 1 runs replications on a thread pool; results are keyed by
    replication index, so the output is identical for any n_jobs.
    """
    reps = range(cfg.n_replications)
    if n_jobs is None or n_jobs < 1:
        n_jobs = 1
    if n_jobs == 1 or cfg.n_replications == 1:
        values = [_replicate(cfg, r) for r in reps]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            values = list(pool.map(lambda r: _replicate(cfg, r), reps))
    v_p = np.array([v[0] for v in values])
    v_u = np.array([v[1] for v in values])
    gains = v_p - v_u
    if cfg.sigma_eps == 0.0 and np.any(gains < 0):
        raise InternalError("negative per-replication gain with sigma_eps = 0")
    se = float(gains.std(ddof=1) / math.sqrt(len(gains))) if len(gains) > 1 else 0.0
    return SimResult(
        gain_mean=float(v_p.mean() - v_u.mean()),
        gain_se=se,
        v_personalized_mean=float(v_p.mean()),
        v_uniform_mean=float(v_u.mean()),
        per_replication_gains=tuple(float(g) for g in gains),
    )


def sweep_arms(cfg: SimConfig, m_values: Sequence[int], n_jobs: int = 1) -> list[dict]:
    """simulate_gain for each arm count in m_values, sharing cfg's base seed.

    Every grid point reuses the same replication streams (seed, spawn_key=(rep,)),
    so points differing only in parameters that leave array shapes unchanged are
    common-random-number coupled.
    """
    if len(m_values) == 0:
        raise ConfigError("m_values must be non-empty")
    rows = []
    for m in m_values:
        res = simulate_gain(replace(cfg, m=int(m)), n_jobs=n_jobs)
        rows.append(
            {
                "m": int(m),
                "gain_mean": res.gain_mean,
                "gain_se": res.gain_se,
                "v_personalized_mean": res.v_personalized_mean,
                "v_uniform_mean": res.v_uniform_mean,
            }
        )
    return rows
