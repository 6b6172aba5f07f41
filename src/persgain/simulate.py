"""Monte Carlo gain from personalizing over m treatment arms.

Each replication draws per-arm average responses mu from a chosen
distribution, then an n x m matrix of potential outcomes whose rows are
i.i.d. N(mu, Sigma) with the equicorrelated covariance
Sigma = sigma^2 [(1-rho) I + rho J]. Whatever the sign of rho, the outcomes
come from the same standard normals, a column z (n x 1) and a matrix eps
(n x m): row i is mu + sigma (sqrt(1-rho) eps_i + c_i 1), where
the term c_i common to the row's arms is sqrt(rho) z_i for rho >= 0 and
(sqrt(1+(m-1)rho) - sqrt(1-rho)) times the mean of eps_i for rho < 0.
Either way the row's component along the all-ones vector has variance
sigma^2 (1+(m-1)rho) and every orthogonal one sigma^2 (1-rho), the
eigenvalues of Sigma, so both forms are exact. The personalized policy
picks each row's argmax; the uniform benchmark picks the single arm with
the best column mean. With sigma_eps > 0 both selections are made on noisy
predictions Yhat = Y + sigma_eps * noise but are always scored on the true
Y, so the gain can go negative when predictions are poor.

Replication r of a run with seed k uses the generator derived from
SeedSequence(k, spawn_key=(r,)). Streams never depend on execution order,
so any parallelism degree yields bit-identical results, and two runs that
differ only in (sigma, rho, sigma_eps, dist parameters) consume identical
underlying draws, so sweeps over those knobs are common-random-number
coupled by construction. A sigma_eps = 0 config is scored on Y itself,
which gives the bits Y + 0.0 * noise would.

`simulate_gain` also runs a whole grid of configs as one batch, which is
one draw layout: its configs agree on seed, n_individuals, n_replications
and the kind of mean distribution, whatever their m, and a batch that
mixes layouts raises ConfigError before anything is drawn. Each
replication draws once for all its configs, at the batch's largest m, its
width W, in `sample_potential_outcomes`, which states the draws' order; a
config with m arms takes the first m of each. Each config scales the
shared normals with the same floating-point operations a run of it alone
at width W performs. So the widest config is bit-identical to running it
alone, every config sees the same normals whatever its parameters, and a
grid of K configs costs one set of draws plus K cheap rescalings
(Glasserman, Monte Carlo Methods in Financial Engineering, 2003, section
4.2). A narrower config's results are those of the width-W draws
truncated to its m, which differ from a lone run of it within Monte Carlo
error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from ._util import check_addressable, fields_of, integer, read_fields, stream, typed
from .errors import ConfigError, DomainError, InternalError

__all__ = [
    "FixedMeans",
    "NormalMeans",
    "SpikeSlabMeans",
    "AvgResponseDist",
    "dist_from_config",
    "rho_lower_bound",
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

_DISTS = {"fixed": FixedMeans, "normal": NormalMeans, "spike_slab": SpikeSlabMeans}


def dist_from_config(doc: dict) -> AvgResponseDist:
    """Build a distribution from its config form: a "kind" (fixed, normal or
    spike_slab) plus that kind's fields."""
    rest = dict(doc) if isinstance(doc, dict) else {}
    kind = rest.pop("kind", None)
    cls = _DISTS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"dist must be an object with a kind in {sorted(_DISTS)}, got {doc!r}")
    return cls(**read_fields(fields_of(cls), rest, "dist"))


# --------------------------------------------------------------------------
# potential outcomes


def rho_lower_bound(m: int) -> float:
    """Smallest admissible rho for m arms: -1/(m-1), where the
    equicorrelation matrix turns singular, plus a 1e-9 margin that keeps
    1 + (m-1) rho, the variance of the arms' common term, above 0."""
    return -1.0 / (m - 1) + 1e-9


def _outcomes(
    z: np.ndarray, eps: np.ndarray, mu: np.ndarray, sigma: float, rho: float, out: np.ndarray
) -> np.ndarray:
    """The outcome matrix mu + sigma (sqrt(1-rho) eps + c 1) of (mu, sigma,
    rho), with c the arms' common term of the module docstring, from the
    draws z and eps (n x len(mu), possibly a view of the first columns of a
    wider draw), written into `out` (which may be eps). The row mean of eps
    is taken before eps is overwritten, and the in-place steps swap the
    operands of an addition or multiplication at most, so the result is the
    same bits as the expression."""
    if rho < 0:
        m = eps.shape[1]
        scale = math.sqrt(1.0 + (m - 1) * rho) - math.sqrt(1.0 - rho)
        common = scale * eps.mean(axis=1, keepdims=True)
    out = np.multiply(eps, math.sqrt(1.0 - rho), out=out)
    out += math.sqrt(rho) * z if rho >= 0 else common
    out *= sigma
    out += mu
    return out


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
    # Not a field: every replication draws per-cell noise. perfbench/tracer.py
    # reads cfg.noise_mode to count the normals drawn; the constant goes when
    # the benchmark reads spans from inside the package (ROADMAP item 3).
    noise_mode = "per_cell"

    def __post_init__(self) -> None:
        for key in ("m", "n_individuals", "n_replications", "seed"):
            object.__setattr__(self, key, typed(integer, getattr(self, key), key))
        if self.m < 2:
            raise ConfigError(f"m must be an integer >= 2, got {self.m}")
        if self.n_individuals < 1 or self.n_replications < 1:
            raise ConfigError("n_individuals and n_replications must be >= 1")
        check_addressable("an n_individuals x m outcome matrix", self.n_individuals, self.m)
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.sigma_eps < 0 or not math.isfinite(self.sigma_eps):
            raise ConfigError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps}")
        bound = rho_lower_bound(self.m)
        if not bound <= self.rho <= 1.0:
            raise ConfigError(
                f"rho = {self.rho} is outside [-1/(m-1) + 1e-9, 1] = [{bound}, 1] for "
                f"m = {self.m}; below -1/(m-1) the equicorrelation matrix is not PSD")
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


def _layout(cfg: SimConfig) -> tuple:
    """What fixes the normals a replication draws, up to their width. A
    `simulate_gain` batch is one layout, drawn at its largest m; a batch
    whose configs differ on it raises ConfigError."""
    return (cfg.seed, cfg.n_individuals, cfg.n_replications, type(cfg.dist).__name__)


def _score(y: np.ndarray, yhat: np.ndarray) -> tuple[float, float]:
    """(v_p, v_u): the mean true outcome of each row's predicted best arm,
    and of the arm with the best mean prediction."""
    picks = np.argmax(yhat, axis=1)  # ties: lowest arm index
    v_p = float(y[np.arange(y.shape[0]), picks].mean())
    v_u = float(y[:, int(np.argmax(yhat.mean(axis=0)))].mean())
    if not (math.isfinite(v_p) and math.isfinite(v_u)):
        raise InternalError(f"non-finite replication values: v_p={v_p}, v_u={v_u}")
    return v_p, v_u


def sample_potential_outcomes(
    cfg: SimConfig, rep: int, *more: SimConfig
) -> tuple[np.ndarray | None, ...]:
    """Every draw of replication `rep` of a batch: cfg, its widest config,
    and the configs in `more`, which share cfg's draw layout. Returns
    (mu, z, eps, noise, *more_mu), drawn in this order: from
    stream(cfg.seed, rep), the W = cfg.m means mu, a standard-normal column
    z (n x 1), a matrix eps (n x W) and, only if some config has
    sigma_eps > 0, the prediction noise (n x W), else None; as the stream's
    last draw, skipping it moves no other. Then, for each config in `more`,
    the first m of W means drawn from a fresh stream(cfg.seed, rep), as mu
    was (a fixed-means config has m = W; `simulate_gain` checks it).
    """
    n, width = cfg.n_individuals, cfg.m
    rng = stream(cfg.seed, rep)
    mu = cfg.dist.sample(width, rng)
    z, eps = rng.standard_normal((n, 1)), rng.standard_normal((n, width))
    noise = rng.standard_normal((n, width)) if any(p.sigma_eps for p in (cfg, *more)) else None
    return (mu, z, eps, noise,
            *(point.dist.sample(width, stream(cfg.seed, rep))[: point.m] for point in more))


def _replicate(cfg: SimConfig, rep: int, *more: SimConfig) -> list[tuple[float, float]]:
    """Replication `rep` of one batch, from one `sample_potential_outcomes`
    call: (v_p, v_u) for cfg, its widest config, and each config in `more`,
    in that order. A config with m arms takes the first m columns of eps
    and of the noise; one with sigma_eps = 0 is scored on Y itself. The
    configs in `more` write their Y, and their Yhat if they have one, into
    two contiguous scratch arrays; cfg is scored last and writes them over
    the draws themselves.
    """
    mu, z, eps, noise, *more_mu = sample_potential_outcomes(cfg, rep, *more)
    n = cfg.n_individuals

    def value(
        point: SimConfig, mu: np.ndarray, y: np.ndarray, yhat: np.ndarray | None
    ) -> tuple[float, float]:
        """(v_p, v_u) of point, its Y written into y and its Yhat, if it has
        one, into yhat."""
        m = point.m
        y = _outcomes(z, eps[:, :m], mu, point.sigma, point.rho, out=y)
        if not point.sigma_eps:
            return _score(y, y)
        # Yhat = Y + sigma_eps * noise, computed as noise * sigma_eps + Y
        np.multiply(noise[:, :m], point.sigma_eps, out=yhat)
        yhat += y
        return _score(y, yhat)

    # the configs in `more` write into the first n * m cells of these, so
    # that their Y and Yhat are contiguous n x m arrays. One pair per
    # replication, not per config: per-config arrays gave the same bits, but
    # on a 2-core box an elasticity run (five m = 20 configs) then took 402k
    # minor page faults, not 163k, 1.0 s of system time, not 0.4-0.5 s, and
    # the profile_elasticity benchmark 22% more wall time (3.50 s, not 2.87 s)
    size = n * max((point.m for point in more), default=0)
    y_cells = np.empty(size)
    yhat_cells = np.empty(size if any(point.sigma_eps for point in more) else 0)
    values = []
    for point, point_mu in zip(more, more_mu):
        shape, cells = (n, point.m), n * point.m
        yhat = yhat_cells[:cells].reshape(shape) if point.sigma_eps else None
        values.append(value(point, point_mu, y_cells[:cells].reshape(shape), yhat))
    return [value(cfg, mu, eps, noise), *values]


def simulate_gain(
    cfg: SimConfig | Sequence[SimConfig], n_jobs: int = 1
) -> SimResult | list[SimResult]:
    """Run cfg.n_replications independent replications and aggregate. Given
    a sequence of configs instead, one SimResult per config, in order, from
    one batch whose configs share each replication's draws (see the module
    docstring): a config with the batch's largest m is bit-identical to
    running it alone. The configs must share one draw layout (`_layout`),
    and a fixed-means config must have the batch's largest m; a batch that
    breaks either rule raises ConfigError, naming the first config that
    does, before anything is drawn.

    n_jobs > 1 runs the replications on a thread pool; results are keyed
    by replication, so the output is identical for any n_jobs.
    """
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
    single = isinstance(cfg, SimConfig)
    cfgs = [cfg] if single else list(cfg)
    if not cfgs:
        return []
    # the widest config first: it fixes the width of the draws
    order = sorted(range(len(cfgs)), key=lambda index: -cfgs[index].m)
    widest, *rest = (cfgs[index] for index in order)
    for index, point in enumerate(cfgs):
        if _layout(point) != _layout(cfgs[0]):
            raise ConfigError(
                f"config {index} has draw layout {_layout(point)}, config 0 {_layout(cfgs[0])}: "
                "a batch takes one (seed, n_individuals, n_replications, kind of means)")
        if isinstance(point.dist, FixedMeans) and point.m != widest.m:
            raise ConfigError(
                f"config {index} has {point.m} fixed means, but its batch draws m = {widest.m} "
                "arms: a fixed-means batch takes one m")
    reps = range(widest.n_replications)
    if n_jobs == 1 or len(reps) == 1:
        done = [_replicate(widest, rep, *rest) for rep in reps]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            done = list(pool.map(lambda rep: _replicate(widest, rep, *rest), reps))
    # done holds one row of pairs per replication; its columns follow order
    pairs = dict(zip(order, zip(*done)))
    results = [_summarize(point, pairs[index]) for index, point in enumerate(cfgs)]
    return results[0] if single else results


def _summarize(cfg: SimConfig, values: Sequence[tuple[float, float]]) -> SimResult:
    v_p = np.array([v[0] for v in values])
    v_u = np.array([v[1] for v in values])
    gains = v_p - v_u
    if cfg.sigma_eps == 0.0 and np.any(gains < 0):
        raise InternalError("negative per-replication gain with sigma_eps = 0")
    k = math.frexp(float(np.abs(gains).max()))[1]  # gains / 2^k lie in (-1, 1): squares stay finite
    se = (math.ldexp(float(np.ldexp(gains, -k).std(ddof=1) / math.sqrt(len(gains))), k)
          if len(gains) > 1 else 0.0)
    return SimResult(
        gain_mean=float(v_p.mean() - v_u.mean()),
        gain_se=se,
        v_personalized_mean=float(v_p.mean()),
        v_uniform_mean=float(v_u.mean()),
        per_replication_gains=tuple(float(g) for g in gains),
    )


def sweep_arms(cfg: SimConfig, m_values: Sequence[int], n_jobs: int = 1) -> list[dict]:
    """cfg at each arm count in m_values, one row per value, from one
    `simulate_gain` batch.

    The points differ only in m, so they are one draw layout, as a batch
    must be: each replication draws once, at the largest m, and the point
    with m arms uses the first m means and the first m columns of those
    draws. The rows are common-random-number coupled across m, and the row
    for the largest m is bit-identical to running that point alone.
    """
    if len(m_values) == 0:
        raise ConfigError("m_values must be non-empty")
    points = [replace(cfg, m=int(m)) for m in m_values]
    rows = [{"m": point.m, **asdict(res)}
            for point, res in zip(points, simulate_gain(points, n_jobs=n_jobs))]
    for row in rows:
        del row["per_replication_gains"]
    return rows
