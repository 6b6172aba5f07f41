"""Monte Carlo gain from personalizing over m treatment arms.

Each replication draws per-arm average responses mu from a chosen
distribution, then potential outcomes for n individuals: one column per
individual, i.i.d. N(mu, Sigma) over the m arms, with the equicorrelated
covariance Sigma = sigma^2 [(1-rho) I + rho J]. Whatever the sign of rho,
the outcomes come from the same standard normals, z_i and a column eps_i
of m per individual: column i is mu + sigma (sqrt(1-rho) eps_i + c_i 1),
where the term c_i common to individual i's arms is sqrt(rho) z_i for
rho >= 0 and (sqrt(1+(m-1)rho) - sqrt(1-rho)) times the mean of eps_i for
rho < 0. Either way the column's component along the all-ones vector has
variance sigma^2 (1+(m-1)rho) and every orthogonal one sigma^2 (1-rho),
the eigenvalues of Sigma, so both forms are exact. The kernel never
builds these outcomes; `outcomes` in tests/test_simulate.py states them
from the two parts the kernel scores. The personalized policy
gives each individual the arm of their column's max; the uniform
benchmark picks the single arm with the best mean over the individuals.
With sigma_eps > 0 both selections are made on noisy predictions
Yhat = Y + sigma_eps * noise but are always scored on the true Y, so the
gain can go negative when predictions are poor.

The kernel scores each config on Y' = mu + sigma sqrt(1-rho) eps, the
outcomes without the common term, and adds C, the common term's mean over
the individuals, to v_p and to v_u: a term common to all of an
individual's arms changes neither pick, so it adds C to both values. For
rho >= 0, C is sigma sqrt(rho) z_bar, and z_bar, the mean of n
independent standard normals, is N(0, 1/n): a replication draws one
standard normal zeta and takes z_bar = zeta / sqrt(n), never z itself.

No replication draws the noise. Cell by cell, Y' and its prediction
Yhat' = Y' + sigma_eps * noise are a normal pair, independent across cells
given mu, and both policies pick on Yhat' alone. So the kernel draws
Yhat' = mu + c eps with c = hypot(v, sigma_eps), v = sigma sqrt(1-rho),
picks on it, and scores each pick by E[Y' | Yhat'] = mu + k (Yhat' - mu),
k = (v/c)^2, and C by its conditional mean. That is conditional Monte
Carlo (Ross, Simulation, "Variance Reduction Techniques"; Asmussen &
Glynn, Stochastic Simulation, 2007, ch. V): the estimand is unchanged, the
estimator stays unbiased, and its variance is no larger (Rao-Blackwell).
With sigma_eps = 0, c = v and k = 1, so Yhat' is Y' and the values are
means of Y' itself.

Replication r of a run with seed k uses the generator derived from
SeedSequence(k, spawn_key=(r,)). Streams never depend on execution order,
so any parallelism degree yields bit-identical results, and two runs that
differ only in (sigma, rho, sigma_eps, dist parameters) consume identical
underlying draws, so sweeps over those knobs are common-random-number
coupled by construction.

`simulate_gain` also runs a whole grid of configs as one batch, which is
one draw layout: its configs agree on seed, n_individuals, n_replications
and the kind of mean distribution, whatever their m, and a batch that
mixes layouts raises ConfigError before anything is drawn. Each
replication draws once for all its configs, at the batch's largest m, its
width W, in `sample_potential_outcomes`, which states the draws' order:
the variates of W means, then zeta, then eps in blocks of individuals. A
config with m arms maps the same variates to its own means and keeps the
first m, and takes the first m arm rows of each block. Each config scales
the shared normals with the same floating-point operations a run of it
alone at width W performs. So the widest config is bit-identical to
running it alone, every config sees the same normals whatever its
parameters, and a grid of K configs costs one set of draws plus K cheap
rescalings (Glasserman, Monte Carlo Methods in Financial Engineering,
2003, section 4.2). A narrower config's results are those of the width-W
draws truncated to its m, which differ from a lone run of it within Monte
Carlo error.

A replication draws and scores its individuals in blocks of
B = max(1, BLOCK_CELLS // W), the last block shorter: each block's eps is
W x b, arm-major, one row of b normals per arm. Each config adds up,
block by block, the sum of its individuals' best predictions, each arm's
sum of predictions and, with sigma_eps > 0, each arm's count of
individuals whose best arm it is, counted on a boolean mark of the cells
that hold their column's max; its values come from those sums once the
last block is scored. Configs that differ in m alone, a group (a
`sweep_arms` grid, a sensitivity over m, each study of a counterfactual
over m), share predictions: the group writes them once, at its largest m,
and a member's are their first m rows, its arm sums the first m of theirs
and its best their running max, taken in row ranges by increasing m, so a
member costs no pass over its rows but its own hit count. A max is exact
and each row is summed alone, so every config keeps the bits of scoring
it on rows of its own. So each thread that runs replications holds one
set of arrays for the whole batch, whatever n is, filled in place by
every block: a W x B block of eps, which the widest config's group
overwrites, one scratch of m2 x B cells for the other groups, m2 the
largest m among them, and m3 x B booleans for the hits, m3 the largest m
with sigma_eps > 0: under 2 BLOCK_CELLS cells and BLOCK_CELLS bytes,
2.1 MB, while W <= BLOCK_CELLS. None outlives the `simulate_gain` call.
The block size is part of the draw layout: changing BLOCK_CELLS changes
which normal lands in which cell, as any change of W does.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from ._util import check_addressable, fields_of, integer, read_fields, stream, typed
from .errors import ConfigError, InternalError

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


class _Means:
    """A distribution of m average responses in two steps: `variates`
    draws the random numbers behind them from a generator, and `means`
    maps those to the m means. A batch draws the variates once at its
    widest m, and each config maps them to its own means."""

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return self.means(self.variates(m, rng))


@dataclass(frozen=True)
class FixedMeans(_Means):
    """Deterministic vector of average responses, one entry per arm."""

    mu: tuple[float, ...]

    def __init__(self, mu: Sequence[float]) -> None:
        object.__setattr__(self, "mu", tuple(float(x) for x in mu))
        if not all(math.isfinite(x) for x in self.mu):
            raise ConfigError("Fixed means must all be finite")

    def variates(self, m: int, rng: np.random.Generator) -> None:
        if len(self.mu) != m:
            raise ConfigError(
                f"Fixed means have length {len(self.mu)} but m = {m} arms were requested"
            )

    def means(self, variates: None) -> np.ndarray:
        return np.asarray(self.mu, dtype=float)


@dataclass(frozen=True)
class NormalMeans(_Means):
    """Average responses drawn i.i.d. N(mean, s^2)."""

    mean: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.s)):
            raise ConfigError("Normal means require finite (mean, s)")
        if self.s < 0:
            raise ConfigError(f"s must be >= 0, got {self.s}")

    def variates(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(m)

    def means(self, variates: np.ndarray) -> np.ndarray:
        return self.mean + self.s * variates


@dataclass(frozen=True)
class SpikeSlabMeans(_Means):
    """Each arm's average response is `mean` with probability pi_spike,
    else a fresh N(mean, s^2) draw. Resulting variance: (1 - pi_spike) * s^2."""

    pi_spike: float
    mean: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.pi_spike <= 1.0):
            raise ConfigError(f"pi_spike must lie in [0, 1], got {self.pi_spike}")
        if not (math.isfinite(self.mean) and math.isfinite(self.s)):
            raise ConfigError("SpikeSlab means require finite (mean, s)")
        if self.s < 0:
            raise ConfigError(f"s must be >= 0, got {self.s}")

    def variates(self, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        # both arrays are always drawn so runs differing only in pi_spike
        # share the underlying randomness
        return rng.uniform(size=m), rng.standard_normal(m)

    def means(self, variates: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        uniform, normal = variates
        return np.where(uniform < self.pi_spike, self.mean, self.mean + self.s * normal)


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


def _spread(
    eps: np.ndarray, mu: np.ndarray, scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """mu + scale eps, from m arm rows of eps and mu as a column, into
    `out` (which may be eps) in two passes: Y' at scale
    sigma sqrt(1-rho), Yhat' at hypot of that and sigma_eps."""
    out = np.multiply(eps, scale, out=out)
    out += mu
    return out


def _common(z: np.ndarray, eps: np.ndarray, sigma: float, rho: float) -> np.ndarray:
    """sigma c: each individual's term common to their arms, c of the
    module docstring, from z (1 x n) and eps (m x n). It is linear in
    (z, eps), so given their means over the individuals (z_bar and m
    values) it returns its mean over them, C, as the kernel takes it."""
    if rho >= 0:
        return sigma * (math.sqrt(rho) * z)
    scale = math.sqrt(1.0 + (len(eps) - 1) * rho) - math.sqrt(1.0 - rho)
    return sigma * (scale * eps.mean(axis=0))


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
    # Not a field, and no replication draws noise: sigma_eps > 0 is scored by
    # conditioning on the predictions (see _replicate). perfbench/tracer.py
    # reads cfg.noise_mode to count the normals drawn, and still counts n x m
    # noise normals and n normals for z, of which a replication draws one;
    # the constant goes when the benchmark reads spans from inside the
    # package (ROADMAP item 3).
    noise_mode = "per_cell"

    def __post_init__(self) -> None:
        for key in ("m", "n_individuals", "n_replications", "seed"):
            object.__setattr__(self, key, typed(integer, getattr(self, key), key))
        if self.m < 2:
            raise ConfigError(f"m must be an integer >= 2, got {self.m}")
        if self.n_individuals < 1 or self.n_replications < 1:
            raise ConfigError("n_individuals and n_replications must be >= 1")
        # the kernel builds no such matrix, but its size stays a checked bound
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


def _score(v_p: float, v_u: float, common: float) -> tuple[float, float]:
    """(v_p, v_u), each plus the common term's mean, checked finite."""
    v_p, v_u = v_p + common, v_u + common
    if not (math.isfinite(v_p) and math.isfinite(v_u)):
        raise ConfigError(f"non-finite replication values (v_p={v_p}, v_u={v_u}): "
                          "the outcomes overflow float64")
    return v_p, v_u


# the cells of one block of draws: each thread holds one W x B block of eps,
# one m2 x B scratch and m3 x B booleans, B = BLOCK_CELLS // W individuals,
# whatever n is
BLOCK_CELLS = 2 ** 17


def _block_size(width: int) -> int:
    """B, the individuals in each block of draws at width W; a
    replication's last block may hold fewer."""
    return max(1, BLOCK_CELLS // width)


def sample_potential_outcomes(
    cfg: SimConfig, rng: np.random.Generator, *more: SimConfig, out: np.ndarray,
    first: bool = True,
) -> tuple:
    """The next draws of a replication of a batch from rng, the
    replication's stream(cfg.seed, rep). cfg is the batch's widest config,
    of W = cfg.m arms, and `more` holds the others, which share its draw
    layout.

    Each call draws one block of eps into `out`, a W x b array, arm-major:
    one row of b standard normals per arm, for the block's b individuals.
    Filling `out` gives the bits that drawing a new array of its shape
    would. A replication's first call (first=True) draws, before its block,
    what the whole replication shares: the variates of the W means, then
    one standard normal zeta, which is sqrt(n) z_bar, z_bar the mean of the
    n individuals' z. It returns (eps, zeta, mu, *more_mu): cfg's W means,
    then for each config in `more` the first m of the W means it maps the
    same variates to (a fixed-means config has m = W; `simulate_gain`
    checks it). A later call returns (eps,).

    No config draws prediction noise, whatever its sigma_eps: the kernel
    builds each prediction from eps (see `_replicate`).
    """
    if not first:
        return (rng.standard_normal(out=out),)
    variates = cfg.dist.variates(cfg.m, rng)
    zeta = rng.standard_normal()
    return (rng.standard_normal(out=out), zeta, cfg.dist.means(variates),
            *(point.dist.means(variates)[: point.m] for point in more))


# each thread's arrays for the batch it is running (see _arrays), held by
# the thread rather than passed, so that a replication stays one
# _replicate(cfg, rep, *more) call
_held = threading.local()


def _arrays(points: Sequence[SimConfig], groups: list[list[int]]) -> tuple[np.ndarray, ...]:
    """This thread's flat arrays for a batch of configs `points`, the
    widest last, in `groups` (`_groups`): W x b cells for a block of draws,
    m2 x b for the scratch of the groups but the widest's and m3 x b
    booleans that mark each sigma_eps > 0 config's hits, b = min(n, B), m2
    the largest m of those groups and m3 the largest m with sigma_eps > 0.
    Made on the thread's first replication of the batch and reused by the
    rest; `simulate_gain` drops them when it ends."""
    cfg = points[-1]
    size = min(cfg.n_individuals, _block_size(cfg.m))
    m2 = max((points[group[-1]].m for group in groups[:-1]), default=0)
    m3 = max((point.m for point in points if point.sigma_eps), default=0)
    held = getattr(_held, "arrays", None)
    if held is None or held[0] != (cfg.m, m2, m3, size):
        held = _held.arrays = ((cfg.m, m2, m3, size), np.empty(cfg.m * size),
                               np.empty(m2 * size), np.empty(m3 * size, dtype=bool))
    return held[1:]


def _scales(cfg: SimConfig) -> tuple[float, float]:
    """(c, shrink) of cfg: Yhat' = mu + c eps, c = hypot(v, sigma_eps),
    v = sigma sqrt(1-rho), and E[the true outcome's eps | eps] = shrink eps,
    shrink = v / c."""
    v = cfg.sigma * math.sqrt(1.0 - cfg.rho)
    if not cfg.sigma_eps:
        return v, 1.0
    c = math.hypot(v, cfg.sigma_eps)
    return c, v / c


def _groups(points: Sequence[SimConfig]) -> list[list[int]]:
    """The positions of points by group, the configs that differ in m
    alone, each group by increasing m: a member's predictions are the first
    m rows of its group's widest. The group of the last point comes last."""
    groups: dict[tuple, list[int]] = {}
    for k, point in sorted(enumerate(points), key=lambda item: item[1].m):
        groups.setdefault((point.sigma, point.rho, point.sigma_eps, point.dist), []).append(k)
    return sorted(groups.values(), key=max)


def _replicate(cfg: SimConfig, rep: int, *more: SimConfig) -> list[tuple[float, float]]:
    """(v_p, v_u) in replication `rep` for cfg, its batch's widest config,
    then each config in `more`, from one `sample_potential_outcomes` call
    per block of individuals.

    For each block each config, as the module docstring says, writes
    Yhat' = mu + c eps from the first m arm rows of the block's eps and
    adds to its running sums: of each individual's best prediction (the
    max over their column), of each arm's predictions and, with
    sigma_eps > 0, of each arm's hits (the individuals whose best arm it
    is), counted row by row on a boolean mark of the cells that hold their
    column's max. After the last block the uniform arm U is the arm with
    the largest sum, and both picks are scored by E[Y' | Yhat']. C comes
    from zeta, or for rho < 0 from (v/c) eps_bar, the arm rows' means of
    eps, summed block by block at the width W when some config has
    rho < 0.

    The configs are scored by group (`_groups`), the configs that differ
    in m alone. Each group writes one Yhat' at its largest m, into this
    thread's scratch (`_arrays`), or over the block for cfg's group, which
    is scored last, and sums each of its rows once. A member's Yhat' is
    its group's first m rows, its arm sums theirs, and its best the max
    over those rows, a fold, by increasing m, of the maxima of row ranges.
    A max is exact and each row is summed alone, so every config's sums
    have the bits that scoring it on rows of its own gives. Configs are
    told apart by position, since a batch may hold one config twice.
    """
    n, width = cfg.n_individuals, cfg.m
    points = (*more, cfg)
    groups = _groups(points)
    buffer, scratch, marks = _arrays(points, groups)
    scales = [_scales(point) for point in points]
    best_sums = [0.0] * len(points)
    arm_sums = [np.zeros(point.m) for point in points]
    hits = [np.zeros(point.m) for point in points]
    eps_sums, negative = np.zeros(width), any(point.rho < 0 for point in points)
    rng = stream(cfg.seed, rep)
    size = _block_size(width)

    def tally(k: int, y: np.ndarray, best: np.ndarray, row_sums: np.ndarray) -> None:
        """Add a block's sums to the k-th of points: y its Yhat', best their
        max over each column and row_sums their sum over each arm row."""
        # best >= y[j] cell by cell, and best and each row of y are summed by
        # one pairwise tree: rounding is monotone, so with sigma_eps = 0 the
        # best sum is at least every arm's, v_p >= v_u
        best_sums[k] += float(best.sum())
        arm_sums[k] += row_sums
        if not points[k].sigma_eps:
            return
        marked = np.equal(y, best, out=marks[: y.size].reshape(y.shape))
        block_hits = [np.count_nonzero(row) for row in marked]
        if sum(block_hits) != len(best):
            # a max two arms share goes to the first, as argmax gives
            block_hits = np.bincount(np.argmax(y, axis=0), minlength=len(y))
        hits[k] += block_hits

    for start in range(0, n, size):
        b = min(size, n - start)
        eps, *head = sample_potential_outcomes(
            cfg, rng, *more, out=buffer[: width * b].reshape(width, b), first=not start)
        if head:
            zeta, mu, *more_mu = head
            means = (*more_mu, mu)
        if negative:
            eps_sums += eps.sum(axis=1)
        for group in groups:
            # the group's Yhat' at its largest m, then each member's best
            # over its first m rows, by increasing m: each folds the max of
            # the rows past the last m into the last best
            lead, m = group[-1], points[group[-1]].m
            out = eps if group is groups[-1] else scratch[: m * b].reshape(m, b)
            y = _spread(eps[:m], means[lead][:, None], scales[lead][0], out=out)
            row_sums = y.sum(axis=1)
            best, done = None, 0
            for k in group:
                m = points[k].m
                if m > done:
                    top = y[done:m].max(axis=0)
                    best = top if best is None else np.maximum(best, top, out=best)
                    done = m
                tally(k, y[:m], best, row_sums[:m])

    z_bar, eps_bar = zeta / math.sqrt(n), eps_sums / n

    def value(k: int) -> tuple[float, float]:
        """(v_p, v_u) of the k-th of points."""
        point, mu, shrink = points[k], means[k], scales[k][1]
        common = float(_common(z_bar, shrink * eps_bar[: point.m], point.sigma, point.rho))
        uniform = int(np.argmax(arm_sums[k]))  # ties: lowest arm index
        v_p, v_u = best_sums[k] / n, float(arm_sums[k][uniform]) / n
        if point.sigma_eps:
            # mu_p sums hits * mu: a BLAS dot raised peak RSS by about 0.1 MB
            q, mu_p, mu_u = shrink * shrink, float((hits[k] * mu).sum()) / n, float(mu[uniform])
            v_p, v_u = mu_p + q * (v_p - mu_p), mu_u + q * (v_u - mu_u)
        return _score(v_p, v_u, common)

    *values, widest = (value(k) for k in range(len(points)))
    return [widest, *values]


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
    try:
        if n_jobs == 1 or len(reps) == 1:
            done = [_replicate(widest, rep, *rest) for rep in reps]
        else:
            # each pool thread's arrays go with the thread when the pool ends
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                done = list(pool.map(lambda rep: _replicate(widest, rep, *rest), reps))
    finally:
        _held.arrays = None
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
    with m arms uses the first m means and the first m arm rows of those
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
