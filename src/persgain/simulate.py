"""Monte Carlo gain from personalizing over m treatment arms.

Each replication draws per-arm average responses mu from a chosen
distribution; n individuals then have i.i.d. N(mu, Sigma) outcomes over the
m arms, with the equicorrelated covariance Sigma = sigma^2 [(1-rho) I +
rho J]. The personalized policy gives each individual the arm of their best
prediction; the uniform benchmark gives everyone the arm with the best mean
prediction over the individuals. With sigma_eps > 0 the predictions are
Yhat = Y + sigma_eps * noise, but every pick is scored on the true Y, so the
gain can go negative when predictions are poor.

Individual i's outcomes are Y'_i + sigma c_i 1, with Y'_i = mu + v eps_i,
v = sigma sqrt(1-rho), eps_i m standard normals and c_i a term of mean 0
common to the individual's arms (`outcomes` in tests/test_simulate.py
states it for either sign of rho). No replication draws that term: each
individual gets exactly one arm, so it moves no pick and adds the same
mean-0 amount to v_p and to v_u; rho reaches the gain only through v. Nor
does any replication draw the noise. Cell by cell, Y' and its prediction
Yhat' are a normal pair given mu, and both policies pick on Yhat' alone, so
Yhat' = mu + c eps with c = hypot(v, sigma_eps), and each pick is scored by
E[Y' | Yhat'] = mu + k (Yhat' - mu), k = (v/c)^2. That is conditional Monte
Carlo (Asmussen & Glynn, Stochastic Simulation, 2007, ch. V): the estimand
is unchanged, the estimator stays unbiased, and its variance is no larger.

The means are conditioned on too, unless they are fixed. Given mu, a policy
that picks the max of H_j = mu_j + t e_j, e_j i.i.d. N(0, 1), is worth
V(mu, t, k) = (1-k) E[mu_J] + k E[max_j H_j], J = argmax H; the personalized
policy has t = c, and the uniform one, which picks on column means, t =
c / sqrt(n). So a replication of NormalMeans or SpikeSlabMeans draws its
means alone and scores them by E[v_p | mu] = V(mu, c, k) and E[v_u | mu] =
V(mu, c / sqrt(n), k), one-dimensional integrals that `_values` takes on
one fixed grid; per_replication_gains are E[gain | mu]. Values are kept as
distances from max mu, and means as distances from the distribution's
mean, so no large mean cancels the gain away. With s = 0 the gain is
exact, SE 0. Spike-slab means all tie with probability
q = pi_spike^m, a case scored exactly: a replication draws its means given
a slab arm and weights its values q to 1 - q with the tied ones
(stratified sampling), so no run of tied draws reports SE 0.

FixedMeans configs keep the individual-level kernel (`_individuals`) for
acceptance criterion 1, which allows one of its twenty fixed-means designs
to miss the n = infinity closed form by over 3 SE: V's exact finite-n
gain, with SE 0, would miss it on two. The kernel draws eps for its n
individuals in blocks of B = max(1, BLOCK_CELLS // m), each m x b and
arm-major, and adds up, block by block, each individual's best
prediction, each arm's sum of predictions and, with sigma_eps > 0, each
arm's count of individuals whose best arm it is; its values come from
those sums. It holds one block of draws whatever n is.

Replication r of a run with seed k uses stream(k, r), the generator of
SeedSequence(k, spawn_key=(r,)). Streams never depend on execution order,
so any parallelism degree yields bit-identical results, and two runs that
differ only in (sigma, rho, sigma_eps, dist parameters) consume identical
draws: sweeps over those knobs are common-random-number coupled.

`simulate_gain` also runs a batch of configs of one draw layout, in its
order. The draw step, `sample_potential_outcomes`, draws a random-means
replication's variates of W means once, W the batch's largest m, and a
config with m arms maps the first m of them to its own means (Glasserman,
Monte Carlo Methods in Financial Engineering, 2003, section 4.2). A
fixed-means batch takes any m, and each config draws its own eps.

Random-means replications are drawn one by one and scored a block at a
time (`_score_block`). A block holds about BLOCK_CELLS cells of means and
grid rows, so its memory is bounded at any m and any n_replications. Each
(config, scale) of the block keeps every replication's lags in arm order,
padded to the widest replication's count with a lag far enough out that
it moves no bit; Phi and the pick density are then taken once per cell, in
place, a chunk of about 2^15 cells at a time, and every product and sum
over the arms runs in arm order, so a replication's values have the same
bits in any block. From _POOLED_ARMS arms in all, the blocks are the
thread pool's unit of work.
"""

from __future__ import annotations

import math
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
#
# A random kind draws its m means in two steps: `variates(m, rng)` draws the
# random numbers behind them, and `offsets(variates, m)` maps the first m of
# those to the means less `mean`, given that they are not all tied; `tied(m)`
# is P(all m means are one). A batch draws the variates once, at its widest
# m, and each config maps them to its own offsets.


@dataclass(frozen=True)
class FixedMeans:
    """Deterministic vector of average responses, one entry per arm."""

    mu: tuple[float, ...]
    mean = 0.0  # not a field: the centre `_summarize` adds, as for random means

    def __init__(self, mu: Sequence[float]) -> None:
        object.__setattr__(self, "mu", tuple(float(x) for x in mu))
        if not all(math.isfinite(x) for x in self.mu):
            raise ConfigError("Fixed means must all be finite")


@dataclass(frozen=True)
class NormalMeans:
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

    def tied(self, m: int) -> float:
        return 0.0

    def offsets(self, variates: np.ndarray, m: int) -> np.ndarray:
        return self.s * variates[:m]


@dataclass(frozen=True)
class SpikeSlabMeans:
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

    def tied(self, m: int) -> float:
        return self.pi_spike ** m if self.s else 1.0

    def offsets(self, variates: tuple[np.ndarray, np.ndarray], m: int) -> np.ndarray:
        """In arm order: while all so far are the spike, arm j is a slab with
        probability (1 - pi) / (1 - pi^r), r the arms left, j included; from
        the first slab on, each arm is one with probability 1 - pi."""
        if self.tied(m) == 1.0:
            return np.zeros(m)
        uniform, left = variates[0][:m], self.pi_spike ** np.arange(m, 0, -1)
        first = int(np.argmax(uniform >= (self.pi_spike - left) / (1.0 - left)))
        slab = (uniform >= self.pi_spike) & (np.arange(m) > first)
        slab[first] = True
        return np.where(slab, self.s * variates[1][:m], 0.0)


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
    equicorrelation matrix turns singular, plus a 1e-9 margin. The kernel
    scales its draws by sqrt(1-rho) alone and needs no margin; it keeps the
    singular bound itself out of the admissible range."""
    return -1.0 / (m - 1) + 1e-9


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
    # Not a field, and no replication draws noise. perfbench/tracer.py reads
    # cfg.noise_mode to count the normals drawn, and still counts n x m
    # noise normals, n normals for z and, with random means, n x m for eps,
    # none of which a replication draws; the constant goes when the
    # benchmark reads spans from inside the package (ROADMAP item 3).
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
    """What fixes the draws of a replication, up to their width. A
    `simulate_gain` batch is one layout, drawn at its largest m; a batch
    whose configs differ on it raises ConfigError."""
    return (cfg.seed, cfg.n_individuals, cfg.n_replications, type(cfg.dist).__name__)


def _score(top: float, off_p: float, off_u: float, centre: float = 0.0) -> tuple:
    """(top, off_p, off_u), with v_p = centre + top + off_p and v_u checked finite."""
    v_p, v_u = centre + top + off_p, centre + top + off_u
    if not (math.isfinite(v_p) and math.isfinite(v_u)):
        raise ConfigError(f"non-finite replication values (v_p={v_p}, v_u={v_u}): "
                          "the outcomes overflow float64")
    return top, off_p, off_u


# the cells of one block of draws of the individual-level kernel: B =
# BLOCK_CELLS // m individuals, whatever n is
BLOCK_CELLS = 2 ** 17


def sample_potential_outcomes(cfg: SimConfig, rng: np.random.Generator, *more: SimConfig) -> tuple:
    """All a random-means replication draws, from rng, its stream(cfg.seed,
    rep): the variates of W means, W the largest m of cfg and the configs in
    `more`. Returns the offsets of cfg and of each config in `more`, each
    from the first m of those variates. The configs take one kind of random
    means; fixed means are not drawn, and raise ConfigError."""
    points = (cfg, *more)
    kinds = sorted({type(point.dist).__name__ for point in points})
    if len(kinds) > 1 or isinstance(cfg.dist, FixedMeans):
        raise ConfigError(f"the draw step draws one kind of random means, got {', '.join(kinds)}")
    variates = cfg.dist.variates(max(point.m for point in points), rng)
    return tuple(point.dist.offsets(variates, point.m) for point in points)


def _scales(cfg: SimConfig) -> tuple[float, float]:
    """(c, shrink) of cfg: Yhat' = mu + c eps, c = hypot(v, sigma_eps),
    v = sigma sqrt(1-rho), and E[the true outcome's eps | eps] = shrink eps,
    shrink = v / c."""
    v = cfg.sigma * math.sqrt(1.0 - cfg.rho)
    if not cfg.sigma_eps:
        return v, 1.0
    c = math.hypot(v, cfg.sigma_eps)
    return c, v / c


def _individuals(cfg: SimConfig, rep: int) -> tuple[float, float]:
    """(v_p, v_u) of a fixed-means cfg in replication `rep`, from its n
    individuals' predictions Yhat' = mu + c eps, drawn and scored block by
    block (module docstring). The uniform arm U is the arm with the largest
    sum of predictions, and both picks are scored by E[Y' | Yhat']."""
    n, m, mu = cfg.n_individuals, cfg.m, np.asarray(cfg.dist.mu)
    rng = stream(cfg.seed, rep)
    c, shrink = _scales(cfg)
    size = min(n, max(1, BLOCK_CELLS // m))
    cells, marks = np.empty(m * size), np.empty(m * size if cfg.sigma_eps else 0, dtype=bool)
    best_sum, arm_sums, hits = 0.0, np.zeros(m), np.zeros(m)
    for start in range(0, n, size):
        b = min(size, n - start)
        y = rng.standard_normal(out=cells[: m * b].reshape(m, b))
        y *= c
        y += mu[:, None]
        best = y.max(axis=0)
        # best >= y[j] cell by cell, and best and each row of y are summed by
        # one pairwise tree: rounding is monotone, so with sigma_eps = 0 the
        # best sum is at least every arm's, v_p >= v_u
        best_sum += float(best.sum())
        arm_sums += y.sum(axis=1)
        if cfg.sigma_eps:
            # the hits: each arm's count of the cells that hold their
            # column's max; a max two arms share goes to the first, as
            # argmax gives
            marked = np.equal(y, best, out=marks[: y.size].reshape(y.shape))
            block_hits = [np.count_nonzero(row) for row in marked]
            if sum(block_hits) != b:
                block_hits = np.bincount(np.argmax(y, axis=0), minlength=m)
            hits += block_hits
    uniform = int(np.argmax(arm_sums))  # ties: lowest arm index
    v_p, v_u = best_sum / n, float(arm_sums[uniform]) / n
    if cfg.sigma_eps:
        # mu_p sums hits * mu: a BLAS dot raised peak RSS by about 0.1 MB
        q, mu_p, mu_u = shrink * shrink, float((hits * mu).sum()) / n, float(mu[uniform])
        v_p, v_u = mu_p + q * (v_p - mu_p), mu_u + q * (v_u - mu_u)
    return _score(0.0, v_p, v_u)


# Hart's double-precision rational approximation of the normal tail, as given
# by West, "Better approximations to cumulative normal functions", Wilmott
# Magazine, 2005
_HART_P = (0.0352624965998911, 0.700383064443688, 6.37396220353165, 33.912866078383,
           112.079291497871, 221.213596169931, 220.206867912376)
_HART_Q = (0.0883883476483184, 1.75566716318264, 16.064177579207, 86.7807322029461,
           296.564248779674, 637.333633378831, 793.826512519948, 440.413735824752)


def _phi(x: np.ndarray, pdf: np.ndarray, work: np.ndarray, neg: np.ndarray,
         small: np.ndarray) -> None:
    """Phi(x) in place of x, and exp(-x^2/2) into pdf: Phi is taken on the
    smaller tail, Phi(-|x|) = exp(-x^2/2) P/Q below |x| = 5 sqrt(2) and a
    continued fraction above, and Phi(x) = 1 - Phi(-x) for x > 0. Its error
    is below 1e-8 times the smaller tail, min(Phi, 1 - Phi), plus the
    rounding of 1 - tail; Phi(0) is 1/2 exactly, and it does not decrease
    (tests/test_simulate.py checks both against math.erfc on [-40, 40]).
    work, neg and small are scratch of x's shape, neg and small bool."""
    np.less(x, 0.0, out=neg)
    a = np.abs(x, out=x)
    for coefs, out in ((_HART_P, pdf), (_HART_Q, work)):  # Horner's rule
        np.multiply(a, coefs[0], out=out)
        for coef in coefs[1:-1]:
            out += coef
            out *= a
        out += coefs[-1]
    pdf /= work  # P/Q
    np.add(a, 0.65, out=work)
    for k in (4.0, 3.0, 2.0, 1.0):
        np.divide(k, work, out=work)
        work += a
    work *= 2.506628274631
    np.divide(1.0, work, out=work)  # the continued fraction
    np.less(a, 7.07106781186547, out=small)
    np.copyto(work, pdf, where=small)
    np.multiply(a, -0.5, out=pdf)
    pdf *= a
    np.exp(pdf, out=pdf)
    work *= pdf  # Phi(-|x|)
    np.subtract(1.0, work, out=x)
    np.copyto(x, work, where=neg)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) (`_phi`), x left as it is."""
    cdf = np.array(x, dtype=float)
    _phi(cdf, np.empty_like(cdf), np.empty_like(cdf), *np.empty((2, *cdf.shape), dtype=bool))
    return cdf


# `_values` integrates over u = (x - max mu) / t on this one grid: below it
# Phi(u) < 7e-16, and above it each other arm's 1 - Phi(u + d) is smaller.
# An arm _REACH or more below the best, in units of t, has Phi(u + d) = 1.0
# on the whole grid and a pick probability below 1e-30: both integrals leave
# it out. A lag of _PAD has Phi(u + d) = 1.0 and exp(-(u + d)^2/2) = 0.0 on
# the whole grid, so it pads a row of lags without moving a bit. The pick
# sums add the other arms in groups of _ROWS, fixed since it sets their
# bits, and a chunk holds up to _CHUNK_LAGS lags of one or more rows
_U = np.linspace(-8.0, 8.0, 129)
_STEP = 0.125
_REACH = 17.0
_PAD = 64.0
_ROWS = 1_016
_CHUNK_LAGS = 2 ** 15 // len(_U)
_CDF_U, _PDF_U = _norm_cdf(_U), np.exp(-0.5 * _U * _U)


def _products(lags: np.ndarray, picks: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """For each row of lags d_j >= 0 (padded with _PAD), P(u) = prod_j
    Phi(u + d_j) on the grid, one product over the row in order however it
    is chunked, and, if `picks`, the sums over the row of phi(u + d_j) /
    Phi(u + d_j), arm j's density over its factor of P, and of that times
    d_j. Phi and the density are taken once per cell, in place, on a
    contiguous chunk of rows x (1 + lags) cells at a time; each row's first
    lag is _PAD, whose cells then carry the row's running product and sums,
    so every reduction runs in order."""
    rows, width = lags.shape
    below = np.ones((rows, len(_U)))
    sums = np.zeros((rows, 2, len(_U))) if picks else None
    part = np.empty_like(sums) if picks else None
    step = max(1, min(width, _CHUNK_LAGS))
    height = max(1, _CHUNK_LAGS // step)  # rows per chunk
    grid = np.tile(_U, height * (step + 1))
    cells, masks = np.empty((4, len(grid))), np.empty((2, len(grid)), dtype=bool)
    for top in range(0, rows, height):
        block = slice(top, min(rows, top + height))
        for start in range(0, width, _ROWS):
            end = min(width, start + _ROWS)
            if picks:
                part[block] = 0.0
            for first in range(start, end, step):
                chunk = lags[block, first:min(end, first + step)]
                shape = (len(chunk), chunk.shape[1] + 1, len(_U))
                cdf, pdf, work, lag, neg, small = (
                    buf[: math.prod(shape)].reshape(shape) for buf in (*cells, *masks))
                lag[:, 0], lag[:, 1:] = _PAD, chunk[:, :, None]
                np.add(grid[: cdf.size].reshape(shape), lag, out=cdf)
                _phi(cdf, pdf, work, neg, small)
                if picks:
                    np.divide(pdf, cdf, out=pdf)
                    np.multiply(pdf, lag, out=work)
                    pdf[:, 0], work[:, 0] = part[block, 0], part[block, 1]
                    np.add.reduce(pdf, axis=1, out=part[block, 0])
                    np.add.reduce(work, axis=1, out=part[block, 1])
                cdf[:, 0] = below[block]
                np.multiply.reduce(cdf, axis=1, out=below[block])
            if picks:
                sums[block] += part[block]
    return below, sums


def _values(offsets: np.ndarray, t: float, k: float) -> np.ndarray:
    """V(mu, t, k) - max mu for each row mu of offsets, V = (1-k) E[mu_J] +
    k E[max_j H_j] the value given the means of a policy that picks the max
    of H_j = mu_j + t e_j (module docstring). With B the best arm (the first
    max of mu) and lags d_j = (max mu - mu_j) / t of the other arms kept
    (below _REACH) in arm order, E[max H] = max mu + t int Phi(u) (1 - P(u))
    du and E[mu_J] = max mu - t E[d_J], from pick probabilities int phi(u +
    d_j) prod_{l != j} Phi(u + d_l) du summing to 1 (`_products`). The
    integrand is >= 0 and grows with t cell by cell, so with k = 1
    (sigma_eps = 0) the gain _values(mu, c, 1) - _values(mu, c / sqrt(n), 1)
    is >= 0 after rounding."""
    if not t:
        return np.zeros(len(offsets))
    rows, best = np.arange(len(offsets)), offsets.argmax(axis=1)
    lags = (offsets[rows, best][:, None] - offsets) / t
    kept = lags < _REACH
    kept[rows, best] = False
    counts = kept.sum(axis=1)
    order = np.argsort(~kept, axis=1, kind="stable")[:, : counts.max()]
    lags = np.take_along_axis(lags, order, axis=1)
    lags[np.arange(lags.shape[1]) >= counts[:, None]] = _PAD
    below, sums = _products(lags, picks=k != 1.0)
    # a value past float64 is inf, without a warning, and `_score` reports it
    with np.errstate(over="ignore", invalid="ignore"):
        peak = t * ((_CDF_U * (1.0 - below)).sum(axis=1) * _STEP)
        if k == 1.0:
            return peak
        weight = (_PDF_U * below).sum(axis=1)
        others, lag = (sums * (_CDF_U * below)[:, None]).sum(axis=2).T
        return k * peak - (1.0 - k) * (t * (lag / (weight + others)))


def _score_block(cfgs: Sequence[SimConfig], drawn: Sequence[tuple]) -> list[list[tuple]]:
    """(top, off_p, off_u) of each config in each replication of a block of
    random-means replications, `drawn` holding each replication's offsets of
    every config (`sample_potential_outcomes`): top = max mu, off_p =
    _values(mu, c, k) and off_u = _values(mu, c / sqrt(n), k), weighted
    1 - q to q with the tied case's, q = cfg.dist.tied(m), where E[max H] =
    t E[max of m standard normals]. Each term of off_p is >= its term of
    off_u: with sigma_eps = 0, so is the gain. A replication's values have
    the same bits in any block."""
    columns = []
    for index, cfg in enumerate(cfgs):
        offsets = np.array([row[index] for row in drawn])
        c, shrink = _scales(cfg)
        k, t_u = shrink * shrink, c / math.sqrt(cfg.n_individuals)
        top, off_p, off_u = offsets.max(axis=1), _values(offsets, c, k), _values(offsets, t_u, k)
        if q := cfg.dist.tied(cfg.m):
            spread = float((_CDF_U * (1.0 - _CDF_U ** (cfg.m - 1))).sum()) * _STEP
            with np.errstate(over="ignore", invalid="ignore"):
                top, off_p, off_u = ((1.0 - q) * top, q * (k * (c * spread)) + (1.0 - q) * off_p,
                                     q * (k * (t_u * spread)) + (1.0 - q) * off_u)
        columns.append(zip(top.tolist(), off_p.tolist(), off_u.tolist()))
    return [[_score(*values, cfg.dist.mean) for cfg, values in zip(cfgs, row)]
            for row in zip(*columns)]


def _replicate(cfg: SimConfig, rep: int, *more: SimConfig) -> list:
    """Replication `rep` of cfg, then of each config in `more`. Fixed means
    give each config's (top, off_p, off_u) from the individual-level kernel,
    top = 0; random means give each config's offsets from the draw step,
    which `_score_block` values."""
    if isinstance(cfg.dist, FixedMeans):
        return [_individuals(point, rep) for point in (cfg, *more)]
    return sample_potential_outcomes(cfg, stream(cfg.seed, rep), *more)


def _block_values(cfgs: Sequence[SimConfig], reps: range) -> list:
    """(top, off_p, off_u) of each config in each replication of `reps`: v_p
    = top + off_p (plus the means' centre, which `_summarize` adds), and
    v_u alike. One `_replicate` call per replication, then, for random
    means, one `_score_block` of them all."""
    first, *rest = cfgs
    drawn = [_replicate(first, rep, *rest) for rep in reps]
    return drawn if isinstance(first.dist, FixedMeans) else _score_block(cfgs, drawn)


_POOLED_ARMS = 256  # fewer random-means arms in a batch run on one thread


def simulate_gain(
    cfg: SimConfig | Sequence[SimConfig], n_jobs: int = 1
) -> SimResult | list[SimResult]:
    """Run cfg.n_replications independent replications and aggregate. Given
    a sequence of configs instead, one SimResult per config, in order, from
    one batch whose configs share each replication's draws (module
    docstring): a config with the batch's largest m is bit-identical to
    running it alone, as is every fixed-means config. A batch of several
    draw layouts (`_layout`) raises ConfigError naming the first config off
    the first one's layout, before anything is drawn.

    The replications run in blocks (`_block_values`): a fixed-means block
    is one replication, and a random-means block holds about BLOCK_CELLS
    cells of means and grid rows, so its memory is bounded at any m and
    any n_replications. n_jobs > 1 runs the blocks on a thread pool, at
    least one block per thread, and the output is identical for any
    n_jobs; but a random-means batch below _POOLED_ARMS arms gains nothing
    from threads (2-core box: two threads took 0.97 times the wall time of
    one at five m = 20 configs, 1.04 at the m = 2..100 sweep, 0.88 at m =
    200, 0.65 at m = 400 and 0.69 at m = 1,000)."""
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
    single = isinstance(cfg, SimConfig)
    cfgs = [cfg] if single else list(cfg)
    if not cfgs:
        return []
    first = cfgs[0]
    for index, point in enumerate(cfgs):
        if _layout(point) != _layout(first):
            raise ConfigError(
                f"config {index} has draw layout {_layout(point)}, config 0 {_layout(first)}: "
                "a batch takes one (seed, n_individuals, n_replications, kind of means)")
    reps = range(first.n_replications)
    fixed, arms = isinstance(first.dist, FixedMeans), sum(point.m for point in cfgs)
    pooled = n_jobs > 1 and (fixed or arms >= _POOLED_ARMS)
    size = 1 if fixed else max(1, BLOCK_CELLS // (arms + len(_U)))
    if pooled:
        size = min(size, -(-len(reps) // n_jobs))
    blocks = [reps[start:start + size] for start in range(0, len(reps), size)]
    if not pooled or len(blocks) == 1:
        done = [_block_values(cfgs, block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            done = list(pool.map(lambda block: _block_values(cfgs, block), blocks))
    # one row of values per replication, one column per config
    rows = [row for block in done for row in block]
    results = [_summarize(point, column) for point, column in zip(cfgs, zip(*rows))]
    return results[0] if single else results


def _summarize(cfg: SimConfig, values: Sequence[tuple[float, float, float]]) -> SimResult:
    top, off_p, off_u = (np.array(column) for column in zip(*values))
    gains = off_p - off_u
    if cfg.sigma_eps == 0.0 and np.any(gains < 0):
        raise InternalError("negative per-replication gain with sigma_eps = 0")
    k = math.frexp(float(np.abs(gains).max()))[1]  # gains / 2^k lie in (-1, 1): squares stay finite
    # one gain, or one value repeated (equal random means), has SE 0 exactly,
    # where the two-pass std can leave the mean's rounding
    se = (math.ldexp(float(np.ldexp(gains, -k).std(ddof=1) / math.sqrt(len(gains))), k)
          if gains.min() < gains.max() else 0.0)
    return SimResult(
        gain_mean=float(off_p.mean() - off_u.mean()),
        gain_se=se,
        v_personalized_mean=cfg.dist.mean + float((top + off_p).mean()),
        v_uniform_mean=cfg.dist.mean + float((top + off_u).mean()),
        per_replication_gains=tuple(float(g) for g in gains),
    )


def sweep_arms(cfg: SimConfig, m_values: Sequence[int], n_jobs: int = 1) -> list[dict]:
    """cfg at each arm count in m_values, one row per value, from one
    `simulate_gain` batch.

    The points differ only in m, so they are one draw layout, as a batch
    must be: with random means each replication draws its means once, at
    the largest m, and the point with m arms uses the first m. The rows are
    common-random-number coupled across m, and the row for the largest m is
    bit-identical to running that point alone. Fixed means fit one m only.
    """
    if len(m_values) == 0:
        raise ConfigError("m_values must be non-empty")
    points = [replace(cfg, m=int(m)) for m in m_values]
    rows = [{"m": point.m, **asdict(res)}
            for point, res in zip(points, simulate_gain(points, n_jobs=n_jobs))]
    for row in rows:
        del row["per_replication_gains"]
    return rows
