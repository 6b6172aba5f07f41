"""Moment estimation from a randomized experiment: the across-arm mean
spread s, the heterogeneity scale sigma and between-arm correlation rho via
a stratified quantile procedure, and the prediction-error scale sigma_eps
from holdout residuals.

The stratified procedure exists because naive plug-ins are biased in
opposite directions: SD(predictions) inflates sigma by the predictor's own
error, while correlating noisy per-unit predictions deflates rho. Averaging
observed outcomes within predicted-score quantiles integrates the noise out
before taking moments.

estimate_moments owns the train/holdout split: fit_predictor fits on the
training rows where they lie, with no copy of them, and estimate_moments
builds the holdout and its scores once.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import ExperimentDataset, TrainTestSplit
from .errors import ConfigError

__all__ = [
    "LinearTLearner",
    "fit_per_arm",
    "fit_predictor",
    "estimate_s",
    "estimate_sigma_eps",
    "estimate_sigma_rho",
    "MomentEstimates",
    "estimate_moments",
]


@dataclass(frozen=True)
class LinearTLearner:
    """Per-arm linear regression of outcome on covariates, each arm fitted
    only on its own assigned rows. coef[a] is (intercept, slopes...).

    It is both the predictor behind the moment estimates and the OLS
    policy: assign() gives each unit the arm with the highest predicted
    outcome, ties to the lowest arm index. Fitting each arm on its own rows
    spans the same space as one regression on arm dummies and their
    interactions with x, so the coefficients are those of that regression.
    """

    coef: np.ndarray
    covariate_names: tuple[str, ...]
    arm_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=float))
        if self.coef.shape != (len(self.arm_names), len(self.covariate_names) + 1):
            raise ConfigError("coef must be (arms) x (1 + covariates)")
        if not np.all(np.isfinite(self.coef)):
            raise ConfigError("fitted coefficients must be finite")
        self.coef.setflags(write=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Score matrix: column a holds the predicted outcome under arm a."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.covariate_names):
            raise ConfigError(
                f"expected {len(self.covariate_names)} covariates, got {x.shape[1]}"
            )
        design = np.column_stack([np.ones(len(x)), x])
        return design @ self.coef.T

    def assign(self, dataset: ExperimentDataset) -> np.ndarray:
        if dataset.m != len(self.arm_names):
            raise ConfigError(
                f"policy covers {len(self.arm_names)} arms, dataset has {dataset.m}"
            )
        return np.argmax(self.predict(dataset.x), axis=1)

    def describe(self, arm_names: tuple[str, ...]) -> str:
        return "ols_interaction"


def fit_per_arm(dataset: ExperimentDataset, rows: np.ndarray | None = None) -> LinearTLearner:
    """Least-squares fit of each arm on its own rows among `rows` (every
    row when None). Rank deficiency is tolerated (minimum-norm solution,
    with a warning); an arm with no rows is not. Each arm's design is
    gathered from its own rows, in the order `rows` lists them, so no copy
    of the training rows and no design of all of them is ever held."""
    coef = np.zeros((dataset.m, dataset.p + 1))
    thin, deficient = [], []
    for a in range(dataset.m):
        own = np.flatnonzero(dataset.arm == a) if rows is None else rows[dataset.arm[rows] == a]
        if len(own) == 0:
            raise ConfigError(f"arm {dataset.arm_names[a]!r} has no training rows")
        if len(own) < dataset.p + 2:
            thin.append(dataset.arm_names[a])
        design = np.column_stack([np.ones(len(own)), dataset.x[own]])
        coef[a], _, rank, _ = np.linalg.lstsq(design, dataset.outcome[own], rcond=None)
        if rank < dataset.p + 1:
            deficient.append(dataset.arm_names[a])
    if deficient:
        warnings.warn(
            f"arms {deficient} have rank deficient designs (rank < p + 1 = {dataset.p + 1}); "
            "using the minimum-norm fit",
            stacklevel=2,
        )
    if thin:
        warnings.warn(
            f"arms {thin} have fewer than p + 2 = {dataset.p + 2} training rows; "
            "fits are unstable",
            stacklevel=2,
        )
    return LinearTLearner(coef, dataset.covariate_names, dataset.arm_names)


def fit_predictor(dataset: ExperimentDataset, split: TrainTestSplit) -> LinearTLearner:
    """fit_per_arm on the training rows."""
    return fit_per_arm(dataset, split.train_idx)


def estimate_s(dataset: ExperimentDataset) -> float:
    """Sample SD (denominator m - 1) of the per-arm mean outcomes."""
    means = per_arm_means(dataset)
    return float(np.std(means, ddof=1))


def per_arm_means(
    dataset: ExperimentDataset, rows: np.ndarray | None = None, what: str = "rows"
) -> np.ndarray:
    """Mean outcome per arm over `rows` (every row when None); an arm with
    none of them raises, calling them `what`."""
    arms, outcome = (dataset.arm, dataset.outcome) if rows is None else (
        dataset.arm[rows], dataset.outcome[rows])
    counts = np.bincount(arms, minlength=dataset.m)
    if not counts.all():
        raise ConfigError(f"arm {dataset.arm_names[int(np.argmin(counts))]!r} has no {what}")
    sums = np.bincount(arms, weights=outcome, minlength=dataset.m)
    return sums / counts


def estimate_sigma_eps(holdout: ExperimentDataset, scores: np.ndarray) -> float:
    """SD of holdout residuals y_i - yhat_i at each unit's assigned arm;
    scores is the predictor's score matrix on the holdout."""
    if holdout.n < 2:
        raise ConfigError("holdout must contain at least two rows")
    residuals = holdout.outcome - scores[np.arange(holdout.n), holdout.arm]
    return float(np.std(residuals, ddof=1))


def estimate_sigma_rho(
    holdout: ExperimentDataset, scores: np.ndarray, n_quantiles: int = 10
) -> tuple[float, np.ndarray, float, dict]:
    """Stratified moment recovery on the holdout, given the predictor's
    score matrix on it.

    Per arm a: rank every holdout unit by (arm-a score, unit id), so ties
    (common with binary covariates) resolve the same way every run, cut
    the ranking into n_quantiles equal-count bins, and average the observed
    outcomes of the units actually assigned to a within each bin, in row
    order. The SD over bin means estimates sigma for that arm (reported
    sigma is the mean over arms).
    For rho, each unit carries, per arm, the bin mean of its predicted bin;
    rho for a pair of arms is the Pearson correlation of those carried
    values over units, and the headline rho averages all pairs.
    """
    if n_quantiles < 2:
        raise ConfigError(f"n_quantiles must be >= 2, got {n_quantiles}")
    if n_quantiles > holdout.n:
        raise ConfigError(
            f"n_quantiles = {n_quantiles} exceeds the {holdout.n} holdout rows; "
            "every bin needs units of every arm"
        )
    id_ranks = np.argsort(np.argsort(holdout.unit_ids, kind="stable"))  # ranks sort faster
    m = holdout.m
    bin_means = np.zeros((m, n_quantiles))
    bin_counts = np.zeros((m, n_quantiles), dtype=int)
    unit_values = np.zeros((holdout.n, m))
    for a in range(m):
        assigned = holdout.arm == a
        order = np.lexsort((id_ranks, scores[:, a]))
        for q, rows in enumerate(np.array_split(order, n_quantiles)):
            cell = np.sort(rows[assigned[rows]])  # row order: the sum's order
            if not len(cell):
                raise ConfigError(
                    f"no units assigned to arm {holdout.arm_names[a]!r} fall in "
                    f"quantile bin {q}; cannot form the bin mean"
                )
            bin_counts[a, q] = len(cell)
            unit_values[rows, a] = bin_means[a, q] = holdout.outcome[cell].mean()
    thin_cells = [(holdout.arm_names[a], int(q), int(bin_counts[a, q]))
                  for a, q in zip(*np.nonzero(bin_counts < 30))]
    if thin_cells:
        warnings.warn(
            f"{len(thin_cells)} (arm, quantile) cells hold fewer than 30 units "
            f"(first few: {thin_cells[:5]}); bin means are noisy",
            stacklevel=2,
        )
    # an arm is constant when its bin means agree up to rounding: means of
    # k copies of c lie within k * eps * |c| of each other
    rounding = bin_counts.max(axis=1) * np.finfo(float).eps * np.abs(bin_means).max(axis=1)
    constant = np.ptp(bin_means, axis=1) <= rounding
    per_arm_sigma = np.where(constant, 0.0, bin_means.std(axis=1, ddof=1))
    sigma_hat = float(per_arm_sigma.mean())
    rho = np.eye(m)
    for a in range(m):
        for b in range(a + 1, m):
            if constant[a] or constant[b]:
                warnings.warn(
                    f"bin means for arm pair ({holdout.arm_names[a]}, "
                    f"{holdout.arm_names[b]}) are constant; reporting correlation 0",
                    stacklevel=2,
                )
                continue
            r = np.corrcoef(unit_values[:, a], unit_values[:, b])[0, 1]
            rho[a, b] = rho[b, a] = float(np.clip(r, -1.0, 1.0))
    iu = np.triu_indices(m, k=1)
    rho_mean = float(rho[iu].mean())
    diagnostics = {
        "n_quantiles": n_quantiles,
        "n_holdout": holdout.n,
        "per_arm_sigma": per_arm_sigma.tolist(),
        "bin_counts": bin_counts.tolist(),
        "bin_means": bin_means.tolist(),
    }
    return sigma_hat, rho, rho_mean, diagnostics


@dataclass(frozen=True)
class MomentEstimates:
    """Everything the gain model needs, estimated from one experiment."""

    s_hat: float
    sigma_hat: float
    rho_hat_matrix: np.ndarray
    rho_hat_mean: float
    sigma_eps_hat: float
    per_arm_means: np.ndarray
    quantile_diagnostics: dict = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho_hat_matrix", np.asarray(self.rho_hat_matrix, dtype=float))
        object.__setattr__(self, "per_arm_means", np.asarray(self.per_arm_means, dtype=float))
        names = ("s_hat", "sigma_hat", "rho_hat_matrix", "rho_hat_mean", "sigma_eps_hat",
                 "per_arm_means")
        bad = [name for name in names if not np.all(np.isfinite(getattr(self, name)))]
        if bad:
            raise ConfigError(f"estimates {bad} are not finite: the outcomes overflow float64")
        rho = self.rho_hat_matrix
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ConfigError("rho_hat_matrix must be square")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ConfigError("rho_hat_matrix must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise ConfigError("rho_hat_matrix must have unit diagonal")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise ConfigError("correlations must lie in [-1, 1]")
        for name in ("s_hat", "sigma_hat", "sigma_eps_hat"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        self.rho_hat_matrix.setflags(write=False)
        self.per_arm_means.setflags(write=False)

    def to_dict(self) -> dict:
        return {**asdict(self), "rho_hat_matrix": self.rho_hat_matrix.tolist(),
                "per_arm_means": self.per_arm_means.tolist()}


def estimate_moments(
    dataset: ExperimentDataset, split: TrainTestSplit, n_quantiles: int = 10
) -> MomentEstimates:
    """Fit the predictor on the training side, then run every estimator.

    s and the per-arm means use the whole dataset (they need no model);
    sigma, rho and sigma_eps are holdout quantities.
    """
    predictor = fit_predictor(dataset, split)
    holdout = dataset.subset(split.test_idx)
    scores = predictor.predict(holdout.x)
    sigma_hat, rho_matrix, rho_mean, diagnostics = estimate_sigma_rho(holdout, scores, n_quantiles)
    return MomentEstimates(
        s_hat=estimate_s(dataset),
        sigma_hat=sigma_hat,
        rho_hat_matrix=rho_matrix,
        rho_hat_mean=rho_mean,
        sigma_eps_hat=estimate_sigma_eps(holdout, scores),
        per_arm_means=per_arm_means(dataset),
        quantile_diagnostics=diagnostics,
    )
