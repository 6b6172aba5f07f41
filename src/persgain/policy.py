"""Assignment policies and their evaluation: best uniform arm, the OLS
policy (the per-arm linear model of `estimation`), inverse-propensity-
weighted value estimation on a holdout, exact evaluation against the
sealed potential outcomes of synthetic data, and a gain report with exact
bootstrap SEs against the best-uniform benchmark.

A policy is any object with assign(dataset) -> arm index per row and
describe(arm_names) -> report label, naming arms as the dataset does; a fit
maps a dataset and its training rows (every row when None) to a policy,
reading those rows where they lie. gain_report, which owns the
train/holdout split, hands each fit the training indices and builds the
holdout once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ExperimentDataset, SealedOutcomes, TrainTestSplit
from .errors import ConfigError
from .estimation import LinearTLearner, fit_per_arm, per_arm_means

__all__ = [
    "UniformPolicy",
    "best_uniform",
    "fit_ols_policy",
    "IpwEstimate",
    "evaluate_ipw",
    "evaluate_oracle",
    "gain_report",
]


@dataclass(frozen=True)
class UniformPolicy:
    """Everyone gets the same arm."""

    arm: int

    def __post_init__(self) -> None:
        if self.arm < 0:
            raise ConfigError(f"arm index must be >= 0, got {self.arm}")

    def assign(self, dataset: ExperimentDataset) -> np.ndarray:
        if self.arm >= dataset.m:
            raise ConfigError(f"policy arm {self.arm} not present in a {dataset.m}-arm dataset")
        return np.full(dataset.n, self.arm, dtype=int)

    def describe(self, arm_names: tuple[str, ...]) -> str:
        return f"uniform[{arm_names[self.arm]}]"


# --------------------------------------------------------------------------
# fitting


def best_uniform(dataset: ExperimentDataset, rows: np.ndarray | None = None) -> UniformPolicy:
    """Arm with the highest mean outcome over the training rows (every row
    when None); ties -> lowest index."""
    means = per_arm_means(dataset, rows, "training rows")
    return UniformPolicy(int(np.argmax(means)))


def fit_ols_policy(dataset: ExperimentDataset, rows: np.ndarray | None = None) -> LinearTLearner:
    """The per-arm linear model fitted on the training rows (every row when
    None), used as a policy: each unit gets the arm with the highest
    predicted outcome."""
    return fit_per_arm(dataset, rows)


# --------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class IpwEstimate:
    value: float
    se: float
    n_matched: int
    match_rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ConfigError("IPW value must be finite")


def _ipw_terms(policy, dataset: ExperimentDataset) -> tuple[np.ndarray, int]:
    """Per-row IPW terms (outcome / propensity where the policy's pick
    matches the assigned arm, else 0) and the number of matched rows."""
    matched = policy.assign(dataset) == dataset.arm
    return np.where(matched, dataset.outcome / dataset.propensity, 0.0), int(matched.sum())


def evaluate_ipw(policy, dataset: ExperimentDataset) -> IpwEstimate:
    """(1/n) sum of matched outcomes reweighted by 1/propensity. The SE is
    the sample SD of the per-row terms over sqrt(n)."""
    terms, n_matched = _ipw_terms(policy, dataset)
    if n_matched == 0:
        warnings.warn(
            "policy matches no holdout assignment; IPW value is 0 by convention",
            stacklevel=2,
        )
    se = float(terms.std(ddof=1) / math.sqrt(dataset.n)) if dataset.n > 1 else 0.0
    return IpwEstimate(
        value=float(terms.mean()),
        se=se,
        n_matched=n_matched,
        match_rate=n_matched / dataset.n,
    )


def evaluate_oracle(policy, dataset: ExperimentDataset, sealed: SealedOutcomes) -> float:
    """Mean of the sealed potential outcome each unit would receive. Exact,
    and only possible when the dataset came from the synthetic generator."""
    row_of = {uid: i for i, uid in enumerate(sealed.unit_ids)}
    try:
        rows = np.array([row_of[uid] for uid in dataset.unit_ids])
    except KeyError as missing:
        raise ConfigError(
            f"no sealed outcomes for unit {missing.args[0]!r}; oracle evaluation "
            "needs the synthetic generator's sealed matrix"
        ) from None
    picks = policy.assign(dataset)
    return float(sealed.y[rows, picks].mean())


def gain_report(
    fits: list,
    dataset: ExperimentDataset,
    split: TrainTestSplit,
    n_boot: int = 1000,
) -> list[dict]:
    """IPW values on the holdout with bootstrap SEs, benchmarked against the
    best uniform arm found on the training side (always the first row).

    Each distinct fit, best_uniform included, is called once as
    fit(dataset, split.train_idx), reading the training rows in place, and
    scored on the holdout copy once; a fit listed again repeats its
    first row under its own label. The benchmark row's label is "best_"
    plus its policy's own, so a listed best_uniform names the same arm.

    The SEs are the ideal bootstrap's, exactly: the plug-in SD (ddof 0) of
    the per-row IPW terms over sqrt(n) (Efron & Tibshirani 1993, ch. 5-6).
    diff_se_boot takes the terms of (policy - benchmark), as paired
    resampling does: the yardstick for "is the improvement real".
    rel_improvement is relative to the benchmark's point estimate. n_matched
    counts the holdout rows whose assigned arm is the policy's pick, the
    only rows its IPW value rests on; match_rate is their holdout share.
    """
    # n_boot is checked but unused: `evaluate --n-boot` and perfbench/tracer.py's
    # report counter still pass it, until ROADMAP item 3 removes both
    if n_boot < 2:
        raise ConfigError(f"n_boot must be >= 2, got {n_boot}")
    policies = {fit: fit(dataset, split.train_idx) for fit in dict.fromkeys((best_uniform, *fits))}
    holdout = dataset.subset(split.test_idx)
    scored = {fit: _ipw_terms(policy, holdout) for fit, policy in policies.items()}
    bench_terms = scored[best_uniform][0]
    bench_value = float(bench_terms.mean())
    evaluated = {}
    for fit, (terms, n_matched) in scored.items():
        value = float(terms.mean())
        evaluated[fit] = {
            "value": value,
            "se_boot": float(terms.std() / math.sqrt(holdout.n)),
            "abs_improvement": value - bench_value,
            "rel_improvement": (value - bench_value) / bench_value
            if bench_value != 0.0
            else math.nan,
            "diff_se_boot": float((terms - bench_terms).std() / math.sqrt(holdout.n)),
            "n_matched": n_matched,
            "match_rate": n_matched / holdout.n,
        }
    bad = sorted({key for row in evaluated.values() for key, v in row.items()
                  if not math.isfinite(v) and (key != "rel_improvement" or bench_value != 0.0)})
    if bad:
        raise ConfigError(f"report values {bad} are not finite: the outcomes overflow float64")
    return [{"policy": prefix + policies[fit].describe(holdout.arm_names), **evaluated[fit]}
            for prefix, fit in [("best_", best_uniform), *(("", fit) for fit in fits)]]
