"""Assignment policies and their evaluation: best uniform arm, the OLS
policy (the per-arm linear model of `estimation`), inverse-propensity-
weighted value estimation on a holdout, exact evaluation against the
sealed potential outcomes of synthetic data, and a bootstrap gain report
against the best-uniform benchmark.

A policy is any object with assign(dataset) -> arm index per row and
describe(arm_names) -> report label, naming arms as the dataset does; a fit
maps training rows to a policy. Fits and evaluators take the rows they
work on: gain_report, which owns the train/holdout split, builds each side
once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import check_addressable, stream
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


def best_uniform(train: ExperimentDataset) -> UniformPolicy:
    """Arm with the highest training mean outcome; ties -> lowest index."""
    means = per_arm_means(train, "training rows")
    return UniformPolicy(int(np.argmax(means)))


def fit_ols_policy(train: ExperimentDataset) -> LinearTLearner:
    """The per-arm linear model fitted on the training rows, used as a
    policy: each unit gets the arm with the highest predicted outcome."""
    return fit_per_arm(train)


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
    seed: int = 0,
) -> list[dict]:
    """IPW values on the holdout with bootstrap SEs, benchmarked against the
    best uniform arm found on the training side (always the first row).

    Each distinct fit, best_uniform included, is fitted on the training
    side, scored on the holdout and resampled once; a fit listed again
    repeats its first row under its own label. The benchmark row's label is
    "best_" plus its policy's own, so a listed best_uniform names the same arm.

    diff_se_boot is the SE of (policy - benchmark) under paired resampling,
    the right yardstick for "is the improvement real"; rel_improvement is
    relative to the benchmark's point estimate. n_matched counts the holdout
    rows whose assigned arm is the policy's pick, the only rows its IPW
    value rests on, and match_rate is their share of the holdout.
    """
    if n_boot < 2:
        raise ConfigError(f"n_boot must be >= 2, got {n_boot}")
    check_addressable("an n_boot x policies bootstrap table", n_boot, len(fits) + 1)
    train = dataset.subset(split.train_idx)
    policies = {fit: fit(train) for fit in dict.fromkeys((best_uniform, *fits))}
    del train
    holdout = dataset.subset(split.test_idx)
    scored = {fit: _ipw_terms(policy, holdout) for fit, policy in policies.items()}
    # one index draw per resample, shared by every policy, keeps the
    # resamples paired across policies
    boot_vals = np.empty((len(scored), n_boot))
    rng = stream(seed)
    for b in range(n_boot):
        idx = rng.integers(0, holdout.n, size=holdout.n)
        for j, (terms, _) in enumerate(scored.values()):
            boot_vals[j, b] = terms[idx].mean()
    bench_value = float(scored[best_uniform][0].mean())
    evaluated = {}
    for (fit, (terms, n_matched)), boot in zip(scored.items(), boot_vals):
        value = float(terms.mean())
        evaluated[fit] = {
            "value": value,
            "se_boot": float(boot.std(ddof=1)),
            "abs_improvement": value - bench_value,
            "rel_improvement": (value - bench_value) / bench_value
            if bench_value != 0.0
            else math.nan,
            "diff_se_boot": float((boot - boot_vals[0]).std(ddof=1)),
            "n_matched": n_matched,
            "match_rate": n_matched / holdout.n,
        }
    bad = sorted({key for row in evaluated.values() for key, v in row.items()
                  if not math.isfinite(v) and (key != "rel_improvement" or bench_value != 0.0)})
    if bad:
        raise ConfigError(f"report values {bad} are not finite: the outcomes overflow float64")
    return [{"policy": prefix + policies[fit].describe(holdout.arm_names), **evaluated[fit]}
            for prefix, fit in [("best_", best_uniform), *(("", fit) for fit in fits)]]
