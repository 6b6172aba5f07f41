"""Assignment policies and their evaluation: best uniform arm, the OLS
policy (the per-arm linear model of `estimation`), inverse-propensity-
weighted value estimation on a holdout, exact evaluation against the
sealed potential outcomes of synthetic data, and a bootstrap gain report
against the best-uniform benchmark.

A policy is any object with assign(dataset) -> arm index per row and
describe() -> report label; a fit maps training rows to a policy. Fits and
evaluators take the rows they work on: gain_report, which owns the
train/holdout split, builds each side once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import check_addressable, stream
from .dataset import ExperimentDataset, SealedOutcomes, TrainTestSplit
from .errors import ConfigError, DomainError
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
            raise DomainError(f"arm index must be >= 0, got {self.arm}")

    def assign(self, dataset: ExperimentDataset) -> np.ndarray:
        if self.arm >= dataset.m:
            raise DomainError(f"policy arm {self.arm} not present in a {dataset.m}-arm dataset")
        return np.full(dataset.n, self.arm, dtype=int)

    def describe(self) -> str:
        return f"uniform[{self.arm}]"


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
            raise DomainError("IPW value must be finite")


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
        raise DomainError(
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

    The benchmark and each fit are fitted on the training side; a fit listed
    again, best_uniform included, is fitted once.

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
    fitted = {}
    for fit in (best_uniform, *fits):
        if fit not in fitted:
            fitted[fit] = fit(train)
    del train
    holdout = dataset.subset(split.test_idx)
    policies = [fitted[fit] for fit in (best_uniform, *fits)]
    labels = [f"best_uniform[{holdout.arm_names[policies[0].arm]}]"]
    labels += [policy.describe() for policy in policies[1:]]
    terms, matched = zip(*(_ipw_terms(policy, holdout) for policy in policies))
    # a policy whose IPW terms repeat an earlier row's (the benchmark listed
    # again as a uniform policy, say) reuses that row's resampled means
    first = [next(i for i, u in enumerate(terms) if np.array_equal(u, t)) for t in terms]
    distinct = [j for j in range(len(terms)) if first[j] == j]
    # one index draw per resample, shared by every policy, keeps the
    # resamples paired across policies
    boot_vals = np.empty((len(policies), n_boot))
    rng = stream(seed)
    for b in range(n_boot):
        idx = rng.integers(0, holdout.n, size=holdout.n)
        for j in distinct:
            boot_vals[j, b] = terms[j][idx].mean()
    boot_vals = boot_vals[first]
    bench_value = float(terms[0].mean())
    rows = []
    for j, (label, t, n_matched) in enumerate(zip(labels, terms, matched)):
        value = float(t.mean())
        rows.append(
            {
                "policy": label,
                "value": value,
                "se_boot": float(boot_vals[j].std(ddof=1)),
                "abs_improvement": value - bench_value,
                "rel_improvement": (value - bench_value) / bench_value
                if bench_value != 0.0
                else math.nan,
                "diff_se_boot": float((boot_vals[j] - boot_vals[0]).std(ddof=1)),
                "n_matched": n_matched,
                "match_rate": n_matched / holdout.n,
            }
        )
    return rows
