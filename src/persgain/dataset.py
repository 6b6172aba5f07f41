"""Experiment data container, synthetic generator with known ground truth,
train/test splitting, and the CSV interchange format.

A dataset is one row per unit: opaque unit_id, covariate vector, assigned
arm, observed outcome, and the (known) assignment propensity. Synthetic
data additionally yields a sealed n x m matrix of all potential outcomes,
kept in a separate object so estimation and policy fitting can never touch
it; only the oracle evaluator accepts it.
"""

from __future__ import annotations

import csv
import gzip
import math
import zlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from ._util import atomic_write, csv_bytes, stream, typed, typed_list
from .errors import ConfigError, DomainError, ParseError

__all__ = [
    "CovariateSpec",
    "ExperimentDataset",
    "SealedOutcomes",
    "SynthDGP",
    "one_factor_dgp",
    "generate_synthetic",
    "rerandomize_assignment",
    "TrainTestSplit",
    "split",
    "load_csv",
    "write_csv",
]

_FIXED_COLUMNS = ("unit_id", "arm", "outcome", "propensity")


# --------------------------------------------------------------------------
# covariate distributions for the synthetic generator


@dataclass(frozen=True)
class CovariateSpec:
    """Marginal distribution of one covariate column: normal(mean, sd) or
    bernoulli(q). Columns are drawn independently."""

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    q: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "bernoulli"):
            raise ConfigError(f"covariate kind must be 'normal' or 'bernoulli', got {self.kind!r}")
        if self.kind == "normal" and (self.sd < 0 or not math.isfinite(self.sd)):
            raise ConfigError(f"normal covariate needs sd >= 0, got {self.sd}")
        if self.kind == "bernoulli" and not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"bernoulli covariate needs q in [0, 1], got {self.q}")

    @property
    def variance(self) -> float:
        return self.sd**2 if self.kind == "normal" else self.q * (1.0 - self.q)

    @property
    def expectation(self) -> float:
        return self.mean if self.kind == "normal" else self.q

    @property
    def schema_kind(self) -> str:
        return "continuous" if self.kind == "normal" else "binary"

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "normal":
            return self.mean + self.sd * rng.standard_normal(n)
        return (rng.uniform(size=n) < self.q).astype(float)

    def to_config(self) -> dict:
        if self.kind == "normal":
            return {"kind": "normal", "mean": self.mean, "sd": self.sd}
        return {"kind": "bernoulli", "q": self.q}

    @staticmethod
    def from_config(doc: dict) -> "CovariateSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ConfigError("covariate spec must be an object with a 'kind' field")
        if doc["kind"] == "normal":
            return CovariateSpec(
                "normal",
                mean=typed(float, doc.get("mean", 0.0), "covariate mean"),
                sd=typed(float, doc.get("sd", 1.0), "covariate sd"),
            )
        if doc["kind"] == "bernoulli":
            return CovariateSpec("bernoulli", q=typed(float, doc.get("q", 0.5), "covariate q"))
        raise ConfigError(f"unknown covariate kind {doc['kind']!r}")


# --------------------------------------------------------------------------
# the dataset itself


@dataclass(frozen=True)
class ExperimentDataset:
    """Immutable container for one randomized experiment.

    `randomized` marks designs where the propensity is a known function of
    the arm alone; construction then checks that each arm's propensities
    are constant and (when all arms appear) sum to one across arms.
    """

    unit_ids: tuple[str, ...]
    x: np.ndarray
    arm: np.ndarray
    outcome: np.ndarray
    propensity: np.ndarray
    arm_names: tuple[str, ...]
    covariate_names: tuple[str, ...]
    covariate_kinds: tuple[str, ...]
    randomized: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_ids", tuple(str(u) for u in self.unit_ids))
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "arm", np.asarray(self.arm, dtype=int))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=float))
        object.__setattr__(self, "propensity", np.asarray(self.propensity, dtype=float))
        object.__setattr__(self, "arm_names", tuple(str(a) for a in self.arm_names))
        object.__setattr__(self, "covariate_names", tuple(str(c) for c in self.covariate_names))
        object.__setattr__(self, "covariate_kinds", tuple(str(k) for k in self.covariate_kinds))
        n = len(self.unit_ids)
        if n == 0:
            raise DomainError("dataset must contain at least one row")
        if self.x.shape != (n, len(self.covariate_names)):
            raise DomainError(
                f"covariate matrix shape {self.x.shape} does not match "
                f"{n} rows x {len(self.covariate_names)} named columns"
            )
        for arr, name in ((self.arm, "arm"), (self.outcome, "outcome"), (self.propensity, "propensity")):
            if arr.shape != (n,):
                raise DomainError(f"{name} must have one entry per row")
        if len(self.covariate_kinds) != len(self.covariate_names):
            raise DomainError("covariate_kinds must match covariate_names in length")
        for kind in self.covariate_kinds:
            if kind not in ("continuous", "binary"):
                raise DomainError(f"covariate kind must be continuous|binary, got {kind!r}")
        for j, kind in enumerate(self.covariate_kinds):
            if kind == "binary" and not np.all(np.isin(self.x[:, j], (0.0, 1.0))):
                raise DomainError(f"covariate {self.covariate_names[j]!r} is binary but has values outside {{0, 1}}")
        if len(self.arm_names) < 2:
            raise DomainError("need at least two arms")
        if self.arm.min() < 0 or self.arm.max() >= len(self.arm_names):
            raise DomainError("arm indices must lie in [0, number of arms)")
        if np.any(self.propensity <= 0.0) or np.any(self.propensity > 1.0):
            raise DomainError("propensities must lie in (0, 1]")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.outcome))):
            raise DomainError("covariates and outcomes must be finite")
        if self.randomized:
            seen = []
            for a in range(len(self.arm_names)):
                e_a = self.propensity[self.arm == a]
                if e_a.size == 0:
                    continue
                if e_a.max() - e_a.min() > 1e-12:
                    raise DomainError(
                        f"randomized design requires a single propensity per arm; "
                        f"arm {self.arm_names[a]!r} varies"
                    )
                seen.append(e_a[0])
            if len(seen) == len(self.arm_names) and abs(sum(seen) - 1.0) > 1e-9:
                raise DomainError(f"per-arm propensities sum to {sum(seen)!r}, expected 1")
        self.x.setflags(write=False)
        self.arm.setflags(write=False)
        self.outcome.setflags(write=False)
        self.propensity.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def m(self) -> int:
        return len(self.arm_names)

    @property
    def p(self) -> int:
        return len(self.covariate_names)

    def arm_counts(self) -> np.ndarray:
        return np.bincount(self.arm, minlength=self.m)

    def subset(self, indices: Sequence[int]) -> "ExperimentDataset":
        idx = np.asarray(indices, dtype=int)
        return ExperimentDataset(
            unit_ids=tuple(self.unit_ids[i] for i in idx),
            x=self.x[idx],
            arm=self.arm[idx],
            outcome=self.outcome[idx],
            propensity=self.propensity[idx],
            arm_names=self.arm_names,
            covariate_names=self.covariate_names,
            covariate_kinds=self.covariate_kinds,
            randomized=self.randomized,
        )

    def schema_doc(self) -> dict:
        return {
            "arm_names": list(self.arm_names),
            "covariate_names": list(self.covariate_names),
            "covariate_kinds": list(self.covariate_kinds),
        }


@dataclass(frozen=True)
class SealedOutcomes:
    """Full n x m potential-outcome matrix for oracle evaluation only.

    Deliberately not a member of ExperimentDataset: estimators and policy
    fitting take datasets, and nothing in those code paths can reach this
    object unless a caller hands it over explicitly.
    """

    y: np.ndarray
    unit_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "unit_ids", tuple(str(u) for u in self.unit_ids))
        if self.y.ndim != 2 or self.y.shape[0] != len(self.unit_ids):
            raise DomainError("sealed matrix must be n x m with one row per unit")
        self.y.setflags(write=False)


# --------------------------------------------------------------------------
# synthetic DGP


@dataclass(frozen=True)
class SynthDGP:
    """Linear-Gaussian generating process: h^a(x) = intercept_a + beta_a . x,
    observed outcome h^{arm}(x) + noise. Ground-truth moments are exact
    functions of (beta, covariate variances, intercepts)."""

    intercepts: tuple[float, ...]
    beta: np.ndarray
    covariates: tuple[CovariateSpec, ...]
    noise_sd: float
    outcome_kind: str = "gaussian"
    arm_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intercepts", tuple(float(v) for v in self.intercepts))
        object.__setattr__(self, "beta", np.atleast_2d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        m = len(self.intercepts)
        if m < 2:
            raise ConfigError("need at least two arms")
        if self.beta.shape != (m, len(self.covariates)):
            raise ConfigError(
                f"beta shape {self.beta.shape} must be (arms={m}, covariates={len(self.covariates)})"
            )
        if len(self.covariates) == 0:
            raise ConfigError("need at least one covariate")
        if self.noise_sd < 0 or not math.isfinite(self.noise_sd):
            raise ConfigError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.outcome_kind not in ("gaussian", "bernoulli-latent"):
            raise ConfigError(f"outcome_kind must be gaussian|bernoulli-latent, got {self.outcome_kind!r}")
        if not self.arm_names:
            object.__setattr__(self, "arm_names", tuple(f"arm_{a}" for a in range(m)))
        if len(self.arm_names) != m:
            raise ConfigError("arm_names must match the number of intercepts")
        self.beta.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.intercepts)

    @property
    def p(self) -> int:
        return len(self.covariates)

    def signal_cov(self) -> np.ndarray:
        """Covariance matrix of (h^1(x), ..., h^m(x)) implied by beta."""
        d = np.diag([c.variance for c in self.covariates])
        return self.beta @ d @ self.beta.T

    def true_sigma(self) -> float:
        return float(np.mean(np.sqrt(np.diag(self.signal_cov()))))

    def true_rho_matrix(self) -> np.ndarray:
        cov = self.signal_cov()
        sd = np.sqrt(np.diag(cov))
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = cov / np.outer(sd, sd)
        rho[~np.isfinite(rho)] = 0.0
        np.fill_diagonal(rho, 1.0)
        return rho

    def true_rho_mean(self) -> float:
        rho = self.true_rho_matrix()
        iu = np.triu_indices(self.m, k=1)
        return float(rho[iu].mean())

    def true_arm_means(self) -> np.ndarray:
        ex = np.array([c.expectation for c in self.covariates])
        return np.asarray(self.intercepts) + self.beta @ ex

    def true_s(self) -> float:
        return float(np.std(self.true_arm_means(), ddof=1))

    def to_config(self) -> dict:
        return {
            "intercepts": list(self.intercepts),
            "beta": self.beta.tolist(),
            "covariates": [c.to_config() for c in self.covariates],
            "noise_sd": self.noise_sd,
            "outcome_kind": self.outcome_kind,
            "arm_names": list(self.arm_names),
        }

    @staticmethod
    def from_config(doc: dict) -> "SynthDGP":
        if not isinstance(doc, dict):
            raise ConfigError(f"dgp config must be a JSON object, got {doc!r}")
        required = {"intercepts", "beta", "covariates", "noise_sd"}
        missing = required - set(doc)
        if missing:
            raise ConfigError(f"dgp config missing fields: {sorted(missing)}")
        covariates = typed(list, doc["covariates"], "dgp covariates")
        return SynthDGP(
            intercepts=typed_list(float, doc["intercepts"], "dgp intercepts"),
            beta=typed(partial(np.asarray, dtype=float), doc["beta"], "dgp beta"),
            covariates=tuple(CovariateSpec.from_config(c) for c in covariates),
            noise_sd=typed(float, doc["noise_sd"], "dgp noise_sd"),
            outcome_kind=doc.get("outcome_kind", "gaussian"),
            arm_names=tuple(typed(list, doc.get("arm_names", ()), "dgp arm_names")),
        )


def one_factor_dgp(
    m: int,
    sigma: float,
    rho: float,
    intercepts: Sequence[float],
    noise_sd: float,
    outcome_kind: str = "gaussian",
) -> SynthDGP:
    """DGP hitting Var(h^a) = sigma^2 and corr(h^a, h^b) = rho exactly.

    Uses p = m + 1 standard-normal covariates: one shared factor loading
    sigma * sqrt(rho) on every arm plus one arm-specific factor loading
    sigma * sqrt(1 - rho). Requires 0 <= rho <= 1.
    """
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"one-factor construction needs rho in [0, 1], got {rho}")
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    beta = np.zeros((m, m + 1))
    beta[:, 0] = sigma * math.sqrt(rho)
    for a in range(m):
        beta[a, 1 + a] = sigma * math.sqrt(1.0 - rho)
    covariates = tuple(CovariateSpec("normal") for _ in range(m + 1))
    return SynthDGP(tuple(intercepts), beta, covariates, noise_sd, outcome_kind)


def generate_synthetic(dgp: SynthDGP, n: int, seed: int) -> tuple[ExperimentDataset, SealedOutcomes]:
    """Draw covariates, assign arms uniformly (propensity 1/m), and realize
    outcomes. The full potential-outcome matrix (noise realized per cell, so
    the observed outcome is literally one sealed entry) comes back separately."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    rng = stream(seed)
    x = np.column_stack([c.draw(n, rng) for c in dgp.covariates])
    arms = rng.integers(0, dgp.m, size=n)
    h = np.asarray(dgp.intercepts) + x @ dgp.beta.T
    y_all = h + dgp.noise_sd * rng.standard_normal((n, dgp.m))
    if dgp.outcome_kind == "bernoulli-latent":
        prob = np.clip(y_all, 0.0, 1.0)
        y_all = (rng.uniform(size=(n, dgp.m)) < prob).astype(float)
    unit_ids = tuple(f"u{i:07d}" for i in range(n))
    dataset = ExperimentDataset(
        unit_ids=unit_ids,
        x=x,
        arm=arms,
        outcome=y_all[np.arange(n), arms],
        propensity=np.full(n, 1.0 / dgp.m),
        arm_names=dgp.arm_names,
        covariate_names=tuple(f"x{j}" for j in range(dgp.p)),
        covariate_kinds=tuple(c.schema_kind for c in dgp.covariates),
    )
    return dataset, SealedOutcomes(y_all, unit_ids)


def rerandomize_assignment(
    dataset: ExperimentDataset, sealed: SealedOutcomes, seed: int
) -> ExperimentDataset:
    """Fresh uniform arm assignment over the same units; observed outcomes are
    re-read from the sealed matrix. Covariates and propensities unchanged."""
    if dataset.unit_ids != sealed.unit_ids:
        raise DomainError("sealed matrix does not correspond to this dataset")
    rng = stream(seed)
    arms = rng.integers(0, dataset.m, size=dataset.n)
    return ExperimentDataset(
        unit_ids=dataset.unit_ids,
        x=dataset.x,
        arm=arms,
        outcome=sealed.y[np.arange(dataset.n), arms],
        propensity=dataset.propensity,
        arm_names=dataset.arm_names,
        covariate_names=dataset.covariate_names,
        covariate_kinds=dataset.covariate_kinds,
        randomized=dataset.randomized,
    )


# --------------------------------------------------------------------------
# train/test split


@dataclass(frozen=True)
class TrainTestSplit:
    train_fraction: float
    seed: int
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_idx", np.asarray(self.train_idx, dtype=int))
        object.__setattr__(self, "test_idx", np.asarray(self.test_idx, dtype=int))
        self.train_idx.setflags(write=False)
        self.test_idx.setflags(write=False)


def split(dataset: ExperimentDataset, train_fraction: float, seed: int) -> TrainTestSplit:
    """Arm-stratified random partition.

    The global train size is round(fraction * n); per-arm counts start at
    floor(fraction * n_a) and the remainder goes to the arms with the
    largest fractional parts (ties to the lower arm index), keeping every
    arm within one unit of its proportional share.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = dataset.n
    target = int(round(train_fraction * n))
    if target == 0 or target == n:
        raise DomainError(
            f"train_fraction {train_fraction} leaves an empty side for n = {n}"
        )
    counts = dataset.arm_counts()
    base = np.floor(train_fraction * counts).astype(int)
    remainder = train_fraction * counts - base
    extras = target - int(base.sum())
    take = base.copy()
    if extras > 0:
        # lexsort: secondary key first; picks largest remainders, low arm on ties
        order = np.lexsort((np.arange(dataset.m), -remainder))
        for a in order[:extras]:
            take[a] += 1
    rng = stream(seed)
    train_parts = []
    for a in range(dataset.m):
        idx_a = np.flatnonzero(dataset.arm == a)
        perm = rng.permutation(idx_a)
        train_parts.append(perm[: take[a]])
    train_idx = np.sort(np.concatenate(train_parts)).astype(int)
    mask = np.ones(n, dtype=bool)
    mask[train_idx] = False
    test_idx = np.flatnonzero(mask)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DomainError("split produced an empty side")
    return TrainTestSplit(train_fraction, seed, train_idx, test_idx)


# --------------------------------------------------------------------------
# CSV interchange


def write_csv(dataset: ExperimentDataset, path: str | Path) -> None:
    """Columns: unit_id, arm (name), outcome, propensity, then covariates.
    Floats use shortest round-trip formatting; .gz suffix gzips."""
    arm_names = dataset.arm_names
    rows = (
        [uid, arm_names[a], y, e, *x]
        for uid, a, y, e, x in zip(
            dataset.unit_ids,
            dataset.arm.tolist(),
            dataset.outcome.tolist(),
            dataset.propensity.tolist(),
            dataset.x.tolist(),
        )
    )
    data = csv_bytes(_FIXED_COLUMNS + dataset.covariate_names, rows)
    if Path(path).suffix == ".gz":
        # mtime=0 keeps the archive byte-identical across reruns
        data = gzip.compress(data, mtime=0)
    atomic_write(path, data)


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ParseError(f"row {row}: column {column!r} has non-numeric value {value!r}") from None
    if not math.isfinite(out):
        raise ParseError(f"row {row}: column {column!r} must be finite, got {value!r}")
    return out


def load_csv(
    path: str | Path,
    schema: dict | None = None,
    randomized: bool = True,
) -> ExperimentDataset:
    """Read a dataset written by write_csv.

    `schema` (as produced by ExperimentDataset.schema_doc) fixes the arm-name
    order and covariate kinds; without it, arm names are the sorted distinct
    values and a covariate is binary iff all its values are 0/1.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} cannot be decoded") from None
    except (csv.Error, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"{path} is not a readable CSV file: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    if header is None:
        raise ParseError("file has no header row")
    if tuple(header[:4]) != _FIXED_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(_FIXED_COLUMNS)}; got {','.join(header[:4])}"
        )
    cov_names = tuple(header[4:])
    if schema is not None:
        want = tuple(schema["covariate_names"])
        if cov_names != want:
            raise ParseError(
                f"covariate columns {list(cov_names)} do not match schema {list(want)}"
            )
    if not rows:
        raise ParseError("file has a header but no data rows")
    unit_ids, arm_labels, outcomes, propensities, x = [], [], [], [], []
    for i, row in enumerate(rows, start=1):
        if len(row) != 4 + len(cov_names):
            raise ParseError(f"row {i}: expected {4 + len(cov_names)} cells, got {len(row)}")
        unit_ids.append(row[0])
        arm_labels.append(row[1])
        outcomes.append(_parse_float(row[2], i, "outcome"))
        e = _parse_float(row[3], i, "propensity")
        if e <= 0.0:
            raise ParseError(f"row {i}: propensity must be > 0, got {row[3]}")
        propensities.append(e)
        x.append([_parse_float(v, i, c) for v, c in zip(row[4:], cov_names)])
    if schema is not None:
        arm_names = tuple(schema["arm_names"])
        kinds = tuple(schema["covariate_kinds"])
    else:
        arm_names = tuple(sorted(set(arm_labels)))
        x_arr = np.asarray(x, dtype=float) if cov_names else np.empty((len(rows), 0))
        kinds = tuple(
            "binary" if cov_names and np.all(np.isin(x_arr[:, j], (0.0, 1.0))) else "continuous"
            for j in range(len(cov_names))
        )
    arm_index = {name: a for a, name in enumerate(arm_names)}
    arm = []
    for i, label in enumerate(arm_labels, start=1):
        if label not in arm_index:
            raise ParseError(f"row {i}: unknown arm {label!r}; known arms: {list(arm_names)}")
        arm.append(arm_index[label])
    return ExperimentDataset(
        unit_ids=tuple(unit_ids),
        x=np.asarray(x, dtype=float).reshape(len(rows), len(cov_names)),
        arm=np.asarray(arm),
        outcome=np.asarray(outcomes),
        propensity=np.asarray(propensities),
        arm_names=arm_names,
        covariate_names=cov_names,
        covariate_kinds=kinds,
        randomized=randomized,
    )
