"""Experiment data container, synthetic generator with known ground truth,
train/test splitting, and the CSV interchange format.

A dataset is one row per unit: opaque unit_id, covariate vector, assigned
arm, observed outcome, and the (known) assignment propensity. Synthetic
data additionally yields a sealed n x m matrix of all potential outcomes,
kept in a separate object so estimation and policy fitting can never touch
it; only the oracle evaluator accepts it.

CSV goes column by column both ways: write_csv formats each column in one
pass, and load_csv parses a file with no quote and no carriage return with
numpy's C reader, any other with a csv-module row loop that gives the same
dataset or the error naming the row and column.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import warnings
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._util import atomic_write, check_addressable, csv_bytes, fields_of, read_fields, stream
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
    bernoulli(q). Columns are drawn independently. A field the kind does not
    use must keep its default."""

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
        for name in ("mean", "sd") if self.kind == "bernoulli" else ("q",):
            value = getattr(self, name)
            if value != getattr(CovariateSpec, name):
                raise ConfigError(f"a {self.kind} covariate does not use {name}, got {name} = {value!r}")

    @property
    def variance(self) -> float:
        return self.sd**2 if self.kind == "normal" else self.q * (1.0 - self.q)

    @property
    def expectation(self) -> float:
        return self.mean if self.kind == "normal" else self.q

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "normal":
            return self.mean + self.sd * rng.standard_normal(n)
        return (rng.uniform(size=n) < self.q).astype(float)


# --------------------------------------------------------------------------
# the dataset itself


@dataclass(frozen=True)
class ExperimentDataset:
    """Immutable container for one randomized experiment.

    The propensity is a known function of the arm alone: construction
    checks that each arm's propensities are constant and (when all arms
    appear) sum to one across arms.
    """

    unit_ids: tuple[str, ...]
    x: np.ndarray
    arm: np.ndarray
    outcome: np.ndarray
    propensity: np.ndarray
    arm_names: tuple[str, ...]
    covariate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_ids", tuple(str(u) for u in self.unit_ids))
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "arm", np.asarray(self.arm, dtype=int))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=float))
        object.__setattr__(self, "propensity", np.asarray(self.propensity, dtype=float))
        object.__setattr__(self, "arm_names", tuple(str(a) for a in self.arm_names))
        object.__setattr__(self, "covariate_names", tuple(str(c) for c in self.covariate_names))
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
        if len(self.arm_names) < 2:
            raise DomainError("need at least two arms")
        if len(set(self.arm_names)) < len(self.arm_names):
            repeated = next(a for i, a in enumerate(self.arm_names) if a in self.arm_names[:i])
            raise DomainError(f"arm names must be distinct; {repeated!r} appears more than once")
        if self.arm.min() < 0 or self.arm.max() >= len(self.arm_names):
            raise DomainError("arm indices must lie in [0, number of arms)")
        if np.any(self.propensity <= 0.0) or np.any(self.propensity > 1.0):
            raise DomainError("propensities must lie in (0, 1]")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.outcome))):
            raise DomainError("covariates and outcomes must be finite")
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
            raise DomainError(
                f"per-arm propensities sum to {float(sum(seen))!r}, expected 1 (a CSV names "
                "only the arms it has rows for, so those arms must carry the whole design)"
            )
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

    @property
    def covariate_kinds(self) -> tuple[str, ...]:
        """Each column's kind: binary iff every value is 0 or 1, else continuous."""
        return tuple(
            "binary" if np.all(np.isin(column, (0.0, 1.0))) else "continuous" for column in self.x.T
        )

    def arm_counts(self) -> np.ndarray:
        return np.bincount(self.arm, minlength=self.m)

    def subset(self, indices: Sequence[int]) -> "ExperimentDataset":
        idx = np.asarray(indices, dtype=int)
        return replace(
            self,
            unit_ids=tuple(self.unit_ids[i] for i in idx),
            x=self.x[idx],
            arm=self.arm[idx],
            outcome=self.outcome[idx],
            propensity=self.propensity[idx],
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
        return {**asdict(self), "beta": self.beta.tolist()}

    @staticmethod
    def from_config(doc: dict) -> "SynthDGP":
        return SynthDGP(**read_fields(fields_of(SynthDGP), doc, "dgp"))


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
    check_addressable("an n x m outcome matrix", n, dgp.m)
    check_addressable("an n x p covariate matrix", n, dgp.p)
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
    )
    return dataset, SealedOutcomes(y_all, unit_ids)


def rerandomize_assignment(
    dataset: ExperimentDataset, sealed: SealedOutcomes, seed: int
) -> ExperimentDataset:
    """Fresh uniform arm assignment over the same units; observed outcomes are
    re-read from the sealed matrix. Covariates are unchanged; every
    propensity becomes 1/m, the probability of the new assignment."""
    if dataset.unit_ids != sealed.unit_ids:
        raise DomainError("sealed matrix does not correspond to this dataset")
    rng = stream(seed)
    arms = rng.integers(0, dataset.m, size=dataset.n)
    return replace(
        dataset,
        arm=arms,
        outcome=sealed.y[np.arange(dataset.n), arms],
        propensity=np.full(dataset.n, 1.0 / dataset.m),
    )


# --------------------------------------------------------------------------
# train/test split


@dataclass(frozen=True)
class TrainTestSplit:
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
    return TrainTestSplit(train_idx, test_idx)


# --------------------------------------------------------------------------
# CSV interchange


def write_csv(dataset: ExperimentDataset, path: str | Path) -> None:
    """Columns: unit_id, arm (name), outcome, propensity, then covariates.
    Floats use shortest round-trip formatting; .gz suffix gzips."""
    arm_names = dataset.arm_names
    columns = [
        dataset.unit_ids,
        [arm_names[a] for a in dataset.arm.tolist()],
        dataset.outcome,
        dataset.propensity,
        *dataset.x.T,
    ]
    data = csv_bytes(_FIXED_COLUMNS + dataset.covariate_names, columns)
    if Path(path).suffix == ".gz":
        # mtime=0 keeps the archive byte-identical across reruns
        data = gzip.compress(data, mtime=0)
    atomic_write(path, data)


def load_csv(path: str | Path) -> ExperimentDataset:
    """Read a dataset written by write_csv. Arm names are the sorted
    distinct values, and a covariate is binary iff all its values are 0/1.

    A file with no quote and no carriage return is parsed by numpy's C
    reader; any other file, or one _load_columns turns down, goes through
    the csv-module row loop, which gives the same dataset or the ParseError
    naming the offending row and column.
    """
    path = Path(path)
    text = _read_text(path)
    dataset = _load_columns(text)
    return _load_rows(text, path) if dataset is None else dataset


def _read_text(path: Path) -> str:
    """The whole file as text; a .gz file is decompressed."""
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} cannot be decoded") from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"{path} is not a readable CSV file: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_columns(text: str) -> ExperimentDataset | None:
    """The dataset parsed column-wise by numpy's C reader, or None when the
    file needs the row loop.

    Without quotes and carriage returns, csv.reader splits exactly at "," and
    "\n", as the C reader does, and on every cell both accept, float() and
    the C reader give the same bits. The C reader turns down cells float()
    takes ("1_0", non-ASCII digits) and, given a structured dtype, any row
    without the header's cell count. It skips blank lines, which csv.reader
    rejects, so a row count short of the line count means the row loop; so
    does a line longer than csv.field_size_limit(), as does a non-finite
    value or a propensity <= 0, which the row loop reports by row.
    """
    if '"' in text or "\r" in text:
        return None
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split(",")
    if len(lines) < 2 or tuple(header[:4]) != _FIXED_COLUMNS:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    row = np.dtype([("unit_id", object), ("arm", object), ("values", float, (len(header) - 2,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                lines, dtype=row, delimiter=",", quotechar=None, comments=None, skiprows=1, ndmin=1
            )
    except ValueError:
        return None
    values = table["values"]
    if len(table) != len(lines) - 1 or not np.isfinite(values).all():
        return None
    if np.any(values[:, 1] <= 0.0):
        return None
    return _dataset(
        tuple(header[4:]),
        table["unit_id"].tolist(),
        table["arm"].tolist(),
        values[:, 0].copy(),
        values[:, 1].copy(),
        values[:, 2:].copy(),
    )


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ParseError(f"row {row}: column {column!r} has non-numeric value {value!r}") from None
    if not math.isfinite(out):
        raise ParseError(f"row {row}: column {column!r} must be finite, got {value!r}")
    return out


def _load_rows(text: str, path: Path) -> ExperimentDataset:
    """The dataset parsed row by row by csv.reader, cell by cell by float();
    the first bad row raises a ParseError naming it and its column."""
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"{path} is not a readable CSV file: {exc}") from None
    if header is None:
        raise ParseError("file has no header row")
    if tuple(header[:4]) != _FIXED_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(_FIXED_COLUMNS)}; got {','.join(header[:4])}"
        )
    cov_names = tuple(header[4:])
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
    return _dataset(
        cov_names,
        unit_ids,
        arm_labels,
        np.asarray(outcomes),
        np.asarray(propensities),
        np.asarray(x, dtype=float).reshape(len(rows), len(cov_names)),
    )


def _dataset(
    cov_names: tuple[str, ...],
    unit_ids: list[str],
    arm_labels: list[str],
    outcome: np.ndarray,
    propensity: np.ndarray,
    x: np.ndarray,
) -> ExperimentDataset:
    """Parsed columns as a dataset, arms as load_csv documents them."""
    arm_names = tuple(sorted(set(arm_labels)))
    arm_index = {name: a for a, name in enumerate(arm_names)}
    return ExperimentDataset(
        unit_ids=tuple(unit_ids),
        x=x,
        arm=np.fromiter(map(arm_index.__getitem__, arm_labels), dtype=int, count=len(arm_labels)),
        outcome=outcome,
        propensity=propensity,
        arm_names=arm_names,
        covariate_names=cov_names,
    )
