"""Experiment data container, synthetic generator with known ground truth,
train/test splitting, and the CSV interchange format.

A dataset is one row per unit: opaque unit_id, covariate vector, assigned
arm, observed outcome, and the (known) assignment propensity. Synthetic
data additionally yields a sealed n x m matrix of all potential outcomes,
kept in a separate object so estimation and policy fitting can never touch
it; only the oracle evaluator accepts it.

CSV goes column by column both ways, a block of _util.BLOCK_ROWS rows at a
time: write_csv formats each column's slice of a block in one pass and
writes (or gzips) the block before making the next, holding less than the
file's size at once, and load_csv parses a file with no quote and no
carriage return with numpy's C reader, block by block into columns whose
room grows by a quarter when full, holding less than 2.5 times the file's
size at once, the parsed dataset included. Any other file is read whole and
goes through a csv-module row loop that gives the same dataset or the error
naming the row and column.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import math
import re
import struct
import warnings
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.dtypes import StringDType

from . import _util
from ._util import atomic_write, check_addressable, csv_bytes, fields_of, read_fields, stream
from .errors import ConfigError, ParseError

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
# ExperimentDataset's per-row arrays, checked, frozen and subset alike; x (2-D) first
_ROW_FIELDS = ("x", "unit_ids", "arm", "outcome", "propensity")


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
        if self.kind == "normal" and not math.isfinite(self.mean):
            raise ConfigError(f"normal covariate needs a finite mean, got {self.mean}")
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

    unit_ids: np.ndarray
    x: np.ndarray
    arm: np.ndarray
    outcome: np.ndarray
    propensity: np.ndarray
    arm_names: tuple[str, ...]
    covariate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_ids", _text_ids(self.unit_ids))
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "arm", np.asarray(self.arm, dtype=int))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=float))
        object.__setattr__(self, "propensity", np.asarray(self.propensity, dtype=float))
        object.__setattr__(self, "arm_names", tuple(str(a) for a in self.arm_names))
        object.__setattr__(self, "covariate_names", tuple(str(c) for c in self.covariate_names))
        n = len(self.unit_ids)
        if n == 0:
            raise ConfigError("dataset must contain at least one row")
        if self.x.shape != (n, len(self.covariate_names)):
            raise ConfigError(
                f"covariate matrix shape {self.x.shape} does not match "
                f"{n} rows x {len(self.covariate_names)} named columns"
            )
        for name in _ROW_FIELDS[1:]:
            if getattr(self, name).shape != (n,):
                raise ConfigError(f"{name} must have one entry per row")
        if len(self.arm_names) < 2:
            raise ConfigError("need at least two arms")
        # a covariate may not reuse a fixed CSV column's name either
        for kind, names in (("arm", self.arm_names),
                            ("column", _FIXED_COLUMNS + self.covariate_names)):
            if len(set(names)) < len(names):
                repeated = next(a for i, a in enumerate(names) if a in names[:i])
                raise ConfigError(f"{kind} names must be distinct; {repeated!r} appears more than once")
        if self.arm.min() < 0 or self.arm.max() >= len(self.arm_names):
            raise ConfigError("arm indices must lie in [0, number of arms)")
        if np.any(self.propensity <= 0.0) or np.any(self.propensity > 1.0):
            raise ConfigError("propensities must lie in (0, 1]")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.outcome))):
            raise ConfigError("covariates and outcomes must be finite")
        seen = []
        for a in range(len(self.arm_names)):
            e_a = self.propensity[self.arm == a]
            if e_a.size == 0:
                continue
            if e_a.max() - e_a.min() > 1e-12:
                raise ConfigError(
                    f"randomized design requires a single propensity per arm; "
                    f"arm {self.arm_names[a]!r} varies"
                )
            seen.append(e_a[0])
        if len(seen) == len(self.arm_names) and abs(sum(seen) - 1.0) > 1e-9:
            raise ConfigError(
                f"per-arm propensities sum to {float(sum(seen))!r}, expected 1 (a CSV names "
                "only the arms it has rows for, so those arms must carry the whole design)"
            )
        for name in _ROW_FIELDS:
            getattr(self, name).setflags(write=False)

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
        return replace(self, **{name: getattr(self, name)[idx] for name in _ROW_FIELDS})

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
    unit_ids: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "unit_ids", _text_ids(self.unit_ids))
        if self.y.ndim != 2 or self.y.shape[0] != len(self.unit_ids):
            raise ConfigError("sealed matrix must be n x m with one row per unit")
        self.y.setflags(write=False)
        self.unit_ids.setflags(write=False)


def _text_ids(unit_ids) -> np.ndarray:
    """Unit ids as a 1-D StringDType array, which holds an id of up to 15
    UTF-8 bytes inline and sorts as Python sorts str: such an array is kept
    as it is, any other input rebuilt with str() per id. An id UTF-8 cannot
    encode raises a ConfigError naming its row, counted from 0."""
    if isinstance(unit_ids, np.ndarray) and unit_ids.ndim == 1 and unit_ids.dtype == StringDType():
        return unit_ids
    ids = list(map(str, unit_ids))
    try:
        return np.array(ids, dtype=StringDType())
    except UnicodeEncodeError:
        row = next(i for i, uid in enumerate(ids) if _SURROGATE.search(uid))
        raise ConfigError(f"unit id {ids[row]!r} in row {row} cannot be encoded as UTF-8") from None


# the only code points UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")


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
        for name in ("intercepts", "beta"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must all be finite, got {np.ravel(getattr(self, name))}")
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
    # y = (intercepts + x beta') + noise, summed into the noise array
    y_all = rng.standard_normal((n, dgp.m))
    y_all *= dgp.noise_sd
    h = x @ dgp.beta.T
    h += dgp.intercepts
    y_all += h
    del h
    if dgp.outcome_kind == "bernoulli-latent":
        np.clip(y_all, 0.0, 1.0, out=y_all)
        y_all = (rng.uniform(size=(n, dgp.m)) < y_all).astype(float)
    unit_ids = np.empty(n, dtype=StringDType())
    for start in range(0, n, _util.BLOCK_ROWS):
        unit_ids[start : start + _util.BLOCK_ROWS] = [
            f"u{i:07d}" for i in range(start, min(start + _util.BLOCK_ROWS, n))
        ]
    dataset = ExperimentDataset(
        unit_ids=unit_ids,
        x=x,
        arm=arms,
        outcome=y_all[np.arange(n), arms],
        propensity=np.full(n, 1.0 / dgp.m),
        arm_names=dgp.arm_names,
        covariate_names=tuple(f"x{j}" for j in range(dgp.p)),
    )
    return dataset, SealedOutcomes(y_all, dataset.unit_ids)


def rerandomize_assignment(
    dataset: ExperimentDataset, sealed: SealedOutcomes, seed: int
) -> ExperimentDataset:
    """Fresh uniform arm assignment over the same units; observed outcomes are
    re-read from the sealed matrix. Covariates are unchanged; every
    propensity becomes 1/m, the probability of the new assignment."""
    if not np.array_equal(dataset.unit_ids, sealed.unit_ids):
        raise ConfigError("sealed matrix does not correspond to this dataset")
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
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = dataset.n
    target = int(round(train_fraction * n))
    if target == 0 or target == n:
        raise ConfigError(
            f"train_fraction {train_fraction} leaves an empty side for n = {n}"
        )
    counts = dataset.arm_counts()
    take = np.floor(train_fraction * counts).astype(int)
    remainder = train_fraction * counts - take
    extras = target - int(take.sum())
    # lexsort: secondary key first; picks largest remainders, low arm on ties
    take[np.lexsort((np.arange(dataset.m), -remainder))[:extras]] += 1
    rng = stream(seed)
    train_parts = [rng.permutation(np.flatnonzero(dataset.arm == a))[: take[a]]
                   for a in range(dataset.m)]
    train_idx = np.sort(np.concatenate(train_parts)).astype(int)
    test_idx = np.delete(np.arange(n), train_idx)
    if train_idx.size == 0 or test_idx.size == 0:
        raise ConfigError("split produced an empty side")
    return TrainTestSplit(train_idx, test_idx)


# --------------------------------------------------------------------------
# CSV interchange


def write_csv(dataset: ExperimentDataset, path: str | Path) -> None:
    """Columns: unit_id, arm (name), outcome, propensity, then covariates.
    Floats use shortest round-trip formatting; .gz suffix gzips. The text
    is made and written a block of rows at a time."""
    columns = [
        dataset.unit_ids,
        np.array(dataset.arm_names, dtype=object)[dataset.arm],
        dataset.outcome,
        dataset.propensity,
        *dataset.x.T,
    ]
    chunks = csv_bytes(_FIXED_COLUMNS + dataset.covariate_names, columns)
    atomic_write(path, _gzipped(chunks) if Path(path).suffix == ".gz" else chunks)


def _gzipped(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """One gzip member of the chunks' concatenation: the header that
    gzip.compress(data, mtime=0) writes on this Python (its OS byte is
    zlib's on 3.11 and 3.12, 255 before and after), the chunks through one
    raw deflate stream at level 9, then the CRC-32 and length. The file is
    that function's bytes, so reruns are byte-identical."""
    yield gzip.compress(b"", mtime=0)[:10]
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    crc = size = 0
    for chunk in chunks:
        crc, size = zlib.crc32(chunk, crc), size + len(chunk)
        yield deflate.compress(chunk)
        del chunk  # not held while the next block is made
    yield deflate.flush()
    yield struct.pack("<II", crc, size & 0xFFFFFFFF)


def load_csv(path: str | Path) -> ExperimentDataset:
    """Read a dataset written by write_csv. Arm names are the sorted
    distinct values, and a covariate is binary iff all its values are 0/1.

    A file with no quote and no carriage return is parsed by numpy's C
    reader, a block of rows at a time; any other file, or one _load_columns
    turns down, is read whole and goes through the csv-module row loop,
    which gives the same dataset or the ParseError naming the offending row
    and column.
    """
    path = Path(path)
    dataset = _load_columns(path)
    return _load_rows(_read_text(path), path) if dataset is None else dataset


def _open_text(path: Path) -> io.TextIOWrapper:
    """The file as UTF-8 text with "\\n" line ends kept; a .gz file is decompressed."""
    opener = gzip.open if path.suffix == ".gz" else open
    return opener(path, "rt", encoding="utf-8", newline="\n")


def _read_text(path: Path) -> str:
    """The whole file as text less a leading byte-order mark."""
    try:
        with _open_text(path) as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} cannot be decoded") from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"{path} is not a readable CSV file: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_columns(path: Path) -> ExperimentDataset | None:
    """The dataset parsed column-wise by numpy's C reader, a block of
    BLOCK_ROWS lines at a time, or None when the file needs the row loop or
    cannot be read (_read_text then reports why, with the byte offset in
    the whole file).

    Without quotes and carriage returns, csv.reader splits exactly at "," and
    "\\n", as the C reader does, and on every cell both accept, float() and
    the C reader give the same bits. The C reader turns down cells float()
    takes ("1_0", non-ASCII digits) and, given a structured dtype, any row
    without the header's cell count. It skips blank lines, which csv.reader
    rejects, so a block's row count short of its line count means the row
    loop; so does a line longer than csv.field_size_limit(), as does a
    non-finite value or a propensity <= 0, which the row loop reports by row.

    Each block's columns are written into arrays whose room grows by a
    quarter when full, as numpy's own reader grows its result, and is cut to
    the row count at the end: appending costs linear time in all, whatever
    the allocator's realloc does, and no block is kept past its copy into
    the columns. Arm labels become integer codes in order of first sight,
    mapped to the sorted names at the end.
    """
    try:
        with _open_text(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            fields = _parse_blocks(fh)
    except (UnicodeDecodeError, EOFError, zlib.error, OSError):
        return None
    return None if fields is None else ExperimentDataset(**fields)


def _parse_blocks(fh: io.TextIOWrapper) -> dict | None:
    """ExperimentDataset's fields, or None at the first block the row loop must read."""
    limit = csv.field_size_limit()
    first = fh.readline().removeprefix("\ufeff").removesuffix("\n")
    header = first.split(",")
    if '"' in first or "\r" in first or len(first) > limit or tuple(header[:4]) != _FIXED_COLUMNS:
        return None
    p = len(header) - 4
    row = np.dtype([("unit_id", object), ("arm", object), ("values", float, (p + 2,))])
    unit_ids, codes = np.empty(0, dtype=StringDType()), np.empty(0, dtype=int)
    outcome, propensity, x = np.empty(0), np.empty(0), np.empty((0, p))
    columns = (unit_ids, codes, outcome, propensity, x)
    arm_codes = defaultdict()
    arm_codes.default_factory = arm_codes.__len__  # a new label takes the next code
    n = 0
    while block := "".join(itertools.islice(fh, _util.BLOCK_ROWS)):
        if '"' in block or "\r" in block:
            return None
        lines = block.removesuffix("\n").split("\n")
        if max(map(len, lines)) > limit:
            return None
        try:
            table = np.loadtxt(
                lines, dtype=row, delimiter=",", quotechar=None, comments=None, ndmin=1
            )
        except ValueError:
            return None
        values = table["values"]
        if len(table) != len(lines) or not np.isfinite(values).all() or np.any(values[:, 1] <= 0.0):
            return None
        if n + len(table) > len(codes):
            _resize(columns, max(n + len(table), len(codes) * 5 // 4))
        rows = slice(n, n + len(table))
        unit_ids[rows] = table["unit_id"]
        codes[rows] = np.fromiter(map(arm_codes.__getitem__, table["arm"]), dtype=int, count=len(table))
        outcome[rows], propensity[rows], x[rows] = values[:, 0], values[:, 1], values[:, 2:]
        n += len(table)
    if not n:
        return None
    _resize(columns, n)
    arm_names = tuple(sorted(arm_codes))
    arm_of_code = np.empty(len(arm_names), dtype=int)
    arm_of_code[[arm_codes[name] for name in arm_names]] = np.arange(len(arm_names))
    return dict(
        unit_ids=unit_ids,
        x=x,
        arm=arm_of_code[codes],
        outcome=outcome,
        propensity=propensity,
        arm_names=arm_names,
        covariate_names=tuple(header[4:]),
    )


def _resize(columns: Sequence[np.ndarray], rows: int) -> None:
    """Give each column, which owns its buffer and has no views, `rows` rows
    in place; its buffer is reallocated."""
    for column in columns:
        column.resize((rows,) + column.shape[1:], refcheck=False)


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ParseError(f"row {row}: column {column!r} has non-numeric value {value!r}") from None
    if not math.isfinite(out):
        raise ParseError(f"row {row}: column {column!r} must be finite, got {value!r}")
    return out


# one line of text as a file opened with newline="" reads it: ending at
# "\r\n", "\r" or "\n", which it keeps, or at the end of the text
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


def _load_rows(text: str, path: Path) -> ExperimentDataset:
    """The dataset parsed row by row as csv.reader yields each row, cell by
    cell by float(); the first fault in file order raises a ParseError
    naming its row and column. The reader takes the text's lines one by one,
    split as io.StringIO(text, newline="") splits them, with no copy of the
    text beside it."""
    reader = csv.reader(line.group() for line in _LINE.finditer(text))
    unit_ids, arm_labels, outcomes, propensities, x = [], [], [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("file has no header row")
        if tuple(header[:4]) != _FIXED_COLUMNS:
            raise ParseError(
                f"header must start with {','.join(_FIXED_COLUMNS)}; got {','.join(header[:4])}"
            )
        cov_names = tuple(header[4:])
        for i, row in enumerate(reader, start=1):
            if len(row) != 4 + len(cov_names):
                raise ParseError(f"row {i}: expected {4 + len(cov_names)} cells, got {len(row)}")
            unit_ids.append(row[0])
            arm_labels.append(row[1])
            outcomes.append(_parse_float(row[2], i, "outcome"))
            e = _parse_float(row[3], i, "propensity")
            if e <= 0.0:
                raise ParseError(f"row {i}: propensity must be > 0, got {row[3]}")
            propensities.append(e)
            x.extend([_parse_float(v, i, c) for v, c in zip(row[4:], cov_names)])
    except csv.Error as exc:
        raise ParseError(f"{path} is not a readable CSV file: {exc}") from None
    if not unit_ids:
        raise ParseError("file has a header but no data rows")
    arm_names = tuple(sorted(set(arm_labels)))
    arm_index = {name: a for a, name in enumerate(arm_names)}
    return ExperimentDataset(
        unit_ids=unit_ids,
        x=np.asarray(x, dtype=float).reshape(len(unit_ids), len(cov_names)),
        arm=np.fromiter(map(arm_index.__getitem__, arm_labels), dtype=int, count=len(arm_labels)),
        outcome=np.asarray(outcomes),
        propensity=np.asarray(propensities),
        arm_names=arm_names,
        covariate_names=cov_names,
    )
