"""What-if machinery over the simulation engine: predicted gain for a study
described by its moments, parameter sensitivity sweeps, cross-study
counterfactual swaps, and a table of gains under small single-parameter
improvements.

Every operation here holds the base seed fixed across the compared
configurations (common random numbers), so differences between cells are
driven by the parameters, not by resampling noise. Each what-if only lists
its cells, a dict of the row's own fields paired with the profile to
predict; one helper, `_rows`, turns the cells into rows, appending each
cell's gain_mean and gain_se from one `predict_gain` batch, which is one
`simulate_gain` call and one draw layout (a mixed batch raises ConfigError).
Every cell is a NormalMeans config of one SimSettings, so each replication
draws the arm means once, at the cells' largest m, and scores every cell by
its exact expected gain given those means (`simulate`'s means-only path):
the Monte Carlo error is over the means alone, and a profile with s = 0 is
predicted exactly, with SE 0. A cell with the largest m is bit-identical to
predicting it alone; one with fewer arms uses the first m drawn means,
within Monte Carlo error of a lone prediction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

from ._util import fields_of, read_fields
from .errors import ConfigError
from .simulate import NormalMeans, SimConfig, rho_lower_bound, simulate_gain

__all__ = [
    "StudyProfile",
    "SimSettings",
    "predict_gain",
    "sensitivity_sweep",
    "counterfactual_swap",
    "elasticity_table",
]

_SWEEPABLE = ("s", "sigma", "rho", "sigma_eps", "m")


@dataclass(frozen=True)
class StudyProfile:
    """A study reduced to the five quantities the gain model consumes.

    Average responses are modeled as Normal(mean, s^2); `mean` is the
    study's grand mean outcome and only shifts both policy values equally,
    so it never moves the gain. The parameters obey the simulator's rules,
    which `SimConfig` holds.
    """

    name: str
    s: float
    sigma: float
    rho: float
    sigma_eps: float
    m: int
    mean: float = 0.0
    outcome_scale_note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _sim_config(self, SimSettings()).m)

    def to_config(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_config(doc: dict) -> "StudyProfile":
        return StudyProfile(**read_fields(fields_of(StudyProfile), doc, "profile"))


@dataclass(frozen=True)
class SimSettings:
    """How hard to run the simulator for analysis queries; `SimConfig` and
    `simulate_gain` check the values."""

    n_individuals: int = 10_000
    n_replications: int = 500
    seed: int = 0
    n_jobs: int = 1


def _sim_config(profile: StudyProfile, settings: SimSettings) -> SimConfig:
    return SimConfig(
        m=profile.m,
        sigma=profile.sigma,
        rho=profile.rho,
        dist=NormalMeans(mean=profile.mean, s=profile.s),
        sigma_eps=profile.sigma_eps,
        n_individuals=settings.n_individuals,
        n_replications=settings.n_replications,
        seed=settings.seed,
    )


def predict_gain(
    profile: StudyProfile | Sequence[StudyProfile],
    settings: SimSettings = SimSettings(),
) -> tuple[float, float] | list[tuple[float, float]]:
    """Expected personalization gain for the study, with its MC standard
    error. Given a sequence of profiles instead, one (gain, se) pair per
    profile from one batched simulation; a pair is bit-identical to the
    single-profile call when no profile in the batch has more arms. Every
    what-if reaches the simulator through this batch, by way of `_rows`."""
    single = isinstance(profile, StudyProfile)
    profiles = [profile] if single else profile
    results = simulate_gain([_sim_config(p, settings) for p in profiles], n_jobs=settings.n_jobs)
    pairs = [(r.gain_mean, r.gain_se) for r in results]
    return pairs[0] if single else pairs


def _rows(cells: Sequence[tuple[dict, StudyProfile]], settings: SimSettings) -> list[dict]:
    """The one path from what-if cells to output rows: each cell's fields
    followed by its profile's gain_mean and gain_se, all the profiles
    predicted in one `predict_gain` batch."""
    gains = predict_gain([profile for _, profile in cells], settings)
    return [{**fields, "gain_mean": g, "gain_se": se}
            for (fields, _), (g, se) in zip(cells, gains)]


def sensitivity_sweep(
    profile: StudyProfile,
    parameter: str,
    grid: Sequence[float],
    settings: SimSettings = SimSettings(),
) -> list[dict]:
    """Gain at each grid value of one parameter, everything else at
    baseline: one row per value, in ascending order, with `is_baseline`
    marking the profile's own value.

    All points share the settings seed, so per-replication draws are common
    across the grid and monotone parameter effects show up per-seed, not
    just on average.
    """
    if len(grid) == 0:
        raise ConfigError("grid must contain at least one value")
    if parameter not in _SWEEPABLE:
        raise ConfigError(f"parameter must be one of {_SWEEPABLE}, got {parameter!r}")
    cells = [({"parameter": parameter, "value": getattr(cell, parameter)}, cell)
             for cell in (replace(profile, **{parameter: v}) for v in sorted(map(float, grid)))]
    baseline = float(getattr(profile, parameter))
    return [{**row, "is_baseline": int(row["value"] == baseline)}
            for row in _rows(cells, settings)]


def counterfactual_swap(
    profile_a: StudyProfile,
    profile_b: StudyProfile,
    parameter: str,
    settings: SimSettings = SimSettings(),
) -> list[dict]:
    """Four cells: each study at its own value of the focal parameter, and
    with the other study's value substituted. Same seed everywhere."""
    if parameter not in _SWEEPABLE:
        raise ConfigError(f"swap parameter must be one of {_SWEEPABLE}, got {parameter!r}")
    pairs = ((profile_a, profile_a), (profile_a, profile_b),
             (profile_b, profile_b), (profile_b, profile_a))
    cells = [({"study": host.name, "parameter": parameter, "value_used": getattr(donor, parameter),
               "source": "own" if donor is host else donor.name},
              replace(host, **{parameter: getattr(donor, parameter)}))
             for host, donor in pairs]
    return _rows(cells, settings)


def elasticity_table(
    profile: StudyProfile,
    delta: float = 0.01,
    settings: SimSettings = SimSettings(),
) -> list[dict]:
    """Gain under each single-parameter improvement, against baseline.

    s, sigma and sigma_eps move by a `delta` fraction of their current
    value (s down, sigma up, sigma_eps down). rho moves DOWN by `delta` in
    absolute correlation points (floored at the PSD bound): a proportional
    cut would shrink to nothing exactly where correlation stops mattering,
    making the comparison across parameters regime-dependent.

    The first row is the baseline; the `best` field on every row names the
    improvement with the highest gain. Same seed for all rows.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    rho_floor = rho_lower_bound(profile.m)
    variants = [
        ("s_down", "s", profile.s * (1.0 - delta)),
        ("sigma_up", "sigma", profile.sigma * (1.0 + delta)),
        ("rho_down", "rho", max(profile.rho - delta, rho_floor)),
        ("sigma_eps_down", "sigma_eps", profile.sigma_eps * (1.0 - delta)),
    ]
    baseline = {"change": "baseline", "parameter": "", "old_value": math.nan,
                "new_value": math.nan}
    cells = [(baseline, profile)] + [
        ({"change": change, "parameter": parameter, "old_value": getattr(profile, parameter),
          "new_value": new_value}, replace(profile, **{parameter: new_value}))
        for change, parameter, new_value in variants
    ]
    rows = _rows(cells, settings)
    best = max(rows[1:], key=lambda r: r["gain_mean"])["change"]
    return [{**row, "gain_delta": row["gain_mean"] - rows[0]["gain_mean"], "best": best}
            for row in rows]
