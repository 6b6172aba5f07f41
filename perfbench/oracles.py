"""Output checks for the benchmark's workloads.

The oracles are computed here with numpy and math only; nothing imports
persgain, so a change to the package cannot change its own yardstick.
Results are compared by value with a tolerance, never by digest: an exact
engine or a shared-draw kernel may legitimately change the bits.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

_SQRT2 = math.sqrt(2.0)

# a Monte Carlo row may sit this many standard errors from its exact value
MAX_Z = 4.0
# printed closed-form values must match the oracle to this absolute tolerance
CLOSED_FORM_TOL = 1e-12


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@functools.lru_cache(maxsize=None)
def expected_max_normal(m: int) -> float:
    """E[max of m i.i.d. N(0, 1)] by the trapezoid rule on [-12, 12]."""
    x = np.linspace(-12.0, 12.0, 24_001)
    cdf = np.array([_norm_cdf(v) for v in x])
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(x * m * pdf * cdf ** (m - 1), x))


def normal_means_gain(s: float, sigma: float, rho: float, sigma_eps: float, m: int, n: int) -> float:
    """Exact expected gain of the simulator's design with arm means drawn
    i.i.d. N(M, s^2) and per-cell prediction noise sigma_eps. The second term
    is the uniform benchmark's in-sample winner's curse."""
    v2 = sigma * sigma * (1.0 - rho)
    s2 = s * s
    personalized = (s2 + v2) / math.sqrt(s2 + v2 + sigma_eps**2)
    uniform = (s2 + v2 / n) / math.sqrt(s2 + (v2 + sigma_eps**2) / n)
    return expected_max_normal(m) * (personalized - uniform)


def two_arm_gain(mu_a: float, mu_b: float, sigma: float, rho: float) -> float:
    """Mean of the rectified normal: the closed-form two-arm gain."""
    d = abs(mu_b - mu_a)
    v = sigma * math.sqrt(2.0 * (1.0 - rho))
    if v == 0.0:
        return 0.0
    z = d / v
    return -d * (1.0 - _norm_cdf(z)) + v * _norm_pdf(z)


def two_arm_gain_over_means(sigma: float, rho: float, s: float) -> float:
    """Two-arm gain averaged over arm means drawn i.i.d. N(M, s^2)."""
    return (math.sqrt(s * s + sigma * sigma * (1.0 - rho)) - s) / math.sqrt(math.pi)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def check_elasticity(out: Path, profile: dict, delta: float, n: int) -> list[str]:
    """Each row sits within MAX_Z standard errors of the exact gain at that
    row's parameters, and each variant moves the parameter it names."""
    path = out / "elasticity.csv"
    if not path.exists():
        return [f"{path.name} missing"]
    expected_new = {
        "s_down": ("s", profile["s"] * (1.0 - delta)),
        "sigma_up": ("sigma", profile["sigma"] * (1.0 + delta)),
        "rho_down": ("rho", max(profile["rho"] - delta, -1.0 / (profile["m"] - 1) + 1e-9)),
        "sigma_eps_down": ("sigma_eps", profile["sigma_eps"] * (1.0 - delta)),
    }
    rows = {row["change"]: row for row in _read_rows(path)}
    problems = []
    for change in ["baseline", *expected_new]:
        row = rows.get(change)
        if row is None:
            problems.append(f"elasticity row {change} missing")
            continue
        params = dict(profile)
        if change in expected_new:
            parameter, value = expected_new[change]
            reported = _finite(row["new_value"])
            if row["parameter"] != parameter or reported is None or abs(reported - value) > 1e-12:
                problems.append(f"elasticity row {change}: moved {row['parameter']} to {row['new_value']}")
                continue
            params[parameter] = value
        gain, se = _finite(row["gain_mean"]), _finite(row["gain_se"])
        if gain is None or se is None or se <= 0.0:
            problems.append(f"elasticity row {change}: gain {row['gain_mean']} se {row['gain_se']}")
            continue
        exact = normal_means_gain(
            params["s"], params["sigma"], params["rho"], params["sigma_eps"], params["m"], n
        )
        if abs(gain - exact) > MAX_Z * se:
            problems.append(
                f"elasticity row {change}: gain {gain} is {(gain - exact) / se:.2f} SE from exact {exact}"
            )
    return problems


def check_gain(stdout: str, mu_a: float, mu_b: float, sigma: float, rho: float, s: float) -> list[str]:
    """The `gain` and `expected_gain_over_means` lines match the closed forms."""
    values = {}
    for line in stdout.splitlines():
        key, _, text = line.partition(" ")
        if key in ("gain", "expected_gain_over_means"):
            values[key] = _finite(text)
    want = {
        "gain": two_arm_gain(mu_a, mu_b, sigma, rho),
        "expected_gain_over_means": two_arm_gain_over_means(sigma, rho, s),
    }
    problems = []
    for key, exact in want.items():
        got = values.get(key)
        if got is None or abs(got - exact) > CLOSED_FORM_TOL:
            problems.append(f"{key}: printed {got}, closed form {exact}")
    return problems


def check_sweep(out: Path, m_values: list[int]) -> list[str]:
    """One finite row per arm count, gain_mean >= 0 and gain_se > 0 (the
    workload has no prediction noise, so every replication gain is >= 0)."""
    path = out / "sweep.csv"
    if not path.exists():
        return [f"{path.name} missing"]
    rows = _read_rows(path)
    got = [int(float(row["m"])) for row in rows]
    if got != list(m_values):
        return [f"sweep rows cover m = {got}, expected {list(m_values)}"]
    problems = []
    for row in rows:
        values = [_finite(row[k]) for k in ("gain_mean", "gain_se", "v_personalized_mean", "v_uniform_mean")]
        if any(v is None for v in values):
            problems.append(f"sweep row m={row['m']} is not finite: {row}")
        elif values[0] < 0.0 or values[1] <= 0.0:
            problems.append(f"sweep row m={row['m']}: gain_mean {values[0]}, gain_se {values[1]}")
    return problems


def check_synth(out: Path, n_rows: int, n_arms: int) -> list[str]:
    """data.csv and sealed.csv hold one line per unit plus the header."""
    problems = []
    for name, width in (("data.csv", None), ("sealed.csv", 1 + n_arms)):
        path = out / name
        if not path.exists():
            problems.append(f"{name} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            lines = sum(1 for _ in fh)
        if lines != n_rows:
            problems.append(f"{name} has {lines} data lines, expected {n_rows}")
        if width is not None and len(header) != width:
            problems.append(f"{name} has {len(header)} columns, expected {width}")
    return problems


def check_moments(out: Path, sigma: float, rho: float, sigma_tol: float, rho_tol: float) -> list[str]:
    """The stratified estimates land near the generating process's values."""
    path = out / "moments.json"
    if not path.exists():
        return [f"{path.name} missing"]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    for key, target, tol in (("sigma_hat", sigma, sigma_tol), ("rho_hat_mean", rho, rho_tol)):
        value = _finite(doc.get(key))
        if value is None or abs(value - target) > tol:
            problems.append(f"{key} = {doc.get(key)}, expected {target} +- {tol}")
    return problems


def check_report(out: Path) -> list[str]:
    """The OLS policy beats the best uniform arm on the holdout."""
    path = out / "report.csv"
    if not path.exists():
        return [f"{path.name} missing"]
    rows = [row for row in _read_rows(path) if row["policy"] == "ols_interaction"]
    if len(rows) != 1:
        return [f"report.csv has {len(rows)} ols_interaction rows"]
    improvement = _finite(rows[0]["abs_improvement"])
    if improvement is None or improvement <= 0.0:
        return [f"ols_interaction abs_improvement = {rows[0]['abs_improvement']}"]
    return []
