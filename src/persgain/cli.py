"""Command-line front end.

One executable, one subcommand per operation. Each command reads an
optional JSON config file (--config) merged with flag overrides (flags
win), writes its artifacts atomically into --out, and drops a
resolved_config.json beside them. That file embeds the full effective
config, so passing it back as --config reproduces the run byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

from . import __version__
from ._util import fmt_float, typed, typed_list, write_csv, write_json
from .analysis import (
    SimSettings,
    StudyProfile,
    counterfactual_swap,
    elasticity_table,
    predict_gain,
    sensitivity_sweep,
)
from .analytic import TwoArmParams, expected_gain_over_means, gain_two_arm
from .dataset import SynthDGP, generate_synthetic, load_csv, split
from .errors import ConfigError, InternalError, PersgainError
from .estimation import estimate_moments
from .policy import best_uniform, fit_ols_policy, gain_report
from .simulate import SimConfig, dist_from_config, simulate_gain, sweep_arms

_BUNDLED_PROFILES = ("penn_geisinger", "walmart")
_OUT_ENV = "PERSGAIN_OUT"

_REQUIRED = object()


def _fields(cls, *skip: str) -> dict:
    """A dataclass's fields as config fields: each default, or _REQUIRED."""
    return {
        f.name: _REQUIRED if f.default is MISSING else f.default
        for f in fields(cls)
        if f.name not in skip
    }


# every arm has the same mean unless the config says otherwise
_DIST = {"dist": {"kind": "normal", "mean": 0.0, "s": 0.0}}

_DEFAULTS = {
    "gain": {
        "mu_a": _REQUIRED,
        "mu_b": _REQUIRED,
        "sigma": _REQUIRED,
        "rho": _REQUIRED,
        "s": None,
        "seed": 0,
    },
    "simulate": {**_fields(SimConfig), **_DIST},
    "sweep": {"m_values": _REQUIRED, **_fields(SimConfig, "m"), **_DIST},
    "synth": {"dgp": _REQUIRED, "n": 1_000, "seed": 0},
    "estimate": {"data": _REQUIRED, "train_frac": 0.7, "quantiles": 10, "seed": 0},
    "evaluate": {
        "data": _REQUIRED,
        "train_frac": 0.7,
        "policies": ["uniform", "ols"],
        "n_boot": 1_000,
        "seed": 0,
    },
    "predict": {"profile": _REQUIRED, **_fields(SimSettings, "n_jobs")},
    "sensitivity": {
        "profile": _REQUIRED,
        "parameter": _REQUIRED,
        "grid": _REQUIRED,
        **_fields(SimSettings, "n_jobs"),
    },
    "counterfactual": {
        "profile_a": _REQUIRED,
        "profile_b": _REQUIRED,
        "parameter": _REQUIRED,
        **_fields(SimSettings, "n_jobs"),
    },
    "elasticity": {"profile": _REQUIRED, "delta": 0.01, **_fields(SimSettings, "n_jobs")},
}


# --------------------------------------------------------------------------
# config plumbing


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def _load_config_file(path: str, command: str) -> dict:
    doc = _read_json(path, "config file")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    # a resolved_config.json from a previous run is accepted as-is
    if "command" in doc and "config" in doc:
        if doc["command"] != command:
            raise ConfigError(
                f"config file {path} was resolved for command {doc['command']!r}, "
                f"not {command!r}"
            )
        doc = doc["config"]
    return doc


def _resolve(command: str, file_doc: dict, overrides: dict) -> dict:
    defaults = _DEFAULTS[command]
    unknown = set(file_doc) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown config field(s) for {command}: {sorted(unknown)}; "
            f"known fields: {sorted(defaults)}"
        )
    resolved = {
        key: default for key, default in defaults.items() if default is not _REQUIRED
    }
    resolved.update(file_doc)
    resolved.update({k: v for k, v in overrides.items() if v is not None})
    missing = [key for key in defaults if key not in resolved]
    if missing:
        raise ConfigError(f"missing required field(s) for {command}: {missing}")
    return resolved


def _out_dir(args: argparse.Namespace) -> Path:
    """The output directory; the first file written there creates it."""
    return Path(args.out or os.environ.get(_OUT_ENV) or "persgain_out")


def _finish(command: str, config: dict, out: Path, outputs: list[str]) -> int:
    write_json(
        out / "resolved_config.json",
        {
            "command": command,
            "artifact_version": __version__,
            "config": config,
            "outputs": sorted(outputs),
        },
    )
    for name in sorted(outputs) + ["resolved_config.json"]:
        print(f"wrote {out / name}")
    return 0


def _load_profile(ref) -> StudyProfile:
    if isinstance(ref, dict):
        return StudyProfile.from_config(ref)
    path = Path(str(ref))
    if path.exists():
        return StudyProfile.from_config(_read_json(path, "profile file"))
    if str(ref) in _BUNDLED_PROFILES:
        text = resources.files("persgain").joinpath(f"profiles/{ref}.json").read_text()
        return StudyProfile.from_config(json.loads(text))
    raise ConfigError(
        f"profile {ref!r} is neither a file nor a bundled profile "
        f"(bundled: {list(_BUNDLED_PROFILES)})"
    )


def _settings(config: dict, jobs: int) -> SimSettings:
    return SimSettings(
        n_individuals=_get(config, "n_individuals", int),
        n_replications=_get(config, "n_replications", int),
        seed=_get(config, "seed", int),
        n_jobs=jobs,
    )


def _get(config: dict, key: str, kind):
    """config[key] as `kind`; a mistyped value is a ConfigError naming the key."""
    return typed(kind, config[key], key)


def _csv_list(value, name: str) -> list:
    """A list field, given as a list or as comma-separated text."""
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    return typed(list, value, name)


# --------------------------------------------------------------------------
# commands


def cmd_gain(config: dict, args: argparse.Namespace) -> int:
    params = TwoArmParams(
        mu_a=_get(config, "mu_a", float),
        mu_b=_get(config, "mu_b", float),
        sigma=_get(config, "sigma", float),
        rho=_get(config, "rho", float),
    )
    print(f"gain {fmt_float(gain_two_arm(params))}")
    if config["s"] is not None:
        value = expected_gain_over_means(params.sigma, params.rho, _get(config, "s", float))
        print(f"expected_gain_over_means {fmt_float(value)}")
    return 0


def _sim_config_from(config: dict, m: int | None = None) -> SimConfig:
    return SimConfig(
        m=_get(config, "m", int) if m is None else m,
        sigma=_get(config, "sigma", float),
        rho=_get(config, "rho", float),
        dist=dist_from_config(config["dist"]),
        sigma_eps=_get(config, "sigma_eps", float),
        n_individuals=_get(config, "n_individuals", int),
        n_replications=_get(config, "n_replications", int),
        seed=_get(config, "seed", int),
        noise_mode=config["noise_mode"],
    )


def cmd_simulate(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    result = simulate_gain(_sim_config_from(config), n_jobs=args.jobs)
    summary = result.to_dict()
    gains = summary.pop("per_replication_gains")
    write_json(out / "result.json", summary)
    write_csv(out / "replications.csv", ["replication", "gain"], list(enumerate(gains)))
    return _finish("simulate", config, out, ["result.json", "replications.csv"])


def cmd_sweep(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    m_values = typed_list(int, config["m_values"], "m_values")
    if not m_values:
        raise ConfigError("m_values must contain at least one arm count")
    base = _sim_config_from(config, m=m_values[0])
    rows = sweep_arms(base, m_values, n_jobs=args.jobs)
    header = ["m", "gain_mean", "gain_se", "v_personalized_mean", "v_uniform_mean"]
    write_csv(out / "sweep.csv", header, [[row[k] for k in header] for row in rows])
    return _finish("sweep", config, out, ["sweep.csv"])


def cmd_synth(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    dgp = SynthDGP.from_config(config["dgp"])
    n, seed = _get(config, "n", int), _get(config, "seed", int)
    dataset, sealed = generate_synthetic(dgp, n=n, seed=seed)
    from .dataset import write_csv as write_dataset_csv

    write_dataset_csv(dataset, out / "data.csv")
    write_csv(
        out / "sealed.csv",
        ["unit_id"] + [f"y_{name}" for name in dataset.arm_names],
        [[uid] + list(row) for uid, row in zip(sealed.unit_ids, sealed.y)],
    )
    write_json(out / "schema.json", dataset.schema_doc())
    return _finish("synth", config, out, ["data.csv", "sealed.csv", "schema.json"])


def cmd_estimate(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    dataset = load_csv(str(config["data"]))
    sp = split(dataset, _get(config, "train_frac", float), seed=_get(config, "seed", int))
    moments = estimate_moments(dataset, sp, n_quantiles=_get(config, "quantiles", int))
    write_json(out / "moments.json", moments.to_dict())
    return _finish("estimate", config, out, ["moments.json"])


def cmd_evaluate(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    dataset = load_csv(str(config["data"]))
    seed = _get(config, "seed", int)
    sp = split(dataset, _get(config, "train_frac", float), seed=seed)
    train = dataset.subset(sp.train_idx)
    policies = []
    for name in _csv_list(config["policies"], "policies"):
        if name == "uniform":
            policies.append(best_uniform(train))
        elif name == "ols":
            policies.append(fit_ols_policy(train))
        else:
            raise ConfigError(f"unknown policy {name!r}; choose from ['uniform', 'ols']")
    rows = gain_report(policies, dataset, sp, n_boot=_get(config, "n_boot", int), seed=seed)
    header = ["policy", "value", "se_boot", "abs_improvement", "rel_improvement", "diff_se_boot"]
    write_csv(out / "report.csv", header, [[row[k] for k in header] for row in rows])
    return _finish("evaluate", config, out, ["report.csv"])


def cmd_predict(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    profile = _load_profile(config["profile"])
    gain, se = predict_gain(profile, _settings(config, args.jobs))
    write_json(
        out / "prediction.json",
        {"profile": profile.to_config(), "gain_mean": gain, "gain_se": se},
    )
    return _finish("predict", config, out, ["prediction.json"])


def cmd_sensitivity(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    profile = _load_profile(config["profile"])
    grid = typed_list(float, _csv_list(config["grid"], "grid"), "grid")
    result = sensitivity_sweep(profile, config["parameter"], grid, _settings(config, args.jobs))
    header = ["parameter", "value", "gain_mean", "gain_se", "is_baseline"]
    write_csv(
        out / "sensitivity.csv", header, [[row[k] for k in header] for row in result.to_rows()]
    )
    return _finish("sensitivity", config, out, ["sensitivity.csv"])


def cmd_counterfactual(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    rows = counterfactual_swap(
        _load_profile(config["profile_a"]),
        _load_profile(config["profile_b"]),
        config["parameter"],
        _settings(config, args.jobs),
    )
    header = ["study", "parameter", "value_used", "source", "gain_mean", "gain_se"]
    write_csv(out / "counterfactual.csv", header, [[row[k] for k in header] for row in rows])
    return _finish("counterfactual", config, out, ["counterfactual.csv"])


def cmd_elasticity(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    profile = _load_profile(config["profile"])
    rows = elasticity_table(profile, _get(config, "delta", float), _settings(config, args.jobs))
    header = [
        "change",
        "parameter",
        "old_value",
        "new_value",
        "gain_mean",
        "gain_se",
        "gain_delta",
        "best",
    ]
    write_csv(out / "elasticity.csv", header, [[row[k] for k in header] for row in rows])
    return _finish("elasticity", config, out, ["elasticity.csv"])


_HANDLERS = {
    "gain": cmd_gain,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "estimate": cmd_estimate,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "sensitivity": cmd_sensitivity,
    "counterfactual": cmd_counterfactual,
    "elasticity": cmd_elasticity,
}


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persgain",
        description="Quantify when heterogeneity across treatment arms is worth personalizing on.",
    )
    parser.add_argument("--version", action="version", version=f"persgain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its fields")
        if with_out:
            p.add_argument(
                "--out",
                help=f"output directory (default: ${_OUT_ENV} or ./persgain_out)",
            )
            p.add_argument(
                "--jobs",
                type=int,
                default=os.cpu_count() or 1,
                help="worker threads; results are identical at any level",
            )

    def field_flags(p: argparse.ArgumentParser, cls, *skip: str) -> None:
        """One flag per dataclass field, typed like the field."""
        hints = get_type_hints(cls)
        for name in _fields(cls, *skip):
            flag = "--" + name.replace("_", "-")
            if get_origin(hints[name]) is Literal:
                p.add_argument(flag, choices=get_args(hints[name]))
            else:
                p.add_argument(flag, type=hints[name])

    p = sub.add_parser("gain", help="closed-form two-arm gain")
    common(p, with_out=False)
    p.add_argument("--mu-a", type=float)
    p.add_argument("--mu-b", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--s", type=float, help="also report the gain averaged over mean draws")
    p.add_argument("--seed", type=int, help="accepted and ignored: the closed form draws nothing")

    p = sub.add_parser("simulate", help="Monte Carlo multi-arm gain")
    common(p)
    field_flags(p, SimConfig, "dist")

    p = sub.add_parser("sweep", help="gain versus number of arms")
    common(p)
    p.add_argument("--m-values", type=lambda s: [int(float(v)) for v in _csv_list(s, "m_values")])
    field_flags(p, SimConfig, "m", "dist")

    p = sub.add_parser("synth", help="generate a synthetic experiment")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("estimate", help="estimate moments from an experiment CSV")
    common(p)
    p.add_argument("--data")
    p.add_argument("--train-frac", type=float)
    p.add_argument("--quantiles", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("evaluate", help="fit policies and report IPW gains")
    common(p)
    p.add_argument("--data")
    p.add_argument("--train-frac", type=float)
    p.add_argument("--policies", help="comma-separated: uniform,ols")
    p.add_argument("--n-boot", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("predict", help="predicted gain for a study profile")
    common(p)
    p.add_argument("--profile", help="profile JSON path or bundled name")
    field_flags(p, SimSettings, "n_jobs")

    p = sub.add_parser("sensitivity", help="gain across a parameter grid")
    common(p)
    p.add_argument("--profile")
    p.add_argument("--parameter", choices=["s", "sigma", "rho", "sigma_eps", "m"])
    p.add_argument("--grid", help="comma-separated values")
    field_flags(p, SimSettings, "n_jobs")

    p = sub.add_parser("counterfactual", help="swap one parameter between two profiles")
    common(p)
    p.add_argument("--profile-a")
    p.add_argument("--profile-b")
    p.add_argument("--parameter", choices=["sigma", "rho", "sigma_eps", "m"])
    field_flags(p, SimSettings, "n_jobs")

    p = sub.add_parser("elasticity", help="gain under small single-parameter improvements")
    common(p)
    p.add_argument("--profile")
    p.add_argument("--delta", type=float)
    field_flags(p, SimSettings, "n_jobs")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        file_doc = _load_config_file(args.config, command) if args.config else {}
        overrides = {
            key: getattr(args, key)
            for key in _DEFAULTS[command]
            if hasattr(args, key) and getattr(args, key) is not None
        }
        config = _resolve(command, file_doc, overrides)
        return _HANDLERS[command](config, args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (PersgainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
