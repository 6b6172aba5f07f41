"""Command-line front end.

One executable, one subcommand per operation. Each command reads an
optional JSON config file (--config) merged with flag overrides (flags
win), writes its artifacts atomically into --out, and drops a
resolved_config.json beside them. That file embeds the full effective
config, so passing it back as --config reproduces the run byte for byte.
_COMMANDS declares every command once: its fields' types and defaults
drive the flags, the config file's checks and resolved_config.json alike.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Literal, get_origin, get_type_hints

from . import __version__
from ._util import fmt_float, typed, write_csv, write_json
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
    """A dataclass's fields as config fields: (type, default or _REQUIRED)."""
    hints = get_type_hints(cls)
    return {
        f.name: (
            str if get_origin(hints[f.name]) is Literal else hints[f.name],
            _REQUIRED if f.default is MISSING else f.default,
        )
        for f in fields(cls)
        if f.name not in skip
    }


def _list_of(kind, value) -> list:
    """A list field, given as a JSON list or as comma-separated text."""
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    return [kind(v) for v in value]


def _profile_ref(value):
    """A profile: a JSON file path, a bundled name, or the profile object itself."""
    return value if isinstance(value, dict) else str(value)


def _sim_fields(*skip: str) -> dict:
    # every arm has the same mean unless the config says otherwise
    dist = (None, {"kind": "normal", "mean": 0.0, "s": 0.0})
    return {**_fields(SimConfig, "dist", *skip), "dist": dist}


_SETTINGS = _fields(SimSettings, "n_jobs")
_PROFILE = (_profile_ref, _REQUIRED, "profile JSON path or bundled name")

# Each command's help and its fields, {field: (type, default[, flag help])}.
# The flags, the defaults and the conversion of every value, from a flag or
# from the config file, all come from here. A field of type None holds raw
# JSON and has no flag.
_COMMANDS = {
    "gain": ("closed-form two-arm gain", {
        **_fields(TwoArmParams),
        "s": (float, None, "also report the gain averaged over mean draws"),
        "seed": (int, 0, "accepted and ignored: the closed form draws nothing"),
    }),
    "simulate": ("Monte Carlo multi-arm gain", _sim_fields()),
    "sweep": ("gain versus number of arms", {
        "m_values": (partial(_list_of, int), _REQUIRED),
        **_sim_fields("m"),
    }),
    "synth": ("generate a synthetic experiment", {
        "dgp": (None, _REQUIRED), "n": (int, 1_000), "seed": (int, 0),
    }),
    "estimate": ("estimate moments from an experiment CSV", {
        "data": (str, _REQUIRED), "train_frac": (float, 0.7), "quantiles": (int, 10),
        "seed": (int, 0),
    }),
    "evaluate": ("fit policies and report IPW gains", {
        "data": (str, _REQUIRED),
        "train_frac": (float, 0.7),
        "policies": (partial(_list_of, str), ["uniform", "ols"], "comma-separated: uniform,ols"),
        "n_boot": (int, 1_000),
        "seed": (int, 0),
    }),
    "predict": ("predicted gain for a study profile", {"profile": _PROFILE, **_SETTINGS}),
    "sensitivity": ("gain across a parameter grid", {
        "profile": _PROFILE,
        "parameter": (str, _REQUIRED),
        "grid": (partial(_list_of, float), _REQUIRED, "comma-separated values"),
        **_SETTINGS,
    }),
    "counterfactual": ("swap one parameter between two profiles", {
        "profile_a": (_profile_ref, _REQUIRED),
        "profile_b": (_profile_ref, _REQUIRED),
        "parameter": (str, _REQUIRED),
        **_SETTINGS,
    }),
    "elasticity": ("gain under small single-parameter improvements", {
        "profile": _PROFILE, "delta": (float, 0.01), **_SETTINGS,
    }),
}


# --------------------------------------------------------------------------
# config plumbing


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
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
    """Defaults, then the config file, then the flags; every value typed."""
    table = _COMMANDS[command][1]
    unknown = set(file_doc) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown config field(s) for {command}: {sorted(unknown)}; "
            f"known fields: {sorted(table)}"
        )
    resolved = {key: spec[1] for key, spec in table.items() if spec[1] is not _REQUIRED}
    resolved.update(file_doc)
    resolved.update(overrides)
    missing = [key for key in table if key not in resolved]
    if missing:
        raise ConfigError(f"missing required field(s) for {command}: {missing}")
    for key, (kind, default, *_) in table.items():
        # a field whose default is None may stay unset
        if kind is not None and not (resolved[key] is None and default is None):
            resolved[key] = typed(kind, resolved[key], key)
    return resolved


def _out_dir(args: argparse.Namespace) -> Path:
    """The output directory; the first file written there creates it."""
    return Path(args.out or os.environ.get(_OUT_ENV) or "persgain_out")


def _write_rows(path: Path, rows: list[dict]) -> None:
    """A CSV table whose columns are the rows' keys, in their order."""
    write_csv(path, list(rows[0]), [list(row.values()) for row in rows])


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
    path = Path(ref)
    if path.exists():
        return StudyProfile.from_config(_read_json(path, "profile file"))
    if ref in _BUNDLED_PROFILES:
        text = resources.files("persgain").joinpath(f"profiles/{ref}.json").read_text()
        return StudyProfile.from_config(json.loads(text))
    raise ConfigError(
        f"profile {ref!r} is neither a file nor a bundled profile "
        f"(bundled: {list(_BUNDLED_PROFILES)})"
    )


def _settings(config: dict, jobs: int) -> SimSettings:
    return SimSettings(**{key: config[key] for key in _SETTINGS}, n_jobs=jobs)


# --------------------------------------------------------------------------
# commands


def cmd_gain(config: dict, args: argparse.Namespace) -> int:
    params = TwoArmParams(**{key: config[key] for key in _fields(TwoArmParams)})
    print(f"gain {fmt_float(gain_two_arm(params))}")
    if config["s"] is not None:
        value = expected_gain_over_means(params.sigma, params.rho, config["s"])
        print(f"expected_gain_over_means {fmt_float(value)}")
    return 0


def cmd_simulate(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cfg = SimConfig(**{**config, "dist": dist_from_config(config["dist"])})
    summary = simulate_gain(cfg, n_jobs=args.jobs).to_dict()
    gains = summary.pop("per_replication_gains")
    write_json(out / "result.json", summary)
    write_csv(out / "replications.csv", ["replication", "gain"], list(enumerate(gains)))
    return _finish("simulate", config, out, ["result.json", "replications.csv"])


def cmd_sweep(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    m_values = config["m_values"]
    if not m_values:
        raise ConfigError("m_values must contain at least one arm count")
    base = {key: value for key, value in config.items() if key != "m_values"}
    cfg = SimConfig(**{**base, "m": m_values[0], "dist": dist_from_config(config["dist"])})
    _write_rows(out / "sweep.csv", sweep_arms(cfg, m_values, n_jobs=args.jobs))
    return _finish("sweep", config, out, ["sweep.csv"])


def cmd_synth(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    dgp = SynthDGP.from_config(config["dgp"])
    dataset, sealed = generate_synthetic(dgp, n=config["n"], seed=config["seed"])
    # imported here, not at module level, so the name is looked up at call
    # time: perfbench/tracer.py times dataset.write_csv by replacing it there
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
    dataset = load_csv(config["data"])
    sp = split(dataset, config["train_frac"], seed=config["seed"])
    moments = estimate_moments(dataset, sp, n_quantiles=config["quantiles"])
    write_json(out / "moments.json", moments.to_dict())
    return _finish("estimate", config, out, ["moments.json"])


def cmd_evaluate(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    dataset = load_csv(config["data"])
    sp = split(dataset, config["train_frac"], seed=config["seed"])
    train = dataset.subset(sp.train_idx)
    policies = []
    for name in config["policies"]:
        if name == "uniform":
            policies.append(best_uniform(train))
        elif name == "ols":
            policies.append(fit_ols_policy(train))
        else:
            raise ConfigError(f"unknown policy {name!r}; choose from ['uniform', 'ols']")
    rows = gain_report(policies, dataset, sp, n_boot=config["n_boot"], seed=config["seed"])
    _write_rows(out / "report.csv", rows)
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
    settings = _settings(config, args.jobs)
    result = sensitivity_sweep(profile, config["parameter"], config["grid"], settings)
    _write_rows(out / "sensitivity.csv", result.to_rows())
    return _finish("sensitivity", config, out, ["sensitivity.csv"])


def cmd_counterfactual(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    rows = counterfactual_swap(
        _load_profile(config["profile_a"]),
        _load_profile(config["profile_b"]),
        config["parameter"],
        _settings(config, args.jobs),
    )
    _write_rows(out / "counterfactual.csv", rows)
    return _finish("counterfactual", config, out, ["counterfactual.csv"])


def cmd_elasticity(config: dict, args: argparse.Namespace) -> int:
    out = _out_dir(args)
    profile = _load_profile(config["profile"])
    rows = elasticity_table(profile, config["delta"], _settings(config, args.jobs))
    _write_rows(out / "elasticity.csv", rows)
    return _finish("elasticity", config, out, ["elasticity.csv"])


_HANDLERS = {command: globals()[f"cmd_{command}"] for command in _COMMANDS}


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persgain",
        description="Quantify when heterogeneity across treatment arms is worth personalizing on.",
    )
    parser.add_argument("--version", action="version", version=f"persgain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        if command != "gain":  # gain prints its result; every other command writes files
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
        for name, (kind, _, *flag_help) in table.items():
            if kind is not None:
                p.add_argument("--" + name.replace("_", "-"), help=(flag_help or [None])[0])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        file_doc = _load_config_file(args.config, command) if args.config else {}
        overrides = {
            key: getattr(args, key)
            for key in _COMMANDS[command][1]
            if getattr(args, key, None) is not None
        }
        config = _resolve(command, file_doc, overrides)
        return _HANDLERS[command](config, args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except PersgainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
