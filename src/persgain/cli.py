"""Command-line front end.

One executable, one subcommand per operation. Each command reads an
optional JSON config file (--config) merged with flag overrides (flags
win). Its handler computes every output and returns them, touching no
path; `main` then writes them atomically into --out, in order, and drops a
resolved_config.json beside them. That file embeds the full effective
config, so passing it back as --config reproduces the run byte for byte.
A command that fails while computing any output writes nothing.
_COMMANDS declares every command once: its fields' rules and defaults
drive the flags, the reading of the config file and resolved_config.json
alike. The config file, and the profiles, DGPs and distributions inside
it, are all read by `_util.read_fields`.

A run imports only what its command uses: a command's field table and
flags are built when it is parsed, and each handler imports what it calls.

Exit codes: 0 success, 1 runtime failure, 2 validation failure (including
a negative seed, and an integer or array size numpy cannot index).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from . import __version__
from ._util import (
    REQUIRED, check_seed, fields_of, fmt_float, integer, list_of, read_fields, real, text,
    write_csv, write_json,
)
from .analytic import TwoArmParams, expected_gain_over_means, gain_two_arm
from .errors import ConfigError, InternalError, PersgainError

_BUNDLED_PROFILES = ("penn_geisinger", "walmart")
_OUT_ENV = "PERSGAIN_OUT"

def _profile_ref(value, name: str):
    """A profile: a JSON file path, a bundled name, or the profile object itself."""
    return value if isinstance(value, dict) else text(value, name)


def _sim_fields(*skip: str) -> dict:
    from .simulate import SimConfig
    # every arm has the same mean unless the config says otherwise
    dist = (None, {"kind": "normal", "mean": 0.0, "s": 0.0})
    return {**fields_of(SimConfig, "dist", *skip), "dist": dist}


def _settings_fields() -> dict:
    from .analysis import SimSettings
    return fields_of(SimSettings, "n_jobs")


_PROFILE = (_profile_ref, REQUIRED, "profile JSON path or bundled name")

# Each command's help and the builder of its field table, {field: (rule,
# default[, flag help])}, as `_util.read_fields` reads it. The flags, the
# defaults and the conversion of every value, from a flag or from the
# config file, all come from here. A field whose rule is None holds raw
# JSON and has no flag. `_table` builds a command's table once, on first use.
_COMMANDS = {
    "gain": ("closed-form two-arm gain", lambda: {
        **fields_of(TwoArmParams),
        "s": (real, None, "also report the gain averaged over mean draws"),
        "seed": (integer, 0, "accepted and ignored: the closed form draws nothing"),
    }),
    "simulate": ("Monte Carlo multi-arm gain", _sim_fields),
    "sweep": ("gain versus number of arms", lambda: {
        "m_values": (list_of(integer), REQUIRED),
        **_sim_fields("m"),
    }),
    "synth": ("generate a synthetic experiment", lambda: {
        "dgp": (None, REQUIRED), "n": (integer, 1_000), "seed": (integer, 0),
    }),
    "estimate": ("estimate moments from an experiment CSV", lambda: {
        "data": (text, REQUIRED), "train_frac": (real, 0.7), "quantiles": (integer, 10),
        "seed": (integer, 0),
    }),
    "evaluate": ("fit policies and report IPW gains", lambda: {
        "data": (text, REQUIRED),
        "train_frac": (real, 0.7),
        "policies": (list_of(text), ["uniform", "ols"], "comma-separated: uniform,ols"),
        "n_boot": (integer, 1_000, "checked (>= 2) but unused: the SEs are exact"),
        "seed": (integer, 0),
    }),
    "predict": ("predicted gain for a study profile",
                lambda: {"profile": _PROFILE, **_settings_fields()}),
    "sensitivity": ("gain across a parameter grid", lambda: {
        "profile": _PROFILE,
        "parameter": (text, REQUIRED),
        "grid": (list_of(real), REQUIRED, "comma-separated values"),
        **_settings_fields(),
    }),
    "counterfactual": ("swap one parameter between two profiles", lambda: {
        "profile_a": (_profile_ref, REQUIRED),
        "profile_b": (_profile_ref, REQUIRED),
        "parameter": (text, REQUIRED),
        **_settings_fields(),
    }),
    "elasticity": ("gain under small single-parameter improvements", lambda: {
        "profile": _PROFILE, "delta": (real, 0.01), **_settings_fields(),
    }),
}


@functools.cache
def _table(command: str) -> dict:
    return _COMMANDS[command][1]()


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
    # a resolved_config.json from a previous run is accepted as-is
    if isinstance(doc, dict) and "command" in doc and "config" in doc:
        if doc["command"] != command:
            raise ConfigError(
                f"config file {path} was resolved for command {doc['command']!r}, "
                f"not {command!r}"
            )
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(command: str, file_doc: dict, overrides: dict) -> dict:
    """Defaults, then the config file, then the flags; every value typed."""
    return read_fields(_table(command), {**file_doc, **overrides}, command)


def _write(path: Path, content) -> None:
    """One output: a dict as JSON, a list of row dicts as a CSV table whose
    columns are the rows' keys in their order, or a function that writes
    the file at path itself."""
    if isinstance(content, dict):
        write_json(path, content)
    elif isinstance(content, list):
        write_csv(path, list(content[0]), [[row[key] for row in content] for key in content[0]])
    else:
        content(path)


def _load_profile(ref):
    from importlib import resources

    from .analysis import StudyProfile
    if isinstance(ref, dict):
        return StudyProfile.from_config(ref)
    path = Path(ref)
    if ref in _BUNDLED_PROFILES and not path.is_file():  # only a file shadows a bundled name
        text = resources.files("persgain").joinpath(f"profiles/{ref}.json").read_text()
        return StudyProfile.from_config(json.loads(text))
    if path.exists():
        return StudyProfile.from_config(_read_json(path, "profile file"))
    raise ConfigError(
        f"profile {ref!r} is neither a file nor a bundled profile "
        f"(bundled: {list(_BUNDLED_PROFILES)})"
    )


def _settings(config: dict, jobs: int):
    from .analysis import SimSettings
    return SimSettings(**{key: config[key] for key in _settings_fields()}, n_jobs=jobs)


# --------------------------------------------------------------------------
# commands


def cmd_gain(config: dict, args: argparse.Namespace) -> None:
    params = TwoArmParams(**{key: config[key] for key in fields_of(TwoArmParams)})
    check_seed(config["seed"])
    lines = [f"gain {fmt_float(gain_two_arm(params))}"]
    if config["s"] is not None:
        value = expected_gain_over_means(params.sigma, params.rho, config["s"])
        lines.append(f"expected_gain_over_means {fmt_float(value)}")
    print("\n".join(lines))  # nothing prints unless every value is valid


def cmd_simulate(config: dict, args: argparse.Namespace) -> dict:
    from .simulate import SimConfig, dist_from_config, simulate_gain
    cfg = SimConfig(**{**config, "dist": dist_from_config(config["dist"])})
    summary = asdict(simulate_gain(cfg, n_jobs=args.jobs))
    gains = summary.pop("per_replication_gains")
    return {
        "result.json": summary,
        "replications.csv": [{"replication": i, "gain": gain} for i, gain in enumerate(gains)],
    }


def cmd_sweep(config: dict, args: argparse.Namespace) -> dict:
    from .simulate import SimConfig, dist_from_config, sweep_arms
    m_values = config["m_values"]
    if not m_values:
        raise ConfigError("m_values must contain at least one arm count")
    base = {key: value for key, value in config.items() if key != "m_values"}
    cfg = SimConfig(**{**base, "m": m_values[0], "dist": dist_from_config(config["dist"])})
    return {"sweep.csv": sweep_arms(cfg, m_values, n_jobs=args.jobs)}


def cmd_synth(config: dict, args: argparse.Namespace) -> dict:
    from .dataset import SynthDGP, generate_synthetic, write_csv as write_dataset_csv
    dgp = SynthDGP.from_config(config["dgp"])
    dataset, sealed = generate_synthetic(dgp, n=config["n"], seed=config["seed"])
    header = ["unit_id"] + [f"y_{name}" for name in dataset.arm_names]
    return {
        "data.csv": lambda path: write_dataset_csv(dataset, path),
        "sealed.csv": lambda path: write_csv(path, header, [sealed.unit_ids, *sealed.y.T]),
        "schema.json": dataset.schema_doc(),
    }


def cmd_estimate(config: dict, args: argparse.Namespace) -> dict:
    from .dataset import load_csv, split
    from .estimation import estimate_moments
    dataset = load_csv(config["data"])
    sp = split(dataset, config["train_frac"], seed=config["seed"])
    moments = estimate_moments(dataset, sp, n_quantiles=config["quantiles"])
    return {"moments.json": moments.to_dict()}


def cmd_evaluate(config: dict, args: argparse.Namespace) -> dict:
    from .dataset import load_csv, split
    from .policy import best_uniform, fit_ols_policy, gain_report
    fits = {"uniform": best_uniform, "ols": fit_ols_policy}
    for name in config["policies"]:
        if name not in fits:
            raise ConfigError(f"unknown policy {name!r}; choose from {list(fits)}")
    dataset = load_csv(config["data"])
    sp = split(dataset, config["train_frac"], seed=config["seed"])
    rows = gain_report([fits[name] for name in config["policies"]], dataset, sp,
                       n_boot=config["n_boot"])
    return {"report.csv": rows}


def cmd_predict(config: dict, args: argparse.Namespace) -> dict:
    from .analysis import predict_gain
    profile = _load_profile(config["profile"])
    gain, se = predict_gain(profile, _settings(config, args.jobs))
    return {"prediction.json": {"profile": profile.to_config(), "gain_mean": gain, "gain_se": se}}


def cmd_sensitivity(config: dict, args: argparse.Namespace) -> dict:
    from .analysis import sensitivity_sweep
    profile = _load_profile(config["profile"])
    rows = sensitivity_sweep(profile, config["parameter"], config["grid"],
                             _settings(config, args.jobs))
    return {"sensitivity.csv": rows}


def cmd_counterfactual(config: dict, args: argparse.Namespace) -> dict:
    from .analysis import counterfactual_swap
    rows = counterfactual_swap(
        _load_profile(config["profile_a"]),
        _load_profile(config["profile_b"]),
        config["parameter"],
        _settings(config, args.jobs),
    )
    return {"counterfactual.csv": rows}


def cmd_elasticity(config: dict, args: argparse.Namespace) -> dict:
    from .analysis import elasticity_table
    profile = _load_profile(config["profile"])
    rows = elasticity_table(profile, config["delta"], _settings(config, args.jobs))
    return {"elasticity.csv": rows}


_HANDLERS = {command: globals()[f"cmd_{command}"] for command in _COMMANDS}


# --------------------------------------------------------------------------
# argument parsing


class _CommandParser(argparse.ArgumentParser):
    """One command's parser. It adds the command's flags on its first parse,
    so a run builds the field table of the command it runs and no other."""

    def __init__(self, command: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.command = command
        # Python 3.13's rule: a value such as -0.04,0.3 is not a flag
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self._flags_added = False

    def parse_known_args(self, args=None, namespace=None):
        if not self._flags_added:
            self._flags_added = True
            self._add_flags()
        return super().parse_known_args(args, namespace)

    def _add_flags(self) -> None:
        self.add_argument("--config", help="JSON config file; flags override its fields")
        if self.command != "gain":  # gain prints its result; every other command writes files
            self.add_argument(
                "--out",
                help=f"output directory (default: ${_OUT_ENV} or ./persgain_out)",
            )
            self.add_argument(
                "--jobs",
                type=int,
                default=os.cpu_count() or 1,
                help="worker threads, but one for random means under 256 arms in all; "
                     "results are identical at any level (BLAS runs one thread unless "
                     "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS says so)",
            )
        for name, (kind, _, *flag_help) in _table(self.command).items():
            if kind is not None:
                self.add_argument("--" + name.replace("_", "-"), help=(flag_help or [None])[0])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persgain",
        description="Quantify when heterogeneity across treatment arms is worth personalizing on.",
    )
    parser.add_argument("--version", action="version", version=f"persgain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (help_text, _) in _COMMANDS.items():
        sub.add_parser(command, help=help_text, command=command)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One `warning: <message>` line on stderr, without the source location,
    in one write, so that lines warned from worker threads stay whole."""
    sys.stderr.write(f"warning: {message}\n")


# the thread-count variables of OpenBLAS (numpy's wheels), OpenMP and MKL
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread unless the caller sets a count: every BLAS call here is
    # small (per-arm lstsq, one matmul), so a BLAS pool only adds threads
    # that --jobs never granted. The library reads these when numpy is first
    # imported, which parsing `elasticity` already does, so this comes first.
    for name in _BLAS_THREADS:
        os.environ.setdefault(name, "1")
    args = _build_parser().parse_args(argv)
    command = args.command
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if getattr(args, "jobs", 1) < 1:
                raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
            file_doc = _load_config_file(args.config, command) if args.config else {}
            overrides = {
                key: getattr(args, key)
                for key in _table(command)
                if getattr(args, key, None) is not None
            }
            config = _resolve(command, file_doc, overrides)
            out = Path(getattr(args, "out", None) or os.environ.get(_OUT_ENV) or "persgain_out")
            refused = ConfigError(f"output directory {out} is a file or lies under one")
            # refused before any output is computed, made once every one is
            nearest = next(path for path in (out, *out.parents) if path.exists())
            if hasattr(args, "out") and not nearest.is_dir():
                raise refused
            outputs = _HANDLERS[command](config, args)
            if outputs is None:  # gain prints its result
                return 0
            try:
                out.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):
                raise refused from None
            names = sorted(outputs)
            outputs["resolved_config.json"] = {
                "command": command, "artifact_version": __version__,
                "config": config, "outputs": names,
            }
            for name, content in outputs.items():
                _write(out / name, content)
            for name in names + ["resolved_config.json"]:
                print(f"wrote {out / name}")
            return 0
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
