"""End-to-end checks of the command-line front end.

Most tests drive `persgain.cli.main` in-process; that is the same code the
console script runs, minus interpreter startup. Determinism across runs is
asserted at the byte level on the emitted files.
"""

import csv
import filecmp
import functools
import gzip
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from persgain import _util, cli
from persgain._util import write_json
from persgain.analysis import StudyProfile
from persgain.cli import main
from persgain.dataset import ExperimentDataset, SynthDGP, load_csv, one_factor_dgp
from persgain.errors import ConfigError, InternalError
from persgain.simulate import dist_from_config

REPO = Path(__file__).resolve().parent.parent


def run_cli(args):
    return main([str(a) for a in args])


def read(path):
    return Path(path).read_bytes()


# --------------------------------------------------------------------------
# gain


def test_gain_prints_formula_value(capsys):
    # equal means: the gain is v phi(0) with v = sigma sqrt(2 (1 - rho)); the
    # closed form takes rho down to -1, the two-arm bound
    for rho, expected in ((0, 1.0 / math.sqrt(math.pi)), (-1, math.sqrt(2.0 / math.pi))):
        assert run_cli(["gain", "--mu-a", 30, "--mu-b", 30, "--sigma", 1, "--rho", rho]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        key, value = line.split()
        assert key == "gain"
        assert float(value) == pytest.approx(expected, rel=1e-12)


def test_gain_perfect_correlation_is_zero(capsys):
    assert run_cli(["gain", "--mu-a", 5, "--mu-b", 5, "--sigma", 2, "--rho", 1]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "gain 0.0"


def test_gain_with_s_reports_mean_averaged_value(capsys):
    from persgain.analytic import expected_gain_over_means

    assert (
        run_cli(
            ["gain", "--mu-a", 0, "--mu-b", 0, "--sigma", 0.267, "--rho", 0.8,
             "--s", 0.007, "--seed", 3]
        )
        == 0
    )
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert list(out) == ["gain", "expected_gain_over_means"]
    assert float(out["expected_gain_over_means"]) == expected_gain_over_means(0.267, 0.8, 0.007)


def test_gain_validation_failure_exits_2_naming_field(capsys):
    assert run_cli(["gain", "--mu-a", 1, "--mu-b", 2, "--sigma", -1, "--rho", 0]) == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--s", -1, "s must be >= 0, got -1.0"),
    ("--seed", -1, "seed must be a non-negative integer, got -1"),
], ids=["s", "seed"])
def test_gain_rejected_input_exits_2_with_empty_stdout(capsys, flag, value, message):
    assert run_cli(["gain", "--mu-a", 1, "--mu-b", 2, "--sigma", 1, "--rho", 0.1,
                    flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_gain_accepts_config_file(tmp_path, capsys):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"mu_a": 30.0, "mu_b": 30.0, "sigma": 1.0, "rho": 0.0}))
    assert run_cli(["gain", "--config", cfg]) == 0
    base = capsys.readouterr().out
    # flags override config fields
    assert run_cli(["gain", "--config", cfg, "--rho", 1]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "gain 0.0"
    assert base.splitlines()[0] != "gain 0.0"


# --------------------------------------------------------------------------
# config plumbing


def test_unknown_config_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"m": 3, "sigma": 1.0, "rho": 0.0, "bogus": 1}))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_required_field_exits_2(tmp_path, capsys):
    assert run_cli(["simulate", "--sigma", 1, "--rho", 0, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "missing required" in err and "m" in err


def test_malformed_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli(["simulate", "--config", tmp_path / "nope.json", "--out", tmp_path / "o"]) == 2
    assert "not found" in capsys.readouterr().err


def test_internal_error_exits_1(tmp_path, monkeypatch, capsys):
    def broken(cfg, rep):
        raise InternalError("non-finite replication values")

    monkeypatch.setattr("persgain.simulate._replicate", broken)
    assert run_cli(["simulate", "--m", 2, "--sigma", 1, "--rho", 0, "--out", tmp_path / "o"]) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "synth", "predict"])
@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_exits_2_without_output(tmp_path, capsys, command, jobs):
    out = tmp_path / "o"
    assert run_cli([command, "--jobs", jobs, "--out", out]) == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_rejected_command_creates_no_output_dir(tmp_path, capsys):
    # rho = -1/(m-1) is the singular bound itself, outside the simulator's
    # range, even at m = 2, where `gain` takes it
    for m, rho in ((3, -0.5), (2, -1)):
        out = tmp_path / f"o{m}"
        assert run_cli(["simulate", "--m", m, "--sigma", 1, "--rho", rho, "--out", out]) == 2
        assert "-1/(m-1)" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("under", [False, True])
def test_an_output_path_at_or_under_a_file_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                      capsys, via, under):
    # refused before the command computes anything
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_gain ran though --out is refused")

    monkeypatch.setattr("persgain.simulate.simulate_gain", refuse)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    args = ["simulate", "--m", 2, "--sigma", 1, "--rho", 0, "--n-individuals", 50,
            "--n-replications", 2]
    if via == "flag":
        args += ["--out", out]
    else:
        monkeypatch.setenv("PERSGAIN_OUT", str(out))
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output directory {out} is a file or lies under one\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"


# valid configs whose numeric fields the property below replaces with values
# of the wrong type; MISTYPED_FIELDS pairs each command with the key path of
# every numeric field, nested ones included, and INTEGER_FIELDS holds those
# whose value is an integer
MISTYPED_BASES = {
    "simulate": {"m": 3, "sigma": 1.0, "rho": 0.2, "sigma_eps": 0.1, "n_individuals": 50,
                 "n_replications": 3, "seed": 0, "dist": {"kind": "normal", "mean": 0.0, "s": 1.0}},
    "synth": {"n": 50, "seed": 0,
              "dgp": {"intercepts": [0.0, 0.1], "beta": [[0.2], [0.3]], "noise_sd": 0.3,
                      "covariates": [{"kind": "normal", "mean": 0.0, "sd": 1.0}]}},
    "predict": {"n_individuals": 50, "n_replications": 3, "seed": 0,
                "profile": {"name": "p", "s": 0.1, "sigma": 0.2, "rho": 0.3, "sigma_eps": 0.1,
                            "m": 3, "mean": 0.0}},
}
MISTYPED_FIELDS = [
    (command, path)
    for command, base in MISTYPED_BASES.items()
    for path in [(k,) for k, v in base.items() if not isinstance(v, dict)]
    + [(k, j) for k, v in base.items() if isinstance(v, dict)
       for j, w in v.items() if isinstance(w, (int, float))]
]
INTEGER_FIELDS = {
    (command, path) for command, path in MISTYPED_FIELDS
    if type(functools.reduce(dict.get, path, MISTYPED_BASES[command])) is int
}


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(
    field=st.sampled_from(MISTYPED_FIELDS),
    value=st.one_of(
        st.text().filter(_not_a_number),
        st.none(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        st.sampled_from([math.inf, -math.inf, math.nan, True]),
        # wrong only for an integer field
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    ),
)
@example(field=("simulate", ("m",)), value="abc")
@example(field=("simulate", ("m",)), value=math.inf)
@example(field=("synth", ("dgp", "noise_sd")), value="x")
@example(field=("predict", ("profile", "m")), value=5.9)
@example(field=("simulate", ("n_replications",)), value=True)
def test_mistyped_config_value_exits_2_without_output(tmp_path_factory, field, value):
    command, path = field
    assume(field in INTEGER_FIELDS or not isinstance(value, float) or not math.isfinite(value))
    config = json.loads(json.dumps(MISTYPED_BASES[command]))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    root = tmp_path_factory.mktemp("mistyped")
    (root / "c.json").write_text(json.dumps(config))
    assert run_cli([command, "--config", root / "c.json", "--out", root / "out"]) == 2
    assert not (root / "out").exists()


DOCUMENTS = {
    "profile": (StudyProfile.from_config, MISTYPED_BASES["predict"]["profile"]),
    "normal": (dist_from_config, MISTYPED_BASES["simulate"]["dist"]),
    "spike_slab": (dist_from_config, {"kind": "spike_slab", "pi_spike": 0.5, "mean": 0.0, "s": 1.0}),
    "fixed": (dist_from_config, {"kind": "fixed", "mu": [0.0, 1.0]}),
    "dgp": (SynthDGP.from_config, MISTYPED_BASES["synth"]["dgp"]),
}
DOCUMENT_VALUES = st.one_of(
    st.floats(),
    st.integers(-3, 2**70),
    st.sampled_from([-1.0, 0.0, 1.0, 1e308, -1e308, True, None, "", "-1", "nan", "1e400", "x",
                     "normal", "bernoulli", "fixed"]),
    st.lists(st.floats(), max_size=3),
    st.lists(st.lists(st.floats(), max_size=3), max_size=3),
    st.lists(st.dictionaries(st.sampled_from(["kind", "mean", "sd", "q"]),
                             st.sampled_from(["normal", "bernoulli", -1.0, 0.5, 2.0])), max_size=2),
)


@st.composite
def documents(draw):
    """A profile, mean-distribution or DGP document with one to three of
    its fields (or, in a DGP, its first covariate's) replaced or dropped."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(json.dumps(DOCUMENTS[name][1]))
    target = doc["covariates"][0] if name == "dgp" and draw(st.booleans()) else doc
    for key in draw(st.lists(st.sampled_from([*target, "extra"]), min_size=1, max_size=3,
                             unique=True)):
        if draw(st.integers(0, 7)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(DOCUMENT_VALUES)
    return name, doc


@settings(max_examples=300, deadline=None)
@given(case=documents())
@example(case=("profile", {**MISTYPED_BASES["predict"]["profile"], "s": -1.0}))
@example(case=("normal", {"kind": "normal", "mean": 0.0, "s": -1.0}))
@example(case=("spike_slab", {"kind": "spike_slab", "pi_spike": math.nan}))
@example(case=("dgp", {**MISTYPED_BASES["synth"]["dgp"], "beta": [[0.2]]}))
def test_document_readers_fail_only_with_config_error(case):
    # any other exception, from any module's check, escapes and fails
    name, doc = case
    try:
        DOCUMENTS[name][0](doc)
    except ConfigError:
        pass


def _run_config(root, command, config):
    (root / "c.json").write_text(json.dumps(config))
    return run_cli([command, "--config", root / "c.json", "--out", root / "out"])


SIMULATE, SYNTH, PREDICT = (MISTYPED_BASES[c] for c in ("simulate", "synth", "predict"))


@pytest.mark.parametrize("command,config,key", [
    ("simulate", {**SIMULATE, "sigmaa": 1.0}, "sigmaa"),
    ("synth", {**SYNTH, "dgp": {**SYNTH["dgp"], "outcome_knd": "gaussian"}}, "outcome_knd"),
    ("synth", {**SYNTH, "dgp": {**SYNTH["dgp"], "covariates": [{"kind": "normal", "sdd": 2.0}]}},
     "sdd"),
    ("simulate", {**SIMULATE, "dist": {"kind": "normal", "mean": 0.0, "ss": 1.0}}, "ss"),
    ("simulate", {**SIMULATE, "dist": {"kind": "fixed", "mu": [0, 1, 2], "s": 5}}, "s"),
    ("predict", {**PREDICT, "profile": {**PREDICT["profile"], "sigma_epsilon": 0.1}},
     "sigma_epsilon"),
    # a resolved_config.json written while noise_mode was a field holds it
    ("simulate", {**SIMULATE, "noise_mode": "per_cell"}, "noise_mode"),
], ids=["top", "dgp", "covariate", "dist", "fixed_dist", "profile", "noise_mode"])
def test_unknown_key_at_any_level_exits_2_naming_it(tmp_path, capsys, command, config, key):
    assert _run_config(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert "unknown field(s)" in err and f"[{key!r}]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("covariate,key", [
    ({"kind": "bernoulli", "q": 0.3, "sd": 5.0, "mean": 9.0}, "mean"),
    ({"kind": "bernoulli", "q": 0.3, "sd": 5.0}, "sd"),
    ({"kind": "normal", "q": 0.9}, "q"),
], ids=["bernoulli_mean", "bernoulli_sd", "normal_q"])
def test_covariate_field_unused_by_its_kind_exits_2_naming_it(tmp_path, capsys, covariate, key):
    config = {**SYNTH, "dgp": {**SYNTH["dgp"], "covariates": [covariate]}}
    assert _run_config(tmp_path, "synth", config) == 2
    assert f"does not use {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("intercepts", "12"), ("arm_names", "ab")])
def test_text_for_a_dgp_list_is_not_split_into_characters(tmp_path, key, value):
    assert _run_config(tmp_path, "synth", {**SYNTH, "dgp": {**SYNTH["dgp"], key: value}}) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dgp,message", [
    ({"intercepts": [0.0, "nan"]}, "intercepts must all be finite"),
    ({"beta": [[0.2], ["-inf"]]}, "beta must all be finite"),
    ({"covariates": [{"kind": "normal", "mean": math.nan}]}, "needs a finite mean"),
], ids=["intercepts", "beta", "covariate_mean"])
def test_non_finite_dgp_value_exits_2_naming_its_field(tmp_path, capsys, dgp, message):
    assert _run_config(tmp_path, "synth", {**SYNTH, "dgp": {**SYNTH["dgp"], **dgp}}) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize("command,config", [
    ("simulate", {**SIMULATE, "m": HUGE}),
    ("simulate", {**SIMULATE, "n_individuals": HUGE}),
    ("sweep", {**{k: v for k, v in SIMULATE.items() if k != "m"}, "m_values": [2, HUGE]}),
    ("predict", {**PREDICT, "profile": {**PREDICT["profile"], "m": HUGE}}),
    # within numpy's index range, but 8 * n * m bytes are not addressable
    ("simulate", {**SIMULATE, "n_individuals": 2**62}),
    ("synth", {**SYNTH, "n": 2**62}),
], ids=["m", "n_individuals", "m_values", "profile_m", "n_individuals_x_m", "synth_n"])
def test_oversized_integer_exits_2_without_output(tmp_path, capsys, command, config):
    assert _run_config(tmp_path, command, config) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "index range" in err or "too large for numpy" in err


def test_index_bounds_are_numpys():
    info = np.iinfo(np.intp)
    assert (_util._INDEX_MIN, _util._INDEX_MAX) == (info.min, info.max)


def test_output_dir_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PERSGAIN_OUT", str(tmp_path / "from_env"))
    assert run_cli(["simulate", "--m", 2, "--sigma", 1, "--rho", 0,
                    "--n-individuals", 200, "--n-replications", 5]) == 0
    assert (tmp_path / "from_env" / "result.json").exists()
    assert (tmp_path / "from_env" / "resolved_config.json").exists()


# --------------------------------------------------------------------------
# simulate / sweep


SIM_ARGS = ["--m", 4, "--sigma", 1.5, "--rho", 0.3, "--sigma-eps", 0.5,
            "--n-individuals", 500, "--n-replications", 24, "--seed", 7]


def test_simulate_outputs_and_resolved_config(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["simulate", *SIM_ARGS, "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    assert list(result) == ["gain_mean", "gain_se", "v_personalized_mean", "v_uniform_mean"]
    lines = (out / "replications.csv").read_text().splitlines()
    assert lines[0] == "replication,gain"
    assert len(lines) == 1 + 24
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "simulate"
    assert resolved["config"]["m"] == 4
    assert resolved["config"]["seed"] == 7
    assert "artifact_version" in resolved
    assert sorted(resolved["outputs"]) == ["replications.csv", "result.json"]


def fixed_means_config(path, m: int, mean: float = 0.0):
    """A simulate config file with m fixed means, all equal to `mean`: the
    individual-level kernel, whose gains vary over replications."""
    path.write_text(json.dumps({"dist": {"kind": "fixed", "mu": [mean] * m}}))
    return path


def test_simulate_se_of_huge_finite_gains_is_finite(tmp_path):
    # every per-replication gain is near 1e200; squaring one overflows
    out = tmp_path / "run"
    cfg = fixed_means_config(tmp_path / "fixed.json", 3)
    assert run_cli(["simulate", "--config", cfg, "--m", 3, "--sigma", 1e200, "--rho", 0.2,
                    "--n-individuals", 200, "--n-replications", 4, "--out", out]) == 0
    gain_se = json.loads((out / "result.json").read_text())["gain_se"]
    rows = (out / "replications.csv").read_text().splitlines()[1:]
    gains = [float(row.split(",")[1]) for row in rows]
    assert math.isfinite(gain_se) and gain_se > 0
    assert gain_se == pytest.approx(statistics.stdev(gains) / 2, rel=1e-12)


def test_simulate_huge_finite_outcomes_with_prediction_noise_stay_finite(tmp_path):
    # sigma_eps is negligible next to v = 1e200 sqrt(0.8): the shrinkage
    # (v/c)^2 must come out 1, where v^2 / (v^2 + sigma_eps^2) is inf / inf
    cfg = fixed_means_config(tmp_path / "fixed.json", 3)
    for dist, out in ((["--config", cfg], tmp_path / "fixed"), ([], tmp_path / "normal")):
        assert run_cli(["simulate", *dist, "--m", 3, "--sigma", 1e200, "--rho", 0.2,
                        "--sigma-eps", 0.5, "--n-individuals", 200, "--n-replications", 4,
                        "--out", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert math.isfinite(result["gain_mean"]) and result["gain_mean"] > 0
        assert math.isfinite(result["gain_se"]) and result["gain_se"] >= 0
    # fixed means vary over replications; equal random means, the default,
    # leave nothing random
    assert json.loads((tmp_path / "fixed" / "result.json").read_text())["gain_se"] > 0
    assert json.loads((tmp_path / "normal" / "result.json").read_text())["gain_se"] == 0


# acceptance criterion 9's small arguments; SYNTH and DATA stand for the
# synth config and the data CSV it generates
RERUN_ARGS = {
    "synth": ["--config", "SYNTH"],
    "simulate": ["--m", 3, "--sigma", 1, "--rho", 0.2, "--sigma-eps", 0.3,
                 "--n-individuals", 400, "--n-replications", 12],
    "sweep": ["--m-values", "2,4", "--sigma", 2, "--rho", 0,
              "--n-individuals", 300, "--n-replications", 8],
    "estimate": ["--data", "DATA", "--quantiles", 5],
    "evaluate": ["--data", "DATA", "--policies", "uniform,ols", "--n-boot", 50],
    "predict": ["--profile", "walmart", "--n-individuals", 800, "--n-replications", 10],
    "sensitivity": ["--profile", "walmart", "--parameter", "sigma", "--grid", "0.05,0.1",
                    "--n-individuals", 800, "--n-replications", 10],
    "counterfactual": ["--profile-a", "walmart", "--profile-b", "penn_geisinger",
                       "--parameter", "rho", "--n-individuals", 800, "--n-replications", 10],
    "elasticity": ["--profile", "penn_geisinger", "--n-individuals", 800,
                   "--n-replications", 10],
}


@pytest.fixture(scope="module")
def rerun_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("rerun")
    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    synth = root / "synth.json"
    synth.write_text(json.dumps({"dgp": dgp.to_config(), "n": 2_000, "seed": 1}))
    assert run_cli(["synth", "--config", synth, "--out", root / "data"]) == 0
    return {"SYNTH": synth, "DATA": root / "data" / "data.csv"}


@pytest.mark.parametrize("command", list(RERUN_ARGS))
def test_rerun_from_resolved_config_is_byte_identical(rerun_inputs, tmp_path, command):
    a, b = tmp_path / "a", tmp_path / "b"
    args = [rerun_inputs.get(arg, arg) for arg in RERUN_ARGS[command]]
    assert run_cli([command, *args, "--out", a]) == 0
    assert run_cli([command, "--config", a / "resolved_config.json", "--out", b]) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    outputs = json.loads((a / "resolved_config.json").read_text())["outputs"]
    assert names == sorted([*outputs, "resolved_config.json"])
    for name in names:
        assert read(a / name) == read(b / name), name


@pytest.mark.parametrize("command", list(RERUN_ARGS))
def test_negative_seed_exits_2_without_output(rerun_inputs, tmp_path, capsys, command):
    args = [rerun_inputs.get(arg, arg) for arg in RERUN_ARGS[command]]
    out = tmp_path / "o"
    assert run_cli([command, *args, "--seed", -1, "--out", out]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,field", [("estimate", "--quantiles", "n_quantiles")])
def test_oversized_data_command_size_exits_2_without_output(rerun_inputs, tmp_path, capsys,
                                                            command, flag, field):
    # within numpy's index range: more quantile bins than holdout rows
    out = tmp_path / "o"
    assert run_cli([command, "--data", rerun_inputs["DATA"], flag, 2**62, "--out", out]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_list_flags_are_stored_as_lists(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sensitivity", *RERUN_ARGS["sensitivity"], "--out", out]) == 0
    config = json.loads((out / "resolved_config.json").read_text())["config"]
    assert config["grid"] == [0.05, 0.1]
    assert config["n_individuals"] == 800


def test_jobs_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", *SIM_ARGS, "--jobs", 1, "--out", a]) == 0
    assert run_cli(["simulate", *SIM_ARGS, "--jobs", 4, "--out", b]) == 0
    for name in ["result.json", "replications.csv", "resolved_config.json"]:
        assert read(a / name) == read(b / name), name


def test_resolved_config_for_other_command_is_rejected(tmp_path, capsys):
    a = tmp_path / "a"
    assert run_cli(["simulate", *SIM_ARGS, "--out", a]) == 0
    assert run_cli(["sweep", "--config", a / "resolved_config.json", "--out", tmp_path / "b"]) == 2
    assert "resolved for command" in capsys.readouterr().err


def test_sweep_csv_has_one_row_per_arm_count(tmp_path):
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--m-values", "2,5,10", "--sigma", 10, "--rho", 0.5,
                    "--n-individuals", 400, "--n-replications", 10, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "m,gain_mean,gain_se,v_personalized_mean,v_uniform_mean"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "5", "10"]


def test_sweep_checks_every_arm_count_before_simulating_any(tmp_path, capsys, monkeypatch):
    import persgain.simulate

    calls = []
    replicate = persgain.simulate._replicate
    monkeypatch.setattr(persgain.simulate, "_replicate",
                        lambda *args: calls.append(args) or replicate(*args))
    args = ["sweep", "--sigma", 1, "--rho", -0.6, "--n-individuals", 50, "--n-replications", 5]
    # rho = -0.6 is valid for m = 2 and below the bound -1/(m - 1) = -0.5 for m = 3
    assert run_cli([*args, "--m-values", "2", "--out", tmp_path / "ok"]) == 0
    assert len(calls) == 5
    calls.clear()
    out = tmp_path / "bad"
    assert run_cli([*args, "--m-values", "2,3", "--out", out]) == 2
    assert "rho" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# --------------------------------------------------------------------------
# synth -> estimate -> evaluate pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synthetic experiment shared by the data-facing CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    dgp = one_factor_dgp(
        m=3, sigma=0.25, rho=0.5, intercepts=(0.30, 0.34, 0.29), noise_sd=0.25
    )
    cfg = root / "synth.json"
    cfg.write_text(json.dumps({"dgp": dgp.to_config(), "n": 20_000, "seed": 3}))
    out = root / "synth"
    assert run_cli(["synth", "--config", cfg, "--out", out]) == 0
    return {"root": root, "out": out, "dgp": dgp, "config": cfg}


def test_synth_writes_loadable_dataset(pipeline):
    dataset = load_csv(pipeline["out"] / "data.csv")
    assert dataset.n == 20_000
    assert dataset.arm_names == ("arm_0", "arm_1", "arm_2")
    schema = json.loads((pipeline["out"] / "schema.json").read_text())
    assert schema["covariate_names"] == list(dataset.covariate_names)
    assert schema["arm_names"] == list(dataset.arm_names)


def test_schema_kinds_match_load_csv(tmp_path):
    # a degenerate normal covariate (sd 0, mean 1) holds only ones
    covariates = [{"kind": "bernoulli", "q": 0.3}, {"kind": "normal", "sd": 2.0},
                  {"kind": "normal", "mean": 1.0, "sd": 0.0}]
    dgp = SynthDGP.from_config({"intercepts": [0.0, 0.1], "noise_sd": 0.3,
                                "beta": [[0.2, 0.1, 0.3], [0.3, 0.0, 0.1]],
                                "covariates": covariates})
    # to_config spells out every default, which each kind accepts
    assert _run_config(tmp_path, "synth", {"n": 200, "seed": 1, "dgp": dgp.to_config()}) == 0
    schema = json.loads((tmp_path / "out" / "schema.json").read_text())
    loaded = load_csv(tmp_path / "out" / "data.csv")
    assert schema["covariate_kinds"] == ["binary", "continuous", "binary"]
    assert tuple(schema["covariate_kinds"]) == loaded.covariate_kinds


def test_synth_sealed_file_covers_every_unit_and_arm(pipeline):
    lines = (pipeline["out"] / "sealed.csv").read_text().splitlines()
    assert lines[0] == "unit_id,y_arm_0,y_arm_1,y_arm_2"
    assert len(lines) == 1 + 20_000


def test_synth_rerun_is_byte_identical(pipeline, tmp_path):
    out2 = tmp_path / "again"
    assert run_cli(["synth", "--config", pipeline["config"], "--out", out2]) == 0
    for name in ["data.csv", "sealed.csv", "schema.json"]:
        assert read(pipeline["out"] / name) == read(out2 / name), name


def test_estimate_recovers_dgp_moments(pipeline, tmp_path):
    out = tmp_path / "est"
    assert run_cli(["estimate", "--data", pipeline["out"] / "data.csv",
                    "--train-frac", 0.7, "--quantiles", 10, "--seed", 0,
                    "--out", out]) == 0
    moments = json.loads((out / "moments.json").read_text())
    dgp = pipeline["dgp"]
    assert moments["sigma_hat"] == pytest.approx(dgp.true_sigma(), rel=0.15)
    assert abs(moments["rho_hat_mean"] - dgp.true_rho_mean()) < 0.07
    assert moments["sigma_eps_hat"] == pytest.approx(0.25, rel=0.05)
    assert moments["s_hat"] == pytest.approx(dgp.true_s(), rel=0.25)


def test_estimate_rerun_is_byte_identical(pipeline, tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert run_cli(["estimate", "--data", pipeline["out"] / "data.csv", "--out", out]) == 0
        outs.append(out)
    assert read(outs[0] / "moments.json") == read(outs[1] / "moments.json")


def test_library_warnings_print_one_line_each(tmp_path):
    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"dgp": dgp.to_config(), "n": 400, "seed": 1}))
    assert run_cli(["synth", "--config", synth, "--out", tmp_path / "d"]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "persgain.cli", "estimate", "--data", tmp_path / "d" / "data.csv",
         "--out", tmp_path / "e"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: 20 (arm, quantile) cells hold fewer than 30 units")
    assert ".py" not in proc.stderr and "UserWarning" not in proc.stderr


def test_warnings_from_worker_threads_print_whole_lines(monkeypatch):
    # a stream that lets other threads run at every write: a line written in
    # two calls, text then newline, is then split by other threads' lines
    class Yielding(io.StringIO):
        def write(self, text):
            time.sleep(0)
            return super().write(text)

    def warn_from_threads(config, args):
        start = threading.Barrier(8)

        def warn(k):
            start.wait(timeout=30)
            for j in range(20):
                warnings.warn(f"thread {k} message {j}", RuntimeWarning)

        threads = [threading.Thread(target=warn, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

    stderr = Yielding()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setitem(cli._HANDLERS, "gain", warn_from_threads)
    assert run_cli(["gain", "--mu-a", 1, "--mu-b", 2, "--sigma", 1, "--rho", 0]) == 0
    lines = stderr.getvalue().split("\n")
    assert lines.pop() == ""
    assert sorted(lines) == sorted(f"warning: thread {k} message {j}"
                                   for k in range(8) for j in range(20))


def test_estimate_empty_holdout_arm_exits_2_naming_the_cell(tmp_path, capsys):
    # arm b holds a single unit; the split sends it to the training side,
    # so every holdout quantile bin for b is empty
    rows = ["unit_id,arm,outcome,propensity,x"]
    for i in range(30):
        rows.append(f"u{i:03d},a,{0.1 * (i % 7)},0.5,{i / 30}")
    rows.append("u030,b,0.4,0.5,0.5")
    data = tmp_path / "thin.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = run_cli(["estimate", "--data", data, "--train-frac", 0.5,
                  "--quantiles", 2, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "arm 'b'" in err and "bin" in err


def test_estimate_propensities_short_of_one_exit_2_with_a_plain_sum(tmp_path, capsys):
    # two arms at 1/3 each: a third arm with no rows cannot be named by a CSV
    rows = ["unit_id,arm,outcome,propensity,x"]
    rows += [f"u{i:03d},{'ab'[i % 2]},{0.1 * (i % 7)},{1 / 3!r},{i / 40}" for i in range(40)]
    data = tmp_path / "short.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli(["estimate", "--data", data, "--quantiles", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "per-arm propensities sum to 0.6666666666666666, expected 1" in err
    assert "arms it has rows for" in err and "np.float64" not in err
    assert not out.exists()


def test_evaluate_report_benchmark_first_and_ols_wins(pipeline, tmp_path):
    out = tmp_path / "ev"
    assert run_cli(["evaluate", "--data", pipeline["out"] / "data.csv",
                    "--policies", "uniform,ols", "--n-boot", 200, "--out", out]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == ("policy,value,se_boot,abs_improvement,rel_improvement,diff_se_boot,"
                        "n_matched,match_rate")
    first = lines[1].split(",")
    assert first[0].startswith("best_uniform[")
    assert float(first[3]) == 0.0
    holdout = round(20_000 * 0.3)
    for line in lines[1:]:
        n_matched, match_rate = line.split(",")[6:]
        assert 0 < int(n_matched) < holdout
        assert float(match_rate) == int(n_matched) / holdout
    by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    ols = by_name["ols_interaction"]
    # strong linear heterogeneity in the DGP: the fitted policy should clear
    # the benchmark by many bootstrap SEs
    assert float(ols[3]) > 3 * float(ols[5])


def test_evaluate_report_is_byte_identical_at_any_n_boot(pipeline, tmp_path, capsys):
    # the SEs are exact: --n-boot is checked but moves no byte
    data = pipeline["out"] / "data.csv"
    for n_boot in (2, 1000):
        assert run_cli(["evaluate", "--data", data, "--n-boot", n_boot,
                        "--out", tmp_path / str(n_boot)]) == 0
    assert read(tmp_path / "2" / "report.csv") == read(tmp_path / "1000" / "report.csv")
    assert run_cli(["evaluate", "--data", data, "--n-boot", 1, "--out", tmp_path / "1"]) == 2
    assert "n_boot must be >= 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "1").exists()


def test_evaluate_unknown_policy_exits_2(pipeline, tmp_path, capsys):
    rc = run_cli(["evaluate", "--data", pipeline["out"] / "data.csv",
                  "--policies", "uniform,frisbee", "--out", tmp_path / "o"])
    assert rc == 2
    assert "frisbee" in capsys.readouterr().err


def test_evaluate_unknown_policy_exits_2_before_reading_the_data(tmp_path, capsys, monkeypatch):
    def load_csv(path):
        raise AssertionError("the data was read")

    monkeypatch.setattr("persgain.dataset.load_csv", load_csv)
    out = tmp_path / "o"
    rc = run_cli(["evaluate", "--data", tmp_path / "data.csv", "--policies", "ols,tree",
                  "--out", out])
    assert rc == 2
    assert "unknown policy 'tree'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("policies", ["uniform,ols", "ols,uniform"])
def test_evaluate_arm_without_training_rows_exits_2_whichever_policy_is_first(
    tmp_path, capsys, policies
):
    # three rows per arm; a 0.2 split trains on one row, of arm a
    rows = ["unit_id,arm,outcome,propensity,x"]
    rows += [f"u{i},{'ab'[i // 3]},{i},0.5,{i % 2}" for i in range(6)]
    data = tmp_path / "six.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = run_cli(["evaluate", "--data", data, "--train-frac", 0.2, "--policies", policies,
                  "--n-boot", 10, "--out", tmp_path / "o"])
    assert rc == 2
    assert "arm 'b' has no training rows" in capsys.readouterr().err


def test_evaluate_missing_data_file_exits_2(tmp_path, capsys):
    rc = run_cli(["evaluate", "--data", tmp_path / "ghost.csv", "--out", tmp_path / "o"])
    assert rc == 2


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    cfg = tmp_path_factory.mktemp("small") / "synth.json"
    cfg.write_text(json.dumps({"dgp": dgp.to_config(), "n": 60, "seed": 2}))
    assert run_cli(["synth", "--config", cfg, "--out", cfg.parent]) == 0
    return (cfg.parent / "data.csv").read_bytes()


@settings(max_examples=80, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.binary(max_size=3)), min_size=1, max_size=4),
    cut=st.integers(0, 10**6),
    gz=st.booleans(),
)
@example(edits=[(40, b"\xff")], cut=10**6, gz=False)
def test_garbled_csv_never_exits_1(small_csv, tmp_path_factory, edits, cut, gz):
    # a garbled file either still parses and runs, or is rejected as bad input
    data = bytearray(gzip.compress(small_csv, mtime=0) if gz else small_csv)
    for at, new in edits:
        at %= len(data)
        data[at : at + len(new)] = new
    root = tmp_path_factory.mktemp("garbled")
    path = root / ("data.csv.gz" if gz else "data.csv")
    path.write_bytes(bytes(data[: max(1, cut % (len(data) + 1))]))
    rc = run_cli(["estimate", "--data", path, "--quantiles", 2, "--out", root / "out"])
    assert rc in (0, 2)


# --------------------------------------------------------------------------
# profile commands


FAST_PROFILE_ARGS = ["--n-individuals", 2_000, "--n-replications", 30, "--seed", 0]


def test_predict_bundled_profile(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["predict", "--profile", "penn_geisinger", *FAST_PROFILE_ARGS,
                    "--out", out]) == 0
    doc = json.loads((out / "prediction.json").read_text())
    assert doc["profile"]["m"] == 20
    assert doc["profile"]["sigma"] == 0.267
    assert "assumed: choose before use" in doc["profile"]["outcome_scale_note"]
    assert doc["gain_mean"] > 0
    assert doc["gain_se"] > 0


def test_predict_profile_file_matches_bundled(tmp_path):
    import persgain

    bundled = Path(persgain.__file__).parent / "profiles" / "walmart.json"
    copy = tmp_path / "my_walmart.json"
    shutil.copy(bundled, copy)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["predict", "--profile", "walmart", *FAST_PROFILE_ARGS, "--out", a]) == 0
    assert run_cli(["predict", "--profile", copy, *FAST_PROFILE_ARGS, "--out", b]) == 0
    assert read(a / "prediction.json") == read(b / "prediction.json")


def test_directory_named_like_a_bundled_profile_does_not_shadow_it(tmp_path, monkeypatch):
    # running `predict --profile walmart --out walmart` twice: the second run
    # finds a walmart/ directory in its working directory
    args = ["predict", "--profile", "walmart", "--n-individuals", 500, "--n-replications", 4,
            "--jobs", 1, "--out"]
    assert run_cli([*args, tmp_path / "elsewhere"]) == 0
    work = tmp_path / "work"
    (work / "walmart").mkdir(parents=True)
    monkeypatch.chdir(work)
    assert run_cli([*args, "walmart"]) == 0
    assert read(work / "walmart" / "prediction.json") == read(
        tmp_path / "elsewhere" / "prediction.json")


def test_predict_unknown_profile_exits_2(tmp_path, capsys):
    assert run_cli(["predict", "--profile", "atlantis", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "atlantis" in err and "penn_geisinger" in err and "walmart" in err


def test_sensitivity_rows_sorted_with_baseline_flag(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sensitivity", "--profile", "walmart", "--parameter", "rho",
                    "--grid", "0.9,0.3,0.61", *FAST_PROFILE_ARGS, "--out", out]) == 0
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,gain_mean,gain_se,is_baseline"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values) == [0.3, 0.61, 0.9]
    flags = [line.split(",")[4] for line in lines[1:]]
    assert flags == ["0", "1", "0"]


def test_arm_count_sweep_writes_integer_values(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sensitivity", "--profile", "walmart", "--parameter", "m",
                    "--grid", "2,23", *FAST_PROFILE_ARGS, "--out", out]) == 0
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["2", "23"]


def test_list_flag_may_start_with_a_negative_number(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli(["sensitivity", "--profile", "walmart", "--parameter", "rho",
                    "--grid", "-0.04,0.3", *FAST_PROFILE_ARGS, "--out", out]) == 0
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert [float(line.split(",")[1]) for line in lines[1:]] == [-0.04, 0.3]
    # a value that is not a number still reads as an unknown flag
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["sensitivity", "--profile", "walmart", "--parameter", "rho", "--grid", "-x",
                 *FAST_PROFILE_ARGS, "--out", tmp_path / "x"])
    assert exit_info.value.code == 2
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_counterfactual_four_rows(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["counterfactual", "--profile-a", "walmart",
                    "--profile-b", "penn_geisinger", "--parameter", "sigma",
                    *FAST_PROFILE_ARGS, "--out", out]) == 0
    lines = (out / "counterfactual.csv").read_text().splitlines()
    assert lines[0] == "study,parameter,value_used,source,gain_mean,gain_se"
    assert len(lines) == 1 + 4
    sources = [line.split(",")[3] for line in lines[1:]]
    assert sources == ["own", "penn_geisinger", "own", "walmart"]


def test_counterfactual_swaps_s(tmp_path):
    # the bundled profiles share s, so each swapped row equals its own row
    out = tmp_path / "c"
    assert run_cli(["counterfactual", "--profile-a", "walmart",
                    "--profile-b", "penn_geisinger", "--parameter", "s",
                    *FAST_PROFILE_ARGS, "--out", out]) == 0
    rows = [line.split(",") for line in (out / "counterfactual.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["s"] * 4
    assert [row[3] for row in rows] == ["own", "penn_geisinger", "own", "walmart"]
    assert rows[0][4:] == rows[1][4:] and rows[2][4:] == rows[3][4:]


def test_elasticity_baseline_first(tmp_path):
    out = tmp_path / "e"
    assert run_cli(["elasticity", "--profile", "penn_geisinger", "--delta", 0.01,
                    *FAST_PROFILE_ARGS, "--out", out]) == 0
    lines = (out / "elasticity.csv").read_text().splitlines()
    assert lines[0] == "change,parameter,old_value,new_value,gain_mean,gain_se,gain_delta,best"
    body = [line.split(",") for line in lines[1:]]
    assert body[0][0] == "baseline"
    assert float(body[0][6]) == 0.0
    assert {row[0] for row in body[1:]} == {"s_down", "sigma_up", "rho_down", "sigma_eps_down"}
    assert len({row[-1] for row in body}) == 1  # one winner named on every row


def test_profile_commands_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["elasticity", "--profile", "walmart", *FAST_PROFILE_ARGS,
                        "--out", out]) == 0
    assert read(a / "elasticity.csv") == read(b / "elasticity.csv")
    assert read(a / "resolved_config.json") == read(b / "resolved_config.json")


def test_floats_round_trip_through_outputs(tmp_path):
    # values printed to CSV/JSON carry full precision: parsing them back
    # reproduces the in-memory doubles bit for bit
    out = tmp_path / "rt"
    assert run_cli(["simulate", *SIM_ARGS, "--out", out]) == 0
    from persgain.simulate import SimConfig, dist_from_config, simulate_gain

    resolved = json.loads((out / "resolved_config.json").read_text())["config"]
    result = simulate_gain(SimConfig(**{**resolved, "dist": dist_from_config(resolved["dist"])}))
    doc = json.loads((out / "result.json").read_text())
    assert doc["gain_mean"] == result.gain_mean
    csv_rows = (out / "replications.csv").read_text().splitlines()[1:]
    parsed = [float(row.split(",")[1]) for row in csv_rows]
    assert parsed == list(result.per_replication_gains)


# --------------------------------------------------------------------------
# output formats and input errors


def test_arm_names_with_commas_and_quotes_keep_every_row_width(tmp_path):
    dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.9, 0.5, 0.5), noise_sd=0.3)
    names = ["a,1", 'b"2', "c"]
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"dgp": {**dgp.to_config(), "arm_names": names},
                               "n": 600, "seed": 1}))
    data = tmp_path / "data"
    assert run_cli(["synth", "--config", cfg, "--out", data]) == 0
    assert run_cli(["evaluate", "--data", data / "data.csv", "--n-boot", 20,
                    "--out", tmp_path / "ev"]) == 0
    tables = {}
    for path in (data / "data.csv", data / "sealed.csv", tmp_path / "ev" / "report.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            tables[path.name] = list(csv.reader(fh))
        assert len({len(row) for row in tables[path.name]}) == 1, path.name
    assert tables["sealed.csv"][0] == ["unit_id"] + [f"y_{name}" for name in names]
    assert tables["report.csv"][1][0] == "best_uniform[a,1]"
    assert load_csv(data / "data.csv").arm_names == tuple(sorted(names))


def test_listed_uniform_policy_names_the_benchmark_arm(tmp_path):
    # load_csv sorts arm names, so arm_11 is arm index 3 of twelve
    dgp = one_factor_dgp(m=12, sigma=0.3, rho=0.5, intercepts=[0.1 * a for a in range(12)],
                         noise_sd=0.3)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"dgp": dgp.to_config(), "n": 3_000, "seed": 1}))
    assert run_cli(["synth", "--config", cfg, "--out", tmp_path / "data"]) == 0
    out = tmp_path / "ev"
    assert run_cli(["evaluate", "--data", tmp_path / "data" / "data.csv",
                    "--policies", "uniform,ols,uniform", "--n-boot", 20, "--out", out]) == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        bench, uniform, ols, again = list(csv.reader(fh))[1:]
    assert [bench[0], uniform[0], ols[0], again[0]] == [
        "best_uniform[arm_11]", "uniform[arm_11]", "ols_interaction", "uniform[arm_11]"]
    assert bench[1:] == uniform[1:] == again[1:]


def test_synth_with_duplicate_arm_names_exits_2_without_output(tmp_path, capsys):
    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"dgp": {**dgp.to_config(), "arm_names": ["a", "a"]},
                               "n": 100, "seed": 1}))
    out = tmp_path / "out"
    assert run_cli(["synth", "--config", cfg, "--out", out]) == 2
    assert "'a' appears more than once" in capsys.readouterr().err
    assert not out.exists()


def test_synth_whose_last_output_fails_writes_nothing(tmp_path, capsys, monkeypatch):
    # schema.json is computed last; data.csv and sealed.csv must not be
    # written ahead of it
    def broken(self):
        raise InternalError("schema unavailable")

    monkeypatch.setattr(ExperimentDataset, "schema_doc", broken)
    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"dgp": dgp.to_config(), "n": 100, "seed": 1}))
    out = tmp_path / "out"
    assert run_cli(["synth", "--config", cfg, "--out", out]) == 1
    assert "schema unavailable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("estimate", "--data"), ("predict", "--profile")])
def test_directory_given_as_input_exits_2_without_output(tmp_path, capsys, command, flag):
    source = tmp_path / "a_directory"
    source.mkdir()
    out = tmp_path / "out"
    assert run_cli([command, flag, source, "--out", out]) == 2
    assert "a_directory" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_overflowing_outcome_exits_2_without_output(tmp_path, capsys):
    # one outcome near the float64 limit: the finite data overflow the
    # moment arithmetic, which must not reach moments.json as Infinity
    rows = ["unit_id,arm,outcome,propensity,x"]
    rows += [f"u{i:03d},{'ab'[i % 2]},{0.1 * (i % 7)},0.5,{i / 60}" for i in range(60)]
    rows[1] = "u000,a,1e308,0.5,0.0"
    data = tmp_path / "big.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run_cli(["estimate", "--data", data, "--quantiles", 2, "--out", out]) == 2
    assert "s_hat" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_overflowing_outcome_exits_2_without_output(tmp_path, capsys):
    # outcome / propensity overflows, which must not reach report.csv as inf
    rows = ["unit_id,arm,outcome,propensity"]
    rows += [f"u{i},{'ab'[i % 2]},{'-' if i % 3 else ''}1e308,0.5" for i in range(6)]
    data = tmp_path / "big.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run_cli(["evaluate", "--data", data, "--train-frac", 0.5, "--n-boot", 5,
                    "--out", out]) == 2
    assert "overflow float64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["sigma", "s", "mean"])
def test_simulator_overflowing_outcomes_exit_2_without_output(tmp_path, capsys, field):
    # every input is finite; only the values built from them overflow: v
    # E[max of 100 normals] given equal means, means drawn with s = 1e308,
    # or the individual-level kernel's sums of outcomes near 1e308 (a huge
    # random-means profile mean overflows nothing: the next test)
    if field == "sigma":
        args = ["simulate", "--m", 100, "--sigma", 1e308, "--rho", 0.2,
                "--n-individuals", 10, "--n-replications", 2]
    elif field == "s":
        profile = tmp_path / "huge.json"
        profile.write_text(json.dumps({"name": "huge", "s": 1e308, "sigma": 1.0, "rho": 0.2,
                                       "sigma_eps": 0.1, "m": 100}))
        args = ["predict", "--profile", profile, "--n-individuals", 10, "--n-replications", 2]
    else:
        cfg = fixed_means_config(tmp_path / "fixed.json", 3, mean=1e308)
        args = ["simulate", "--config", cfg, "--m", 3, "--sigma", 1.0, "--rho", 0.2,
                "--n-individuals", 10, "--n-replications", 2]
    out = tmp_path / "out"
    assert run_cli([*args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "non-finite replication values" in err and "overflow float64" in err
    assert not out.exists()


def test_predict_with_a_huge_profile_mean_gives_the_gain_of_a_zero_mean(tmp_path):
    # the means are drawn as distances from the profile's mean, and the gain
    # as a difference of distances from the best mean: a mean of 1e308 moves
    # no gain, where the values themselves, near 1e308, would keep none
    gains = []
    for mean in (0.0, 1e308):
        profile = tmp_path / f"mean_{mean}.json"
        profile.write_text(json.dumps({"name": "huge", "s": 1.0, "sigma": 1.0, "rho": 0.2,
                                       "sigma_eps": 0.1, "m": 3, "mean": mean}))
        out = tmp_path / f"out_{mean}"
        assert run_cli(["predict", "--profile", profile, "--n-individuals", 10,
                        "--n-replications", 2, "--out", out]) == 0
        result = json.loads((out / "prediction.json").read_text())
        gains.append((result["gain_mean"], result["gain_se"]))
    assert gains[1] == gains[0]
    assert 0.0 < gains[0][0] < 10.0 and gains[0][1] > 0.0


def test_write_json_rejects_non_finite_floats(tmp_path):
    with pytest.raises(InternalError, match="x.json"):
        write_json(tmp_path / "x.json", {"value": math.nan})
    assert not (tmp_path / "x.json").exists()


def test_benchmark_tracer_still_finds_its_spans(tmp_path):
    """perfbench/tracer.py times functions by replacing, by name, each one
    the package binds, so renaming a traced function fails this test (the
    tracer cannot install) and rebinding one drops its span. A handler that
    imports at call time must read the wrapper from the home module. It only
    reads perfbench/; ROADMAP item 3 moves the spans into the package and
    removes it. The tracer's counters read traced parameters by name, so a
    renamed one fails here too. estimate and evaluate each build one
    holdout and fit on the training rows in place. sweep and elasticity
    each run one simulate_gain batch, which every replication hangs under,
    on the pool too, as the benchmark's smoke test requires. Each profile what-if
    reaches that batch through exactly one predict_gain call, whose count
    the benchmark requires to be above zero on profile_elasticity."""
    dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.5, intercepts=(0.5, 0.6), noise_sd=0.3)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"dgp": dgp.to_config(), "n": 2_000, "seed": 1}))
    data = tmp_path / "out" / "data.csv"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    names, counts, subsets, recorded_by = set(), set(), {}, {}
    for argv in (["synth", "--config", cfg, "--jobs", 1, "--out", tmp_path / "out"],
                 ["gain", "--mu-a", 1, "--mu-b", 2, "--sigma", 1.5, "--rho", 0.1],
                 ["simulate", "--m", 2, "--sigma", 1, "--rho", 0, "--n-individuals", 50,
                  "--n-replications", 2, "--jobs", 1, "--out", tmp_path / "sim"],
                 ["estimate", "--data", data, "--out", tmp_path / "est"],
                 ["evaluate", "--data", data, "--n-boot", 20, "--out", tmp_path / "eval"],
                 ["sweep", "--m-values", "2,5", "--sigma", 1, "--rho", 0, "--n-individuals", 50,
                  "--n-replications", 4, "--jobs", 2, "--out", tmp_path / "sweep"],
                 ["elasticity", "--profile", "penn_geisinger", "--n-individuals", 1_000,
                  "--n-replications", 4, "--jobs", 1, "--out", tmp_path / "elasticity"],
                 ["sensitivity", "--profile", "penn_geisinger", "--parameter", "m",
                  "--grid", "2,5", "--n-individuals", 1_000, "--n-replications", 4, "--jobs", 1,
                  "--out", tmp_path / "sensitivity"],
                 ["counterfactual", "--profile-a", "walmart", "--profile-b", "penn_geisinger",
                  "--parameter", "sigma", "--n-individuals", 1_000, "--n-replications", 4,
                  "--jobs", 1, "--out", tmp_path / "counterfactual"]):
        spans = tmp_path / f"{argv[0]}.json"
        proc = subprocess.run([sys.executable, REPO / "perfbench" / "tracer.py", spans, "--",
                               *[str(a) for a in argv]], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        recorded = json.loads(spans.read_text())["spans"]
        names |= {span["name"] for span in recorded}
        counts |= {(span["name"], key) for span in recorded for key in span["counts"]}
        subsets[argv[0]] = sum(span["name"] == "dataset.subset" for span in recorded)
        recorded_by[argv[0]] = recorded
    assert {"cli.cmd_synth", "dataset.write_csv", "util.write_csv", "util.write_json",
            "cli.cmd_gain", "analytic.gain_two_arm",
            "cli.cmd_simulate", "simulate.simulate_gain", "simulate._replicate",
            "simulate.sample_potential_outcomes",
            "cli.cmd_estimate", "cli.cmd_evaluate", "dataset.load_csv", "dataset.split",
            "estimation.fit_predictor", "estimation.estimate_sigma_rho",
            "estimation.estimate_sigma_eps", "policy.fit_ols_policy", "policy.gain_report",
            "policy._ipw_terms"} <= names
    assert {("policy.gain_report", "bootstrap_draws"), ("policy._ipw_terms", "matched"),
            ("policy._ipw_terms", "rows")} <= counts
    assert subsets["estimate"] == subsets["evaluate"] == 1
    for command in ("sweep", "elasticity"):
        recorded = recorded_by[command]
        batches = [i for i, span in enumerate(recorded) if span["name"] == "simulate.simulate_gain"]
        assert len(batches) == 1, command
        parents = {name: [recorded[span["parent"]]["name"] if span["parent"] >= 0 else None
                          for span in recorded if span["name"] == name]
                   for name in ("simulate._replicate", "simulate.sample_potential_outcomes")}
        assert parents["simulate._replicate"] == ["simulate.simulate_gain"] * 4, command
        # one draw step per replication
        assert parents["simulate.sample_potential_outcomes"] == ["simulate._replicate"] * 4, command
    for command, function in (("elasticity", "elasticity_table"),
                              ("sensitivity", "sensitivity_sweep"),
                              ("counterfactual", "counterfactual_swap")):
        recorded = recorded_by[command]
        chain = [f"cli.cmd_{command}", f"analysis.{function}", "analysis.predict_gain",
                 "simulate.simulate_gain"]
        for parent, child in zip(chain, chain[1:]):
            spans = [span for span in recorded if span["name"] == child]
            assert len(spans) == 1, (command, child)
            assert recorded[spans[0]["parent"]]["name"] == parent, (command, child)


# --------------------------------------------------------------------------
# imports: each command loads only the modules it runs

# persgain's entry point in a fresh interpreter; the last line of stderr
# names the persgain modules, and numpy or scipy, that the run loaded
MODULE_PROBE = """
import sys
from persgain.cli import main
try:
    sys.exit(main(sys.argv[1:]))
finally:
    print(*sorted(name for name in sys.modules
                  if name in ("numpy", "scipy") or name.startswith("persgain.")),
          file=sys.stderr)
"""


def loaded_modules(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [
    ["gain", "--mu-a", 1, "--mu-b", 2, "--sigma", 1.5, "--rho", 0.1, "--s", 0.5],
    ["gain", "--help"],
    ["--help"],
    ["--version"],
], ids=["gain", "gain_help", "help", "version"])
def test_gain_help_and_version_start_without_numpy(tmp_path, argv):
    assert loaded_modules(argv, tmp_path) == {
        "persgain._util", "persgain.analytic", "persgain.cli", "persgain.errors",
    }


def test_each_command_loads_only_its_own_layer(rerun_inputs, tmp_path):
    modules = loaded_modules(["elasticity", "--profile", "penn_geisinger",
                              "--n-replications", 2, "--n-individuals", 50, "--jobs", 1,
                              "--out", tmp_path / "elasticity"], tmp_path)
    assert {"numpy", "persgain.analysis", "persgain.simulate"} <= modules
    assert not modules & {"persgain.dataset", "persgain.estimation", "persgain.policy"}
    modules = loaded_modules(["estimate", "--data", rerun_inputs["DATA"], "--jobs", 1,
                              "--out", tmp_path / "estimate"], tmp_path)
    assert {"numpy", "persgain.dataset", "persgain.estimation"} <= modules
    assert not modules & {"persgain.simulate", "persgain.analysis"}


# --------------------------------------------------------------------------
# threads: a run starts no BLAS thread that --jobs did not grant

# the entry point in a fresh interpreter; the last line of stderr counts the
# process's threads after the command ends
THREAD_PROBE = """
import os, sys
from persgain.cli import main
try:
    sys.exit(main(sys.argv[1:]))
finally:
    print(len(os.listdir("/proc/self/task")), file=sys.stderr)
"""


def cli_env(**blas) -> dict:
    """The environment of a fresh persgain process: this one's, with no BLAS
    thread count but those given."""
    env = {key: value for key, value in os.environ.items() if key not in cli._BLAS_THREADS}
    return {**env, **blas, "PYTHONPATH": str(REPO / "src")}


def test_main_sets_one_blas_thread_unless_the_caller_sets_a_count(monkeypatch, capsys):
    for name in cli._BLAS_THREADS:
        monkeypatch.setenv(name, "0")  # so that the test's end restores each as it was
        monkeypatch.delenv(name)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert run_cli(["gain", "--mu-a", 1, "--mu-b", 2, "--sigma", 1.5, "--rho", 0.1]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["MKL_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "3"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_a_jobs_one_array_command_runs_on_one_thread(rerun_inputs, tmp_path):
    for argv in (["estimate", "--data", rerun_inputs["DATA"]],
                 ["elasticity", "--profile", "penn_geisinger", "--n-individuals", 200,
                  "--n-replications", 2]):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, *map(str, argv), "--jobs", "1",
             "--out", str(tmp_path / argv[0])],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "1", argv[0]


def test_the_blas_thread_count_changes_no_output(rerun_inputs, tmp_path):
    # a BLAS thread count the caller sets wins, and gives the same bytes
    for argv, output in ((["estimate"], "moments.json"),
                         (["evaluate", "--n-boot", "20"], "report.csv")):
        written = []
        for env in (cli_env(), cli_env(OPENBLAS_NUM_THREADS="2")):
            out = tmp_path / f"{argv[0]}{len(written)}"
            proc = subprocess.run(
                [sys.executable, "-m", "persgain.cli", *argv, "--data", str(rerun_inputs["DATA"]),
                 "--jobs", "1", "--out", str(out)],
                cwd=tmp_path, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            written.append(read(out / output))
        assert written[0] == written[1], argv[0]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_lists_a_flag_for_every_field_with_a_rule(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    flags = [name for name, (rule, *_) in cli._table(command).items() if rule is not None]
    assert flags
    for name in flags:
        assert re.search(rf"--{name.replace('_', '-')} {name.upper()}\b", help_text), name
