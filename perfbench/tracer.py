"""Run one persgain command in this process with timing wrappers installed.

    python3 perfbench/tracer.py SPANS_JSON -- <persgain arguments...>

The wrappers live here, not in the package: each wrapped function is
replaced in every module namespace that binds it (and in the CLI's handler
table), so calls made through any of those names are timed. Spans are kept
in memory and written to SPANS_JSON when the command returns. The exit code
is the command's own.

A span records its name, start and end (perf_counter seconds), the index of
its parent span, the thread it ran on and a dict of counts. Each thread has
its own stack of open spans; a span opened on a worker thread with an empty
stack hangs under the span open on the main thread, so replications run on
the --jobs pool appear under the simulate_gain call that dispatched them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "thread": threading.get_ident(),
            "counts": {},
        }
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        self._stack().pop()
        return span


def _wrap(recorder: Recorder, name: str, fn, counter=None):
    """Time every call of fn as span `name`. counter(arguments, result) gets
    the call's arguments by parameter name and returns counts for the span;
    it runs after the span has ended, so its own cost shows only in the
    trace overhead."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = recorder.close(index)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span["counts"] = counter(bound.arguments, result)
        return result

    return wrapper


def _file_size(path) -> int:
    return os.stat(path).st_size


def install(recorder: Recorder) -> None:
    """Replace each traced function wherever the package binds it."""
    import numpy as np

    from persgain import _util, analysis, analytic, cli, dataset, estimation, policy, simulate

    def written_bytes(arguments, result):
        return {"bytes": _file_size(arguments["path"])}

    def replicate_counts(arguments, result):
        cfg = arguments["cfg"]
        n, m = cfg.n_individuals, cfg.m
        # normals: arm means, then the potential outcomes (one-factor form
        # for rho >= 0: a shared z column plus n x m eps; Cholesky form:
        # n x m), then the prediction noise
        outcome_normals = n + n * m if cfg.rho >= 0 else n * m
        mean_normals = 0 if isinstance(cfg.dist, simulate.FixedMeans) else m
        noise_normals = n * m if cfg.noise_mode == "per_cell" else n
        # float64 bytes of the four n x m arrays a replication materialises:
        # the standard-normal draws, Y, the noise draws and Yhat
        return {
            "normals": mean_normals + outcome_normals + noise_normals,
            "bytes": 8 * 4 * n * m,
        }

    def load_counts(arguments, result):
        return {"rows": result.n, "bytes": _file_size(arguments["path"])}

    def moments_counts(arguments, result):
        bin_counts = np.asarray(result[3]["bin_counts"])
        return {"thin_cells": int((bin_counts < 30).sum())}

    def report_counts(arguments, result):
        holdout_rows = len(arguments["split"].test_idx)
        return {"bootstrap_draws": int(arguments["n_boot"]) * holdout_rows}

    def ipw_counts(arguments, result):
        data = arguments["dataset"]
        matched = int(np.count_nonzero(arguments["policy"].assign(data) == data.arm))
        return {"matched": matched, "rows": data.n}

    # (span name, defining module, attribute, counter)
    targets = [
        ("analytic.gain_two_arm", analytic, "gain_two_arm", None),
        ("analytic.expected_gain_over_means", analytic, "expected_gain_over_means", None),
        ("analysis.predict_gain", analysis, "predict_gain", None),
        ("analysis.sensitivity_sweep", analysis, "sensitivity_sweep", None),
        ("analysis.counterfactual_swap", analysis, "counterfactual_swap", None),
        ("analysis.elasticity_table", analysis, "elasticity_table", None),
        ("simulate.simulate_gain", simulate, "simulate_gain", None),
        ("simulate.sweep_arms", simulate, "sweep_arms", None),
        ("simulate._replicate", simulate, "_replicate", replicate_counts),
        ("simulate.sample_potential_outcomes", simulate, "sample_potential_outcomes", None),
        ("dataset.generate_synthetic", dataset, "generate_synthetic", None),
        ("dataset.write_csv", dataset, "write_csv", written_bytes),
        ("dataset.load_csv", dataset, "load_csv", load_counts),
        ("dataset.split", dataset, "split", None),
        ("util.write_csv", _util, "write_csv", written_bytes),
        ("util.write_json", _util, "write_json", written_bytes),
        ("estimation.fit_predictor", estimation, "fit_predictor", None),
        ("estimation.estimate_sigma_rho", estimation, "estimate_sigma_rho", moments_counts),
        ("estimation.estimate_sigma_eps", estimation, "estimate_sigma_eps", None),
        ("policy.fit_ols_policy", policy, "fit_ols_policy", None),
        ("policy.gain_report", policy, "gain_report", report_counts),
        ("policy._ipw_terms", policy, "_ipw_terms", ipw_counts),
    ]
    modules = (_util, analysis, analytic, cli, dataset, estimation, policy, simulate)
    for span_name, home, attr, counter in targets:
        original = getattr(home, attr)
        wrapped = _wrap(recorder, span_name, original, counter)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    cls = dataset.ExperimentDataset
    cls.subset = _wrap(recorder, "dataset.subset", cls.subset)

    for command, handler in list(cli._HANDLERS.items()):
        wrapped = _wrap(recorder, f"cli.cmd_{command}", handler)
        cli._HANDLERS[command] = wrapped
        setattr(cli, handler.__name__, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <persgain arguments...>", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from persgain import cli

    code = 1
    try:
        code = cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": command, "exit_code": code, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
