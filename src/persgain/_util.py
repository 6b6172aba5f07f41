"""Small shared helpers: atomic file writes, round-trip number formatting,
typed config values, deterministic stream derivation."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips back to the same float."""
    return repr(float(x))


def typed(kind, value, name: str):
    """kind(value), reporting a value of the wrong type as a ConfigError
    that names the field."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: invalid value {value!r} ({exc})") from None


def typed_list(kind, value, name: str) -> list:
    """[kind(v) for v in value], with typed()'s errors."""
    return [typed(kind, v, name) for v in typed(list, value, name)]


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write `data` to `path` via a temp file + rename so readers never see
    a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str | Path, obj: object) -> None:
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def csv_cell(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key).

    Streams are derived by spawn key, never by consuming draws, so any
    subset of keys can run in any order (or in parallel) and still produce
    identical results.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
