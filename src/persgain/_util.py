"""Small shared helpers: atomic file writes, round-trip number formatting,
the CSV and strict JSON writers, typed config values, deterministic stream
derivation."""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InternalError


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips back to the same float."""
    return repr(float(x))


def typed(kind, value, name: str):
    """kind(value), reporting a value of the wrong type, or one kind cannot
    hold (an infinite integer), as a ConfigError that names the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
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
    """Strict JSON: a NaN or infinity reaching an output is a broken invariant."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InternalError(f"{Path(path).name}: {exc}") from None
    atomic_write(path, (text + "\n").encode("utf-8"))


# a text cell holding one of these is quoted, its quotes doubled
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def csv_cell(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence[object]]) -> bytes:
    """UTF-8 CSV, one "\\n"-terminated line per row; floats round-trip."""
    lines = [",".join(csv_cell(v) for v in header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    atomic_write(path, csv_bytes(header, rows))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key).

    Streams are derived by spawn key, never by consuming draws, so any
    subset of keys can run in any order (or in parallel) and still produce
    identical results.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
