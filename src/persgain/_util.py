"""Small shared helpers: atomic file writes, round-trip number formatting,
the CSV writer (column-wise, in blocks of BLOCK_ROWS rows) and the strict
JSON writer, the one reader of JSON objects, deterministic stream
derivation.

Every JSON object the package reads (a command's config, a study profile,
a synthetic DGP and its covariates, a distribution of arm means) goes
through `read_fields` with a field table, {field: (rule, default)}, that
`fields_of` derives from a dataclass's type hints. Each rule reads one
value or raises a ConfigError naming the field: an int takes integral
values in numpy's index range, never a bool; a float takes a number or
numeric text, never a bool; a str takes text only; a tuple[X, ...] takes
a JSON list or comma-separated text; a nested dataclass takes a JSON
object read by its own table; an np.ndarray becomes a float array.

The helpers that need numpy import it when they run, so `gain` never does.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
import sys
import tempfile
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints

from .errors import ConfigError, InternalError, PersgainError

REQUIRED = MISSING  # the default of a field that has none

# numpy's index range: its intp is the C Py_ssize_t, which sys.maxsize bounds
_INDEX_MIN, _INDEX_MAX = -sys.maxsize - 1, sys.maxsize


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips back to the same float."""
    return repr(float(x))


# --------------------------------------------------------------------------
# reading JSON objects: a rule(value, name) returns the typed value or
# raises TypeError or ValueError, which `typed` reports as a ConfigError


def integer(value, name: str) -> int:
    if isinstance(value, str):
        value = int(value)
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if not _INDEX_MIN <= value <= _INDEX_MAX:
        raise ValueError(f"outside numpy's index range [{_INDEX_MIN}, {_INDEX_MAX}]")
    return int(value)


def real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def text(value, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected text, got {type(value).__name__}")
    return value


def list_of(rule):
    """A list field, given as a JSON list or as comma-separated text."""

    def read(value, name: str) -> tuple:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(typed(rule, item, name) for item in value)

    return read


def rule_of(hint):
    """The rule that reads a value of type `hint`."""
    if hint in (int, float, str):
        return {int: integer, float: real, str: text}[hint]
    if get_origin(hint) is tuple and get_args(hint)[1:] == (Ellipsis,):
        return list_of(rule_of(get_args(hint)[0]))
    np = sys.modules.get("numpy")  # the hint np.ndarray implies numpy is loaded
    if np is not None and hint is np.ndarray:
        return lambda value, name: np.asarray(value, dtype=float)
    if is_dataclass(hint):
        table = fields_of(hint)
        return lambda value, name: hint(**read_fields(table, value, name))
    raise TypeError(f"no rule reads type {hint!r}")


def fields_of(cls, *skip: str) -> dict:
    """A dataclass's fields as a field table: {name: (rule, default)}."""
    hints = get_type_hints(cls)
    return {f.name: (rule_of(hints[f.name]), f.default) for f in fields(cls) if f.name not in skip}


def typed(rule, value, name: str):
    """rule(value, name), reporting a value of the wrong type, or one the
    type cannot hold, as a ConfigError that names the field."""
    try:
        return rule(value, name)
    except PersgainError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: invalid value {value!r} ({exc})") from None


def read_fields(table: dict, doc, what: str) -> dict:
    """The JSON object `doc` as a typed value for every field of `table`,
    {field: (rule, default[, flag help])}; a field left out takes its
    default. A rule of None keeps the raw JSON value, and a None value
    stays None where the default is None. Errors name `<what> <field>`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown field(s) for {what}: {unknown}; known fields: {sorted(table)}")
    values = {key: spec[1] for key, spec in table.items() if spec[1] is not REQUIRED}
    values.update(doc)
    missing = [key for key in table if key not in values]
    if missing:
        raise ConfigError(f"missing required field(s) for {what}: {missing}")
    for key, (rule, default, *_) in table.items():
        if rule is not None and not (values[key] is None and default is None):
            values[key] = typed(rule, values[key], f"{what} {key}")
    return values


def check_addressable(what: str, *shape: int) -> None:
    """Reject a float64 array shape whose byte count exceeds numpy's index
    range; an addressable size can still fail to allocate (MemoryError)."""
    if math.prod(shape) * 8 > _INDEX_MAX:
        raise ConfigError(
            f"{what} of shape {' x '.join(map(str, shape))} is too large for numpy "
            f"to address ({_INDEX_MAX} bytes at most)"
        )


# --------------------------------------------------------------------------
# writing outputs


def atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks, in order, to `path` via a temp file + rename
    so readers never see a partial file; a failure before the rename,
    raised by the chunks' iterator too, removes the temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
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
    atomic_write(path, [(text + "\n").encode("utf-8")])


# rows per block of CSV text, both in csv_bytes and in dataset.load_csv: a
# CSV is never held whole in memory, as text or as lines
BLOCK_ROWS = 4096

# a text cell holding one of these is quoted, its quotes doubled
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def csv_cell(value: object) -> str:
    import numpy as np
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column: Sequence[object]) -> Iterable[str]:
    import numpy as np
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        # tolist() gives Python floats, whose repr is fmt_float's
        return map(repr, column.tolist())
    try:
        joined = "".join(column)  # a TypeError unless every value is text
    except TypeError:
        return map(csv_cell, column)
    if not _NEEDS_QUOTES.search(joined):
        return column  # plain text: each value is its own cell
    return map(csv_cell, column)


def csv_bytes(header: Sequence[str], columns: Sequence[Sequence[object]]) -> Iterator[bytes]:
    """UTF-8 CSV as encoded blocks: the header line, then BLOCK_ROWS rows at
    a time, each line "\\n"-terminated; floats round-trip. Each column is
    sliced per block; a float array slice and a text slice needing no quotes
    are formatted in one pass, any other slice cell by cell by csv_cell.
    Columns of unequal length raise here, before any block is made."""
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {lengths}")
    return _csv_blocks(header, columns, lengths[0] if lengths else 0)


def _csv_blocks(
    header: Sequence[str], columns: Sequence[Sequence[object]], n: int
) -> Iterator[bytes]:
    yield (",".join(map(csv_cell, header)) + "\n").encode("utf-8")
    for start in range(0, n, BLOCK_ROWS):
        block = (column[start : start + BLOCK_ROWS] for column in columns)
        lines = map(",".join, zip(*map(_cells, block)))
        yield ("\n".join(lines) + "\n").encode("utf-8")


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[object]]) -> None:
    atomic_write(path, csv_bytes(header, columns))


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key).

    Streams are derived by spawn key, never by consuming draws, so any
    subset of keys can run in any order (or in parallel) and still produce
    identical results.
    """
    import numpy as np
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
