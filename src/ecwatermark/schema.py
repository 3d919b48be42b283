"""Readers for the package's input files: switching configs and scenarios.

Every value read from a file passes through one of these readers, so both
kinds of file follow one set of rules. A section is a JSON object holding
only the keys it names. A number is a finite int or float, never a bool or a
numeric string, alone or as an entry of a list, vector or matrix. An integer
field also takes an integral float such as 60.0. A field without a default
is required. Any breach is a ConfigError naming the field's path
(`section.key`, `list[i]`, `matrix[i][j]`). Absent optional fields take the
defaults of the dataclass the section builds.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError


def json_document(data: str | bytes, path: str):
    """The JSON document in data, text or UTF-8 bytes. Bytes that are not
    UTF-8, invalid JSON (a BOM too, an integer past int's digit limit) and
    nesting too deep for the parser raise ConfigError at path."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"invalid JSON: {exc}", path=path) from exc


def section(value, path: str, keys=None) -> dict:
    """A section that is a JSON object and, given `keys`, holds no other key:
    the first other key, in file order, is a ConfigError, since a misspelt
    optional field would otherwise take its default without a word."""
    if not isinstance(value, dict):
        raise ConfigError("section must be a JSON object", path=path)
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"unknown field (expected one of: {', '.join(keys)})",
                              path=f"{path}.{key}")
    return value


def fields(value, path: str, readers: dict) -> dict:
    """The section at `path` whose keys are those of `readers`, each field it
    holds read by its reader: keyword arguments for a dataclass whose
    defaults fill the fields the section leaves out."""
    return {key: readers[key](item, f"{path}.{key}")
            for key, item in section(value, path, readers).items()}


def required(data: dict, key: str, path: str):
    """Field `key` of the section `data` at `path`, which must be present."""
    if key not in data:
        raise ConfigError("missing required field", path=f"{path}.{key}")
    return data[key]


def choice(*options: str):
    """A reader for a field that holds one of the strings `options`."""
    def read(value, path):
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"unknown value {value!r} (expected one of: {', '.join(options)})",
                              path=path)
        return value
    return read


def integer(value, path: str) -> int:
    """An integer field; integral floats such as 60.0 pass, bools and 2.7 do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path=path)
    return value


def number(value, path: str) -> float:
    """A finite real field; bools, strings and NaN/inf do not pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path=path)
    try:
        result = float(value)
    except OverflowError as exc:
        raise ConfigError(f"number out of range: {exc}", path=path) from exc
    if not math.isfinite(result):
        raise ConfigError("must be finite", path=path)
    return result


def numbers(value, path: str) -> tuple[float, ...]:
    """A list of finite real fields."""
    if not isinstance(value, list):
        raise ConfigError(f"expected a list of numbers, got {value!r}", path=path)
    return tuple(number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _array(value, path, shape_ok, expected) -> np.ndarray:
    """Float array whose shape passes `shape_ok`; `expected` names it. The
    entries of a list, or of a list of lists, pass `number`; any other value
    has no shape `shape_ok` takes, or fails to convert."""
    if isinstance(value, list):
        value = [numbers(row, f"{path}[{i}]") if isinstance(row, list)
                 else number(row, f"{path}[{i}]") for i, row in enumerate(value)]
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # rows of unequal length too
        raise ConfigError(f"not numeric: {exc}", path=path) from exc
    if not shape_ok(a.shape):
        raise ConfigError(f"expected {expected}, got shape {a.shape}", path=path)
    return a


def matrix(value, rows: int, cols: int | None, path: str) -> np.ndarray:
    """Finite matrix of shape (rows, cols); `cols=None` takes any positive width."""
    return _array(value, path,
                  lambda s: len(s) == 2 and s[0] == rows and (s[1] == cols if cols else s[1] >= 1),
                  f"shape ({rows}, {cols or 'any'})")


def square(value, path: str) -> np.ndarray:
    """Finite, non-empty square state matrix; its size is the block's order."""
    return _array(value, path, lambda s: len(s) == 2 and s[0] == s[1] >= 1,
                  "a square non-empty matrix")


def vector(value, size: int, path: str) -> np.ndarray:
    return _array(value, path, lambda s: s == (size,), f"length {size}")
