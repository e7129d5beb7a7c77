"""One reader for every JSON object the package reads: configs, distribution
specs, hypotheses, regions, mixtures and model files.

`read` takes a table {key: (converter, default)}. It rejects unknown keys and
calls convert(value, path) with each field's dotted path, such as
`hypothesis.region.side` or `distribution.components_pos[].weight`. A value of
the wrong type or shape is a ConfigError naming that path. A package error
from a converter keeps its own message. Fields inside a model file have paths
"<file field>: <path in the file>", and a wrong value there reads
`models[].path has the wrong type or shape: model.sizes = [2.9, 4, 2]`.
"""

from __future__ import annotations

from dataclasses import MISSING

from .errors import AdvGameError, ConfigError, UnsupportedKind

IN_FILE = ": "  # joins a file field to the path of a field inside the file


def _wrong(path: str, value) -> ConfigError:
    file, _, inner = path.partition(IN_FILE)
    shown = f"{inner} = {value!r}" if inner else repr(value)
    return ConfigError(f"{file} has the wrong type or shape: {shown}")


def converted(path: str, value, convert):
    """convert(value, path); a value of the wrong type or shape is a ConfigError."""
    try:
        return convert(value, path)
    except AdvGameError:
        raise
    # StopIteration: a csv file without a header line; OverflowError: an int too big for a float
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError, StopIteration):
        raise _wrong(path, value) from None


def _object(raw, where: str) -> dict:
    if isinstance(raw, dict):
        return raw
    if IN_FILE in where:
        raise _wrong(where, raw)
    raise ConfigError(f"{where or 'config'} must be a JSON object, got {raw!r}")


def read(raw, where: str, table: dict, defaults: dict | None = None) -> dict:
    """The fields of the object raw at path where, each one converted.

    table maps every allowed key to (converter, default). A key absent from raw
    takes defaults[key], else the table default, and that value is converted
    too. A table default of MISSING makes the key required; None leaves an
    absent key out of the result, so a dataclass default (or None) applies.
    """
    unknown = set(_object(raw, where)) - set(table)
    if unknown:
        name = where.removesuffix(IN_FILE) or "config"
        raise ConfigError(f"unknown fields in {name}: {sorted(unknown)}")
    fields = {}
    for key, (convert, default) in table.items():
        path = f"{where}.{key}" if where and not where.endswith(IN_FILE) else where + key
        value = raw[key] if key in raw else (defaults or {}).get(key, default)
        if value is MISSING:
            raise ConfigError(f"{path} is missing")
        if key in raw or value is not None:
            fields[key] = converted(path, value, convert)
    return fields


def read_kind(raw, where: str, kinds: dict, what: str):
    """make(**fields) for the kind that raw["kind"] names, where kinds maps each
    kind to (make, table) and table reads every other key of raw."""
    fields = dict(_object(raw, where))
    kind = fields.pop("kind", None)
    if not isinstance(kind, str) or kind not in kinds:
        raise UnsupportedKind(f"unknown {what} kind {kind!r}")
    make, table = kinds[kind]
    return make(**read(fields, where, table))


def section(table: dict, make=dict):
    """A converter that reads a nested object into make(**fields)."""
    return lambda raw, path: make(**read(raw, path, table))


def real(value, path: str = "") -> float:
    """A JSON number as a float; a bool or a string is rejected (float(True)
    is 1.0 and float("0.5") is 0.5)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def count(value, path: str = "") -> int:
    """A JSON number without a fractional part, as an int (int(2.9) is 2)."""
    if not real(value).is_integer():
        raise ValueError("expected a whole number")
    return int(value)


def at_least(low: int):
    """A converter that takes a count and rejects one below low."""
    def check(value, path: str = "") -> int:
        n = count(value)
        if n < low:
            raise ConfigError(f"{path} must be >= {low}, got {n}")
        return n
    return check


def exactly(kind):
    """A converter that passes a value of this JSON type through and rejects
    any other (bool("false") is True, str(5) is "5")."""
    def check(value, path: str = ""):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}")
        return value
    return check


def nullable(convert):
    return lambda value, path="": None if value is None else convert(value, path)


def listed(convert, into=tuple):
    """A converter for a JSON list, item by item; each item is at path + "[]"."""
    return lambda value, path="": into(convert(v, f"{path}[]") for v in value)


def row(*converts):
    """A converter for a JSON list of exactly one item per converter."""
    return lambda value, path="": tuple(c(v, path) for c, v in zip(converts, value, strict=True))
