"""The one decoder from JSON objects to config dataclasses."""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import ConfigError

T = typing.TypeVar("T")


@functools.cache
def _fields(cls: type) -> tuple[frozenset[str], tuple[tuple[str, type, bool, bool], ...]]:
    """The field names of the dataclass ``cls``, and (name, type, nullable, required) per field."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp)
        nullable = typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args
        if nullable:
            (tp,) = [a for a in args if a is not type(None)]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        fields.append((f.name, typing.get_origin(tp) or tp, nullable, required))
    return frozenset(name for name, *_ in fields), tuple(fields)


def _accepts(tp: type, value) -> bool:
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


def decode(cls: type[T], data, what: str = "config", path: str = "") -> T:
    """Build the dataclass ``cls`` from the JSON object ``data``.

    An ``int`` field takes an int but not a bool; a ``float`` field takes
    an int or a finite float and keeps it as given; ``bool``, ``str``,
    ``dict`` and ``list`` fields take only that type, and ``X | None``
    also takes null.  A dataclass field takes an instance of its type or a
    JSON object, decoded recursively.  A non-object, an unknown key, a
    missing key without a default or a wrong-typed or non-finite value
    raises ConfigError naming the document ``what`` and the dotted key
    path below ``path``.
    """
    if not isinstance(data, dict):
        where = f" key {path}" if path else ""
        raise ConfigError(f"{what}{where} must be a JSON object, got {type(data).__name__} {data!r}")
    names, fields = _fields(cls)
    prefix = f"{path}." if path else ""
    if not data.keys() <= names:
        raise ConfigError(f"{what} has unknown key {prefix}{min(data.keys() - names)}")
    kwargs = {}
    for name, tp, nullable, required in fields:
        if name not in data:
            if required:
                raise ConfigError(f"{what} is missing key {prefix}{name}")
            continue
        value = data[name]
        if tp is float and isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{what} key {prefix}{name} must be a finite float, got {value!r}")
        if value is None and nullable or _accepts(tp, value):
            kwargs[name] = value
        elif dataclasses.is_dataclass(tp):
            kwargs[name] = decode(tp, value, what, prefix + name)
        else:
            expected = tp.__name__ + (" or null" if nullable else "")
            got = f"{type(value).__name__} {value!r}"
            raise ConfigError(f"{what} key {prefix}{name} must be {expected}, got {got}")
    return cls(**kwargs)
