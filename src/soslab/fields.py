"""Typed reads of the fields of a JSON document (configs, model params).

A field of the wrong type, a required field that is absent, or a key that
the reader does not read raises ``InvalidParams`` naming the field.
"""
from __future__ import annotations

import dataclasses
import numbers
from collections.abc import Collection

from .errors import InvalidParams

_REQUIRED = object()


def parse(kind: type, value, name: str):
    """``value`` as a ``kind``. ``int`` and ``float`` take only numbers,
    never a bool or a string: a ``float`` any of them, an ``int`` an
    integer or a float without a fractional part (``3.0`` reads 3, ``2.5``
    is an error). Any other kind, ``bool`` included, must already be an
    instance."""
    if kind in (int, float):
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                if kind is float:
                    return float(value)
                if isinstance(value, numbers.Integral) or float(value).is_integer():
                    return int(value)
            except OverflowError:  # an integer beyond the float range
                pass
    elif isinstance(value, kind):
        return value
    raise InvalidParams(f"{name}: expected {kind.__name__}, got {value!r}")


def parse_field(doc: dict, key: str, kind: type, default=_REQUIRED, name: str | None = None):
    """``doc[key]`` parsed as ``kind`` (named ``name``, else ``key``); an
    absent key gives ``default`` as it is."""
    if key in doc:
        return parse(kind, doc[key], name or key)
    if default is _REQUIRED:
        raise InvalidParams(f"{name or key}: missing")
    return default


def field_names(cls) -> set[str]:
    """The keys of a document that builds the dataclass ``cls``: its
    fields."""
    return {f.name for f in dataclasses.fields(cls)}


def check_keys(doc: dict, known: Collection[str], prefix: str = "") -> None:
    """Raise on the first key of ``doc`` outside ``known``, named with
    ``prefix``: a misspelled field would otherwise read its default."""
    for key in doc:
        if key not in known:
            raise InvalidParams(f"{prefix}{key}: unknown key")
