"""Typed reads of the fields of a JSON document (configs, model params):
``read`` builds a dataclass, and ``parse_field`` reads one key.

A field of the wrong type, a required field that is absent, or a key that
the reader does not read raises ``InvalidParams`` naming the field.
"""
from __future__ import annotations

import dataclasses
import numbers
from collections.abc import Collection
from contextlib import contextmanager

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


def read(cls, doc: dict, readers: dict, prefix: str = "", **values):
    """``cls`` built from ``doc``. Each key of ``readers`` is a field, read
    by a kind for ``parse`` or by a function of the value and its name;
    ``values`` holds the fields the caller read. A field left out takes its
    dataclass default, so each default is stated once, in the dataclass.
    The object's own checks are named by ``prefix``, less its dot."""
    check_keys(doc, readers.keys() | values.keys(), prefix)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, reader in readers.items():
        if key in doc:
            value, name = doc[key], prefix + key
            values[key] = parse(reader, value, name) if isinstance(reader, type) else reader(value, name)
        elif fields[key].default is fields[key].default_factory is dataclasses.MISSING:
            raise InvalidParams(f"{prefix}{key}: missing")
    with named(prefix.rstrip(".")):
        return cls(**values)


@contextmanager
def named(name: str):
    """Put ``name``, if any, before the message of an ``InvalidParams`` raised inside."""
    try:
        yield
    except InvalidParams as exc:
        raise (type(exc)(f"{name}: {exc}") if name else exc) from None


def check_keys(doc: dict, known: Collection[str], prefix: str = "") -> None:
    """Raise on the first key of ``doc`` outside ``known``, named with
    ``prefix``: a misspelled field would otherwise read its default."""
    for key in doc:
        if key not in known:
            raise InvalidParams(f"{prefix}{key}: unknown key")
