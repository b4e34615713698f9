"""Typed reads of the fields of a JSON document (configs, model params).

A field of the wrong type, or a required field that is absent, raises
``InvalidParams`` naming the field.
"""
from __future__ import annotations

from .errors import InvalidParams

_REQUIRED = object()


def parse(kind: type, value, name: str):
    """``value`` as a ``kind``: ``int`` and ``float`` convert as
    ``kind(value)``, except that an ``int`` is never a bool or a float with
    a fractional part (``3.0`` reads 3, ``2.5`` is an error); any other
    kind, ``bool`` included, must already be an instance."""
    if kind in (int, float):
        fractional = isinstance(value, float) and not value.is_integer()
        if not (kind is int and (isinstance(value, bool) or fractional)):
            try:
                return kind(value)
            except (TypeError, ValueError, OverflowError):
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
