"""The one JSON codec of the dataclasses: journal lines, traces, SFT records, schema cache.

Write with ``json.dumps(obj, default=encode)``; read back with
``decoder(tp)(json.loads(text))``.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from enum import Enum
from typing import Callable


@functools.cache
def _field_names(tp) -> tuple[str, ...]:
    """The fields a record is written and read with: an ``init=False`` field is neither."""
    return tuple(f.name for f in dataclasses.fields(tp) if f.init)


def encode(obj) -> dict:
    """``json.dumps`` default: a dataclass as its fields.

    Unlike ``vars`` it leaves out what a ``functools.cached_property`` stored
    on the instance. Raises TypeError for anything that is not a dataclass.
    """
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _expect(value, kind) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind}, got {value!r}")


@functools.cache
def decoder(tp) -> Callable:
    """The function that rebuilds a ``tp`` from what ``json.dumps(default=encode)`` wrote.

    It raises TypeError or ValueError, named by the field that failed, when a
    value does not fit the type; missing dataclass fields take their defaults,
    unknown keys are ignored.
    """
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        parts = [(name, decoder(hints[name])) for name in _field_names(tp)]

        def record(value):
            _expect(value, dict)
            try:
                return tp(**{k: dec(value[k]) for k, dec in parts if k in value})
            except (TypeError, ValueError) as exc:
                # decoded again to name the field that failed: success pays nothing
                for k, dec in parts:
                    if k in value:
                        try:
                            dec(value[k])
                        except (TypeError, ValueError):
                            raise type(exc)(f"{k}: {exc}") from None
                raise  # the constructor refused the values, not a field decoder
        return record
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        options = [decoder(arg) for arg in args]

        def union(value):
            for dec in options:
                try:
                    return dec(value)
                except (TypeError, ValueError):
                    pass
            raise TypeError(f"{value!r} fits none of {tp}")
        return union
    if isinstance(origin, type) and issubclass(origin, Enum):
        return origin
    if origin in (list, tuple, dict):
        item = decoder((args[-1] if origin is dict else args[0]) if args else object)

        def container(value):
            _expect(value, dict if origin is dict else list)
            if origin is dict:
                return {k: item(v) for k, v in value.items()}
            return origin(map(item, value))
        return container
    kind = (int, float) if origin is float else origin
    refused = bool if origin in (int, float) else ()  # a bool is an int to isinstance

    def scalar(value):
        if not isinstance(value, kind) or isinstance(value, refused):
            raise TypeError(f"expected {kind}, got {value!r}")
        return value
    return scalar
