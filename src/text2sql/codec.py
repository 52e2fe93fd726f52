"""The one JSON codec of the dataclasses: journal lines, traces, SFT records, schema cache.

Write with ``json.dumps(obj, default=encode)``; read back with
``decoder(tp)(json.loads(text))``.

The decoder reads what ``json.loads`` builds: exact ``dict``, ``list``,
``str``, ``int``, ``float``, ``bool`` and ``None``, so each check is one class
test. ``decoder(tp)`` takes a dataclass and is compiled once per type, as
``dataclasses`` compiles ``__init__``: one function that checks each field
inline and calls the constructor once. It tests ``None`` first for
``Optional``, checks a container of scalars in one loop, and calls a nested
dataclass's own decoder directly. The same pass names a refusal: the line of
the function that raised it tells which field's key to put in front of it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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


def _refuse(kind, value):
    raise TypeError(f"expected {kind}, got {value!r}")


def _named(starts: tuple, exc: Exception):
    """Raise ``exc`` named by the field whose code raised it: ``starts`` holds each field's
    first line and key, then the constructor's line and None, whose error is raised as it is."""
    line = exc.__traceback__.tb_lineno  # in the decoder's own frame, where it was caught
    key = [key for start, key in starts if start <= line][-1]
    if key is None:
        raise exc
    if exc.__class__ is KeyError:  # a field raises no KeyError but its own key's lookup
        raise TypeError(f"{key}: missing") from None
    raise type(exc)(f"{key}: {exc}") from None


class _Source:
    """The lines of one generated function, and the objects its names stand for."""

    def __init__(self):
        self.lines: list[str] = []
        self.names: dict[str, object] = {"_refuse": _refuse, "_named": _named}
        self._bound: dict[int, str] = {}
        self._count = itertools.count()

    def add(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

    def line(self) -> int:
        """The number of the next line added, in the function's source after its ``def``."""
        return len(self.lines) + 2

    def var(self) -> str:
        return f"_v{next(self._count)}"

    def bind(self, obj) -> str:
        """The name ``obj`` goes by in the function, one per object."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_o{next(self._count)}"
            self.names[name] = obj
        return name

    def compile(self, tp) -> Callable:
        text = "\n".join(["def decode(v):", *self.lines])
        exec(text, self.names)  # noqa: S102 - names and keys enter only as reprs and bindings
        fn = self.names["decode"]
        fn.__qualname__ = f"decoder({tp.__name__})"
        return fn


def _parts(tp):
    return typing.get_origin(tp) or tp, typing.get_args(tp)


def _is_union(origin) -> bool:
    return origin is typing.Union or origin is types.UnionType


def _pure(tp) -> bool:
    """True when decoding a ``tp`` only checks the value and returns it unchanged."""
    origin, args = _parts(tp)
    if _is_union(origin):
        return all(map(_pure, args))
    return not (dataclasses.is_dataclass(tp) or origin in (list, tuple, dict)
                or (isinstance(origin, type) and issubclass(origin, Enum)))


def _scalar_test(tp, var: str) -> str:
    """The condition under which ``var`` is not a ``tp``."""
    if tp is type(None):
        return f"{var} is not None"
    if tp is float:  # a JSON number with no fraction or exponent is read as an int
        return f"{var}.__class__ is not float and {var}.__class__ is not int"
    if tp not in (str, int, bool):  # nothing else comes out of json.loads
        raise TypeError(f"no decoder for {tp!r}")
    return f"{var}.__class__ is not {tp.__name__}"  # a bool is no int


def _emit_under(src: _Source, header: str, tp, var: str, indent: int) -> None:
    """``header`` (an ``if`` or ``for``) over the lines ``_emit`` writes; none if it writes none."""
    start = len(src.lines)
    src.add(indent, header)
    _emit(src, tp, var, indent + 1)
    if len(src.lines) == start + 1:
        del src.lines[start:]


def _emit(src: _Source, tp, var: str, indent: int) -> None:
    """Lines that check ``var`` as a ``tp`` and, as their last step, bind it to its decoding."""
    if dataclasses.is_dataclass(tp):
        src.add(indent, f"{var} = {src.bind(decoder(tp))}({var})")
        return
    origin, args = _parts(tp)
    if _is_union(origin):
        options = [a for a in args if a is not type(None)]
        if len(options) < len(args):  # Optional: None first
            _emit_under(src, f"if {var} is not None:",
                        options[0] if len(options) == 1 else typing.Union[tuple(options)],
                        var, indent)
            return
        # each option in order, on a copy of the reference, until one fits
        out = src.var()
        for depth, option in enumerate(options):
            src.add(indent + depth, "try:")
            src.add(indent + depth + 1, f"{out} = {var}")
            _emit(src, option, out, indent + depth + 1)
            src.add(indent + depth, "except (TypeError, ValueError):")
        src.add(indent + len(options), f"_refuse({src.bind(tp)}, {var})")
        src.add(indent, f"{var} = {out}")
        return
    if isinstance(origin, type) and issubclass(origin, Enum):
        src.add(indent, f"{var} = {src.bind(origin)}({var})")
        return
    if origin in (list, tuple, dict):
        _emit_container(src, origin, args, var, indent)
        return
    if tp is not object:  # every value is an object
        src.add(indent, f"if {_scalar_test(tp, var)}:")
        src.add(indent + 1, f"_refuse({src.bind((int, float) if tp is float else tp)}, {var})")


def _emit_container(src: _Source, origin, args: tuple, var: str, indent: int) -> None:
    kind = "dict" if origin is dict else "list"  # a JSON array is a list
    src.add(indent, f"if {var}.__class__ is not {kind}:")
    src.add(indent + 1, f"_refuse({kind}, {var})")
    if origin is tuple and args and args[-1] is not Ellipsis:
        # fixed length: one type per position
        items = [src.var() for _ in args]
        src.add(indent, f"if len({var}) != {len(args)}:")
        src.add(indent + 1, f"_refuse('{len(args)} items', {var})")
        src.add(indent, f"{', '.join(items)}, = {var}")
        for item, arg in zip(items, args):
            _emit(src, arg, item, indent)
        src.add(indent, f"{var} = ({', '.join(items)},)")
        return
    item_tp = (args[-1] if origin is dict else args[0]) if args else object
    item, out, key = src.var(), src.var(), src.var()
    if _pure(item_tp):  # checked in one loop, then copied
        _emit_under(src, f"for {item} in {var}{'.values()' if origin is dict else ''}:",
                    item_tp, item, indent)
        src.add(indent, f"{var} = {origin.__name__}({var})")
    elif origin is dict:
        src.add(indent, f"{out} = {{}}")
        src.add(indent, f"for {key}, {item} in {var}.items():")
        _emit(src, item_tp, item, indent + 1)
        src.add(indent + 1, f"{out}[{key}] = {item}")
        src.add(indent, f"{var} = {out}")
    else:
        src.add(indent, f"{out} = []")
        src.add(indent, f"for {item} in {var}:")
        _emit(src, item_tp, item, indent + 1)
        src.add(indent + 1, f"{out}.append({item})")
        src.add(indent, f"{var} = {out}" if origin is list else f"{var} = tuple({out})")


@functools.cache
def decoder(tp) -> Callable:
    """The function that rebuilds dataclass ``tp`` from ``json.loads`` of what ``encode`` wrote.

    It raises TypeError or ValueError, named by the keys down to the field that
    failed, when a value does not fit the type: a bool is no ``int`` or
    ``float``, and a fixed-length ``tuple[A, B]`` needs that many items of those
    types. Missing fields take their defaults, unknown keys are ignored, and
    every ``__post_init__`` check runs; its error is named by the record above.
    """
    if not dataclasses.is_dataclass(tp):
        raise TypeError(f"no decoder for {tp!r}: not a dataclass")
    src = _Source()
    hints = typing.get_type_hints(tp)
    src.add(1, "if v.__class__ is not dict:")
    src.add(2, "_refuse(dict, v)")
    src.add(1, "try:")
    positional, keywords, starts = [], [], []
    for f in dataclasses.fields(tp):
        if not f.init:  # neither written nor read
            continue
        arg, key = src.var(), repr(f.name)
        starts.append((src.line(), f.name))
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            src.add(2, f"{arg} = v[{key}]")  # a KeyError when missing
            _emit(src, hints[f.name], arg, 2)
        else:  # a default is passed as it stands, as __init__ would use it
            src.add(2, f"if {key} in v:")
            src.add(3, f"{arg} = v[{key}]")
            _emit(src, hints[f.name], arg, 3)
            src.add(2, "else:")
            default = (src.bind(f.default) if f.default_factory is dataclasses.MISSING
                       else f"{src.bind(f.default_factory)}()")
            src.add(3, f"{arg} = {default}")
        if f.kw_only:
            keywords.append(f"{f.name}={arg}")
        else:
            positional.append(arg)
    starts.append((src.line(), None))
    src.add(2, f"return {src.bind(tp)}({', '.join(positional + keywords)})")
    src.add(1, "except (KeyError, TypeError, ValueError) as exc:")
    src.add(2, f"_named({src.bind(tuple(starts))}, exc)")
    return src.compile(tp)
