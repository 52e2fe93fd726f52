"""The one JSON codec of the dataclasses: journal lines, traces, SFT records, schema cache.

Write with ``json.dumps(obj, default=encode)``; read back with
``decoder(tp)(json.loads(text))``.

``decoder(tp)`` is compiled once per type, as ``dataclasses`` compiles
``__init__``: a dataclass's decoder is one function that checks each field
inline and calls the constructor once. Scalars are tested by exact class
first, ``None`` first for ``Optional``, a container of scalars in one loop,
and a nested dataclass by a direct call to its own decoder.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import types
import typing
from enum import Enum
from typing import Callable

_DECODE_ERRORS = (TypeError, ValueError)


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


def _is_required(f: dataclasses.Field) -> bool:
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


def _name_failure(tp, value: dict, exc: Exception):
    """Raise the error of the first key of ``value`` that fails ``tp``'s field, prefixed by it.

    Only the failure path calls this; when every field decodes on its own,
    the constructor refused the values and ``exc`` is raised as it is.
    """
    hints = typing.get_type_hints(tp)
    fields = {f.name: f for f in dataclasses.fields(tp)}
    for name in _field_names(tp):
        if name not in value:
            if _is_required(fields[name]):
                raise TypeError(f"{name}: missing") from None
            continue
        try:
            decoder(hints[name])(value[name])
        except _DECODE_ERRORS as failed:
            raise type(failed)(f"{name}: {failed}") from None
    raise exc


class _Source:
    """The lines of one generated function, and the objects its names stand for."""

    def __init__(self):
        self.lines: list[str] = []
        self.names: dict[str, object] = {"_refuse": _refuse, "_name_failure": _name_failure,
                                         "_DECODE_ERRORS": _DECODE_ERRORS}
        self._bound: dict[int, str] = {}
        self._count = itertools.count()

    def add(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

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
        fn.__qualname__ = f"decoder({getattr(tp, '__name__', tp)})"
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


def _scalar_test(src: _Source, tp, var: str) -> str | None:
    """The condition under which ``var`` is not a ``tp``; None when every value is one."""
    if tp is object:
        return None
    if tp is type(None):
        return f"{var} is not None"
    if tp is bool:  # bool cannot be subclassed
        return f"{var}.__class__ is not bool"
    if tp is int:  # a bool is an int to isinstance
        return (f"{var}.__class__ is not int and ({var}.__class__ is bool"
                f" or not isinstance({var}, int))")
    if tp is float:
        return (f"{var}.__class__ is not float and ({var}.__class__ is bool"
                f" or not isinstance({var}, (int, float)))")
    if not isinstance(tp, type):
        raise TypeError(f"no decoder for {tp!r}")
    kind = "str" if tp is str else src.bind(tp)
    return f"{var}.__class__ is not {kind} and not isinstance({var}, {kind})"


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
            src.add(indent + depth, "except _DECODE_ERRORS:")
        src.add(indent + len(options), f"_refuse({src.bind(tp)}, {var})")
        src.add(indent, f"{var} = {out}")
        return
    if isinstance(origin, type) and issubclass(origin, Enum):
        src.add(indent, f"{var} = {src.bind(origin)}({var})")
        return
    if origin in (list, tuple, dict):
        _emit_container(src, origin, args, var, indent)
        return
    test = _scalar_test(src, tp, var)
    if test is not None:
        src.add(indent, f"if {test}:")
        src.add(indent + 1, f"_refuse({src.bind((int, float) if tp is float else tp)}, {var})")


def _emit_container(src: _Source, origin, args: tuple, var: str, indent: int) -> None:
    kind = "dict" if origin is dict else "list"  # a JSON array is a list
    src.add(indent, f"if {var}.__class__ is not {kind} and not isinstance({var}, {kind}):")
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


def _compile_record(tp) -> Callable:
    src = _Source()
    hints = typing.get_type_hints(tp)
    fields = {f.name: f for f in dataclasses.fields(tp)}
    src.add(1, "if v.__class__ is not dict and not isinstance(v, dict):")
    src.add(2, "_refuse(dict, v)")
    src.add(1, "try:")
    positional, keywords = [], []
    for name in _field_names(tp):
        f, arg, key = fields[name], src.var(), repr(name)
        if _is_required(f):  # a missing key is a KeyError, named on the failure path
            src.add(2, f"{arg} = v[{key}]")
            _emit(src, hints[name], arg, 2)
        else:  # a default is passed as it stands, as __init__ would use it
            src.add(2, f"if {key} in v:")
            src.add(3, f"{arg} = v[{key}]")
            _emit(src, hints[name], arg, 3)
            src.add(2, "else:")
            default = (src.bind(f.default) if f.default_factory is dataclasses.MISSING
                       else f"{src.bind(f.default_factory)}()")
            src.add(3, f"{arg} = {default}")
        if f.kw_only:
            keywords.append(f"{name}={arg}")
        else:
            positional.append(arg)
    src.add(2, f"return {src.bind(tp)}({', '.join(positional + keywords)})")
    src.add(1, "except (KeyError, TypeError, ValueError) as exc:")
    src.add(2, f"_name_failure({src.bind(tp)}, v, exc)")
    return src.compile(tp)


@functools.cache
def decoder(tp) -> Callable:
    """The function that rebuilds a ``tp`` from what ``json.dumps(default=encode)`` wrote.

    It raises TypeError or ValueError, named by the field that failed, when a
    value does not fit the type: a bool is no ``int`` or ``float``, and a
    fixed-length ``tuple[A, B]`` needs that many items of those types.
    Missing dataclass fields take their defaults, unknown keys are ignored,
    and every ``__post_init__`` check runs.
    """
    if dataclasses.is_dataclass(tp):
        return _compile_record(tp)
    src = _Source()
    _emit(src, tp, "v", 1)
    src.add(1, "return v")
    return src.compile(tp)
