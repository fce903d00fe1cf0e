"""The one reader of input documents: value rules, object tables and `_read`.

A document is read through a table of objects.  Each object lists exactly
the keys it reads, each with a `Rule` (a value), the name of an object in
the table, or ``[name]`` (a list of them), and the constructor that builds
it.  `cli` reads a config's outline and its problem object this way, and
`control` the policy file; both read control sets through the one
`CONTROLS` object.  `cli.SCHEMA` and `simulate` check values by the same
rules.  Every failure is a ConfigError that names its key path.  This
module imports numpy and the model only, so reading a document loads no
solver.
"""

from __future__ import annotations

import math
import reprlib
import sys
from itertools import chain
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError
from .model import ControlSet


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"missing required key {path}.{key} (no {key!r} at {path})")
    return doc[key]


class Rule(NamedTuple):
    """A value rule: its text, ``parse``, which returns the typed value or raises ValueError,
    and how a command-line flag reads its text (`argparse` keywords; plain text by default)."""

    text: str
    parse: Callable
    flag: Mapping = MappingProxyType({})


def _real(low: float, high: float) -> Callable:
    """Numbers (never bools) with ``low < value <= high``; NaN fails every comparison."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not low < value <= high:
            raise ValueError(value)
        return value
    return parse


def _whole(least: int, below: float = math.inf) -> Callable:
    """Integers in ``[least, below)``, integral floats such as ``1e5`` included, never bools."""
    def parse(value):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or not least <= value < below:
            raise ValueError(value)
        return value
    return parse


def _instance(kind: type) -> Callable:
    def parse(value):
        if not isinstance(value, kind):
            raise ValueError(value)
        return value
    return parse


def _value(rule: Rule, value, what: str):
    """``value`` read by ``rule``; a ConfigError naming ``what`` where it breaks the rule."""
    try:
        return rule.parse(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {rule.text}, got {reprlib.repr(value)}") from None


def _array(*ndims: int, integral: bool = False) -> Callable:
    """Arrays of finite numbers, ``ndim`` in ``ndims``: never strings, bools, nulls or ragged
    lists; ``integral`` ones (node indices) hold whole numbers and come back as ints."""
    def parse(value):
        arr, leaves = np.array(value), [value]  # np.array raises a ValueError where ragged
        for _ in range(arr.ndim):
            leaves = chain.from_iterable(leaves)
        if arr.ndim not in ndims or not set(map(type, leaves)) <= {int, float}:
            raise ValueError(value)
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr)) or integral and not np.all(arr == np.round(arr)):
            raise ValueError(value)
        return arr.astype(np.int64) if integral else arr
    return parse


def number(text: str) -> int | float:
    """A whole-number flag's text: an int where `int` reads it ('10'), else a float ('1e5')."""
    try:
        return int(text)
    except ValueError:
        return float(text)


_POSITIVE = Rule("a finite number > 0", _real(0.0, sys.float_info.max), {"type": float})
_COUNT = Rule("a whole number >= 1", _whole(1), {"type": number})
_ANGLES = Rule("a count of at least 2 angles", _whole(2), {"type": number})
_FINITE = Rule("a finite number", _real(-math.inf, sys.float_info.max), {"type": float})
_HORIZON = Rule("a number > 0 (Infinity allowed)", _real(0.0, math.inf))
_AXES = Rule("a list of finite numbers, one per axis", _array(1))
_LIST = Rule("a list", _instance(list))
_OBJECT = Rule("an object", _instance(dict))
_STRING = Rule("a string", _instance(str))


class Obj(NamedTuple):
    """An object: its constructor, each key's shape, and the keys that may be absent
    (they take the constructor's default).  A dict of Objs is an object of kinds."""

    build: Callable
    keys: dict
    optional: frozenset = frozenset()


# the control set of a problem and of a policy file
CONTROLS = {"none": Obj(ControlSet.none, {}),
            "list": Obj(ControlSet.from_list, {"vectors": Rule(
                "a list of control vectors (or of numbers, in 1D)", _array(1, 2))}),
            "unit_circle": Obj(ControlSet.unit_circle, {"n_angles": _ANGLES})}


def _read(doc, shape, path: str, objects: dict):
    """The one document reader: ``doc`` at ``path`` read by ``shape``, object names
    looked up in ``objects`` (a table such as `cli.PROBLEM`).

    A rule checks a value and a list reads each of its items.  An object
    rejects unknown and missing keys (an object of kinds first takes its
    ``kind``'s keys), reads each key and passes the values to its
    constructor.  Every failure, the constructor's own included, is a
    ConfigError that names its path.
    """
    if isinstance(shape, Rule):
        return _value(shape, doc, path)
    if isinstance(shape, list):
        items = _value(_LIST, doc, path)
        return [_read(item, shape[0], f"{path}[{k}]", objects) for k, item in enumerate(items)]
    obj, allowed = objects[shape], set()
    _value(_OBJECT, doc, path)
    if isinstance(obj, dict):
        kind, allowed = _need(doc, "kind", path), {"kind"}
        if not isinstance(kind, str) or kind not in obj:
            raise ConfigError(f"unknown {shape} kind {kind!r} at {path}")
        obj = obj[kind]
    _check_keys(doc, allowed | set(obj.keys), path)
    values = {key: _read(_need(doc, key, path), sub, f"{path}.{key}", objects)
              for key, sub in obj.keys.items() if key in doc or key not in obj.optional}
    try:
        return obj.build(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
