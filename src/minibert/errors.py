"""Exception types shared across the package, and the type check that the
config dataclasses share."""

import functools
import math
import numbers
import types
import typing


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class CorpusError(ValueError):
    """A corpus file or record is malformed; messages carry row numbers."""


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or inconsistent with its manifest."""


class TrainingError(RuntimeError):
    """Training aborted; messages carry the epoch and batch context."""


_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
# evaluating the string annotations is slow; owners are a few fixed classes
_type_hints = functools.cache(typing.get_type_hints)


def check_types(owner, values: dict) -> None:
    """Reject a value in ``values`` whose type is not the one that ``owner``
    (a dataclass or a function) annotates for its name, naming the key and
    the value, before range checks compare it.  A bool is not a number, an
    integer is a valid float, a float must be finite, and a list stands for
    a tuple (JSON has none)."""
    hints = _type_hints(owner)
    for name, value in values.items():
        if name in hints and not _has_type(value, hints[name]):
            wanted = _NAMES.get(hints[name]) or owner.__annotations__[name]
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")


def _has_type(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return False
        kinds = args * len(value) if origin is list else args
        return len(value) == len(kinds) and all(map(_has_type, value, kinds))
    if hint is int or hint is float:
        wanted = numbers.Integral if hint is int else numbers.Real
        finite = not isinstance(value, float) or math.isfinite(value)
        return isinstance(value, wanted) and not isinstance(value, bool) and finite
    return isinstance(value, hint)
