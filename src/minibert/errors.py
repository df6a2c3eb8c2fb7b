"""Exception types shared across the package; ``read_input``, the one
reader of every input file, with ``read_json`` on top of it and
``json_text``, the one JSON encoder of written files; and the reader
and type check that the config dataclasses share."""

import functools
import inspect
import json
import math
import numbers
import operator
import types
import typing
from pathlib import Path


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class CorpusError(ValueError):
    """A corpus file or record is malformed; messages carry row numbers."""


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or inconsistent with its manifest."""


class TrainingError(RuntimeError):
    """Training aborted; messages carry the epoch and batch context."""


# required in a config, though the dataclasses default them for library use
_SEED_KEYS = ("seed", "init_seed", "shuffle_seed", "split_seed", "member_shuffle_seeds")
_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
# evaluating the string annotations is slow; owners are a few fixed classes
_type_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


class Range(typing.NamedTuple):
    """A numeric range declared on a field as ``Annotated[int, at_least(1)]``;
    ``rule`` completes the message ``<name> must <rule>, got <value>``."""

    rule: str
    holds: typing.Callable[[float], bool]


def at_least(low) -> Range:
    return Range(f"be >= {low}", lambda value: value >= low)


def above(low) -> Range:
    return Range(f"be > {low}", lambda value: value > low)


def within(interval: str) -> Range:
    """The interval as the message writes it, for example ``"[0, 1)"``."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    over = operator.ge if interval[0] == "[" else operator.gt
    under = operator.le if interval[-1] == "]" else operator.lt
    return Range(f"lie in {interval}", lambda value: over(value, low) and under(value, high))


def check_types(owner, values: dict) -> None:
    """Reject a value in ``values`` whose type is not the one that ``owner``
    (a dataclass or a function) annotates for its name, naming the key and
    the value.  A bool is not a number, an integer is a valid float, a float
    must be finite, and a list stands for a tuple (JSON has none).  Every
    seed must also be >= 0.  After every type, each Range declared as
    ``Annotated`` metadata is checked, in field order."""
    hints, ranges = _type_hints(owner), []
    for name, value in values.items():
        hint = hints.get(name)
        if typing.get_origin(hint) is typing.Annotated:
            hint, bounds = typing.get_args(hint)
            ranges.append((name, value, bounds))
        if hint is not None and not _has_type(value, hint):
            wanted = _NAMES.get(hint) or owner.__annotations__[name]
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        seeds = value if isinstance(value, list) else [value]
        if name in _SEED_KEYS and any(seed < 0 for seed in seeds):
            raise ConfigError(f"{name} must be >= 0, got {value!r}")
    for name, value, bounds in ranges:
        if not bounds.holds(value):
            raise ConfigError(f"{name} must {bounds.rule}, got {value}")


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


def read_section(build, section, where: str, *, all_required=False, **derived):
    """Call ``build`` (a config dataclass, or ``SyntheticSpec.balanced``) with
    the JSON object ``section``.  Its parameters, less the ``derived`` ones
    the caller gives, are the allowed keys; those without a default, and the
    seeds, are required, or all of them with ``all_required``.  Each
    ConfigError is prefixed with ``where``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {section!r}")
    params = inspect.signature(build).parameters
    allowed = sorted(set(params) - set(derived))
    unknown = {key: section[key] for key in sorted(set(section) - set(allowed))}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {allowed}")
    for name in allowed:
        required = all_required or name in _SEED_KEYS or params[name].default is params[name].empty
        if required and name not in section:
            raise ConfigError(f"{where} is missing {name!r}")
    try:
        return build(**section, **derived)
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


def read_input(path: str | Path, error: type[Exception], *, binary: bool = False):
    """The bytes of the file ``path``, or its UTF-8 text with line endings
    as written.  A file that cannot be read or is not UTF-8 raises
    ``error`` (ConfigError, CorpusError or CheckpointError, which pick the
    exit code) as ``<path>: cannot read (<reason>)``."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        return raw if binary else raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = f"not UTF-8, {err.reason}" if isinstance(err, UnicodeDecodeError) else err.strerror
        raise error(f"{path}: cannot read ({reason})") from None


def read_json(path: str | Path, error: type[Exception] = ConfigError):
    """The JSON value in the file ``path``; an unreadable file, or invalid
    JSON as ``<path>:<line>:<col>: invalid JSON (<msg>)``, raises ``error``."""
    path = Path(path)
    try:
        return json.loads(read_input(path, error))
    except json.JSONDecodeError as err:
        raise error(f"{path}:{err.lineno}:{err.colno}: invalid JSON ({err.msg})") from None


def json_text(value) -> str:
    """How every JSON file the package writes is encoded."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"
