"""Exception types shared across the package, and the type check that the
config dataclasses share."""

import dataclasses
import numbers


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class CorpusError(ValueError):
    """A corpus file or record is malformed; messages carry row numbers."""


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or inconsistent with its manifest."""


class TrainingError(RuntimeError):
    """Training aborted; messages carry the epoch and batch context."""


def check_number_fields(config) -> None:
    """Reject a value of another type in any ``int`` or ``float`` field of
    the dataclass ``config``, naming the key and the value, before range
    checks compare it.  A bool is not a number here; an integer is a valid
    float."""
    for spec in dataclasses.fields(config):
        kind = spec.type if isinstance(spec.type, str) else spec.type.__name__
        if kind not in ("int", "float"):
            continue
        value = getattr(config, spec.name)
        wanted = numbers.Integral if kind == "int" else numbers.Real
        if isinstance(value, bool) or not isinstance(value, wanted):
            noun = "an integer" if kind == "int" else "a number"
            raise ConfigError(f"{spec.name} must be {noun}, got {value!r}")
