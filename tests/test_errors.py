"""Declared config ranges: every numeric range sits on its field as
``Annotated`` metadata, and ``check_types`` enforces it with the message
``<name> must <rule>, got <value>``."""

import dataclasses
import importlib
import math
import pkgutil
import typing

import pytest

import minibert
from minibert.corpus import SyntheticSpec
from minibert.ensemble import EnsembleConfig
from minibert.errors import ConfigError, Range, within
from minibert.experiment import TokenizerConfig, VariantSpec
from minibert.model import ModelConfig
from minibert.training import TrainConfig

TINY = math.ulp(0.0)
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

MODEL = (ModelConfig, {"vocab_size": 10, "num_heads": 1})
TOKENIZER = (TokenizerConfig, {"max_vocab": 10, "max_seq_len": 8})
ENSEMBLE = (EnsembleConfig, {"member_model_config": ModelConfig(vocab_size=10),
                             "member_shuffle_seeds": [1]})
SYNTHETIC = (SyntheticSpec, {"num_examples": 4, "class_token_pools": [["a"], ["b"]],
                             "shared_pool": ["c"]})

# (owner and its other arguments, field, value just outside, edge value, message)
BOUNDS = [
    (MODEL, "vocab_size", 0, 1, "vocab_size must be >= 1, got 0"),
    (MODEL, "hidden_dim", 0, 1, "hidden_dim must be >= 1, got 0"),
    (MODEL, "num_layers", 0, 1, "num_layers must be >= 1, got 0"),
    (MODEL, "num_heads", 0, 1, "num_heads must be >= 1, got 0"),
    (MODEL, "ff_dim", 0, 1, "ff_dim must be >= 1, got 0"),
    (MODEL, "max_seq_len", 0, 1, "max_seq_len must be >= 1, got 0"),
    (MODEL, "num_classes", 1, 2, "num_classes must be >= 2, got 1"),
    (MODEL, "init_scale", -TINY, 0.0, "init_scale must be >= 0, got -5e-324"),
    ((TrainConfig, {}), "epochs", 0, 1, "epochs must be >= 1, got 0"),
    ((TrainConfig, {}), "batch_size", 0, 1, "batch_size must be >= 1, got 0"),
    ((TrainConfig, {}), "learning_rate", 0.0, TINY, "learning_rate must be > 0, got 0.0"),
    ((TrainConfig, {}), "adam_beta1", 1.0, BELOW_ONE, "adam_beta1 must lie in [0, 1), got 1.0"),
    ((TrainConfig, {}), "adam_beta2", -TINY, 0.0, "adam_beta2 must lie in [0, 1), got -5e-324"),
    ((TrainConfig, {}), "adam_epsilon", 0, TINY, "adam_epsilon must be > 0, got 0"),
    ((TrainConfig, {}), "split_ratio", 1, BELOW_ONE, "split_ratio must lie in (0, 1), got 1"),
    (TOKENIZER, "max_vocab", 4, 5, "max_vocab must be >= 5, got 4"),
    (TOKENIZER, "max_seq_len", 2, 3, "max_seq_len must be >= 3, got 2"),
    (TOKENIZER, "min_frequency", 0, 1, "min_frequency must be >= 1, got 0"),
    (ENSEMBLE, "n_members", 0, 1, "n_members must be >= 1, got 0"),
    ((VariantSpec, {"name": "v"}), "num_layers", 0, 1, "num_layers must be >= 1, got 0"),
    (SYNTHETIC, "noise_rate", 1.0, BELOW_ONE, "noise_rate must lie in [0, 1), got 1.0"),
]


def declared_ranges(owner) -> dict[str, Range]:
    hints = typing.get_type_hints(owner, include_extras=True)
    return {
        name: typing.get_args(hint)[1]
        for name, hint in hints.items()
        if typing.get_origin(hint) is typing.Annotated
    }


class TestDeclaredRanges:
    @pytest.mark.parametrize(
        "owner, field, outside, edge, message",
        BOUNDS,
        ids=[f"{owner[0].__name__}.{field}" for owner, field, *_ in BOUNDS],
    )
    def test_outside_rejected_and_edge_accepted(self, owner, field, outside, edge, message):
        build, others = owner
        with pytest.raises(ConfigError) as err:
            build(**{**others, field: outside})
        assert str(err.value) == message
        assert getattr(build(**{**others, field: edge}), field) == edge

    def test_the_table_has_one_row_per_declared_range(self):
        """Every range declared on a dataclass anywhere in the package."""
        declared = set()
        for module_info in pkgutil.iter_modules(minibert.__path__):
            module = importlib.import_module(f"minibert.{module_info.name}")
            for owner in vars(module).values():
                if dataclasses.is_dataclass(owner) and owner.__module__ == module.__name__:
                    declared |= {(owner, name) for name in declared_ranges(owner)}
        assert {(owner, field) for (owner, _), field, *_ in BOUNDS} == declared
        assert len(BOUNDS) == 21

    def test_ranges_follow_every_type_check(self):
        """A wrong type is reported before an out-of-range value that
        comes earlier in field order."""
        with pytest.raises(ConfigError, match="^learning_rate must be a finite number"):
            TrainConfig(epochs=0, learning_rate="fast")

    def test_ranges_are_checked_in_field_order(self):
        with pytest.raises(ConfigError, match="^epochs must"):
            TrainConfig(split_ratio=2.0, epochs=0)

    @pytest.mark.parametrize(
        "interval, inside, outside",
        [("(0, 1)", [TINY, BELOW_ONE], [0.0, 1.0]),
         ("[0, 1)", [0.0, BELOW_ONE], [-TINY, 1.0]),
         ("[0, 1]", [0.0, 1.0], [-TINY, ABOVE_ONE])],
    )
    def test_within_reads_its_brackets(self, interval, inside, outside):
        bounds = within(interval)
        assert bounds.rule == f"lie in {interval}"
        assert all(bounds.holds(v) for v in inside)
        assert not any(bounds.holds(v) for v in outside)
