"""Labeled-corpus ingestion (two-column CSV) and synthetic generation.

CSV files carry a required ``text,label`` header, UTF-8 encoding, and
standard quoting.  Labels are nonnegative integers.  The synthetic
generator draws each text's tokens from its class's pool, with a
configurable fraction of shared-pool noise; at zero noise the corpus is
perfectly separable by a bag-of-words rule.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from .errors import ConfigError, CorpusError, check_types, read_input, within
from .tokenizer import segment_text

# the row number ``load_csv`` gives the first record, the row after the header
FIRST_DATA_ROW = 2


@dataclass
class LabeledCorpus:
    """Texts with integer class labels in ``[0, num_classes)``; a plain
    holder, since each producer checks the rules of the input it reads."""

    records: list[tuple[str, int]]
    num_classes: int

    def __len__(self) -> int:
        return len(self.records)


def load_csv(path: str | Path) -> LabeledCorpus:
    """Read a ``text,label`` CSV; every data row becomes one record, and
    ``num_classes`` is one more than the largest label, so a held-out file
    may hold any subset of the classes.

    Raises :class:`CorpusError` naming the path for a file that cannot be
    opened or read or is not UTF-8, and naming the offending row for a bad
    header, wrong column count, a non-integer or negative label, or a
    blank text.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_input(path, CorpusError), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError(f"{path}: file is empty, expected header 'text,label'") from None
    if header != ["text", "label"]:
        raise CorpusError(f"{path}: header must be exactly 'text,label', got {header}")
    records: list[tuple[str, int]] = []
    for row_number, row in enumerate(reader, start=FIRST_DATA_ROW):
        if len(row) != 2:
            raise CorpusError(f"{path}: row {row_number} has {len(row)} columns, expected 2")
        text, raw_label = row
        try:
            label = int(raw_label)
        except ValueError:
            raise CorpusError(
                f"{path}: row {row_number} label {raw_label!r} is not an integer"
            ) from None
        if label < 0:
            raise CorpusError(f"{path}: row {row_number} label {label} is negative")
        if not text.strip():
            raise CorpusError(f"{path}: row {row_number} text is empty after trimming")
        records.append((text, label))
    if not records:
        raise CorpusError(f"{path}: no data rows after the header")
    num_classes = max(label for _, label in records) + 1
    return LabeledCorpus(records=records, num_classes=num_classes)


def first_label_outside(corpus: LabeledCorpus, num_classes: int) -> tuple[int, int] | None:
    """(row, label) of the first record whose label is ``num_classes`` or
    more, its row numbered as ``load_csv`` numbers a CSV's rows; None if
    every label is below ``num_classes``."""
    for index, (_, label) in enumerate(corpus.records):
        if label >= num_classes:
            return index + FIRST_DATA_ROW, label
    return None


def save_csv(corpus: LabeledCorpus, path: str | Path) -> None:
    """Write the corpus in the same ``text,label`` format load_csv reads."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["text", "label"])
        writer.writerows(corpus.records)


@dataclass
class SyntheticSpec:
    """Recipe for a balanced synthetic corpus with disjoint class vocabularies.
    Each pool token must be one tokenizer token, ``segment_text(token) ==
    [token]``, so the pools are disjoint as tokens and no text is blank."""

    num_examples: int
    class_token_pools: list[list[str]]
    shared_pool: list[str] = field(default_factory=list)
    tokens_per_text: tuple[int, int] = (5, 12)
    noise_rate: Annotated[float, within("[0, 1)")] = 0.0
    seed: int = 0

    def __post_init__(self):
        check_types(type(self), vars(self))
        self.tokens_per_text = tuple(self.tokens_per_text)
        if self.num_examples < len(self.class_token_pools):
            raise ConfigError(
                f"need at least one example per class, got {self.num_examples} "
                f"examples for {len(self.class_token_pools)} classes"
            )
        if len(self.class_token_pools) < 2:
            raise ConfigError("need at least two class token pools")
        if any(not pool for pool in self.class_token_pools):
            raise ConfigError("class token pools must be nonempty")
        class_tokens = [token for pool in self.class_token_pools for token in pool]
        for key, tokens in (("class_token_pools", class_tokens), ("shared_pool", self.shared_pool)):
            for token in tokens:
                if segment_text(token) != [token]:
                    raise ConfigError(f"{key}: token {token!r} is not one tokenizer token")
        if len(set(class_tokens)) != len(class_tokens):
            raise ConfigError("class token pools must be pairwise disjoint")
        if self.noise_rate > 0.0 and not self.shared_pool:
            raise ConfigError("noise_rate > 0 requires a nonempty shared pool")
        lo, hi = self.tokens_per_text
        if lo < 1 or hi < lo:
            raise ConfigError(f"tokens_per_text range invalid: {self.tokens_per_text}")

    @property
    def num_classes(self) -> int:
        return len(self.class_token_pools)

    @classmethod
    def balanced(
        cls,
        num_examples: int,
        num_classes: int = 2,
        class_pool_size: int = 30,
        shared_pool_size: int = 20,
        tokens_per_text: tuple[int, int] = (5, 12),
        noise_rate: float = 0.0,
        seed: int = 0,
    ) -> "SyntheticSpec":
        """Build a spec with auto-named token pools (classNtokM / sharedM)."""
        check_types(cls.balanced, locals())
        pools = [
            [f"class{c}tok{i}" for i in range(class_pool_size)] for c in range(num_classes)
        ]
        shared = [f"shared{i}" for i in range(shared_pool_size)]
        return cls(
            num_examples=num_examples,
            class_token_pools=pools,
            shared_pool=shared,
            tokens_per_text=tokens_per_text,
            noise_rate=noise_rate,
            seed=seed,
        )


def generate_synthetic(spec: SyntheticSpec) -> LabeledCorpus:
    """Deterministic balanced corpus: example i gets class i mod num_classes;
    each token comes from the shared pool with probability ``noise_rate``,
    otherwise from the class pool."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.tokens_per_text
    records: list[tuple[str, int]] = []
    for i in range(spec.num_examples):
        label = i % spec.num_classes
        pool = spec.class_token_pools[label]
        length = int(rng.integers(lo, hi + 1))
        tokens = []
        for _ in range(length):
            if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
                tokens.append(spec.shared_pool[int(rng.integers(len(spec.shared_pool)))])
            else:
                tokens.append(pool[int(rng.integers(len(pool)))])
        records.append((" ".join(tokens), label))
    return LabeledCorpus(records=records, num_classes=spec.num_classes)
