"""Seeded, reproducible fine-tuning: dataset splitting, per-epoch batch
shuffling, Adam updates, per-epoch statistics, and wall-clock timing.

Given identical data and the (init_seed, split_seed, shuffle_seed) tuple,
a training run reproduces the final parameters bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import tensor as T
from .errors import ConfigError, TrainingError
from .model import ClassifierModel, example_labels, stack_examples, trim_padding
from .tokenizer import EncodedExample


@dataclass
class TrainConfig:
    """Fine-tuning hyperparameters; three epochs is the experiment default."""

    epochs: int = 3
    batch_size: int = 16
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    shuffle_seed: int = 0
    split_ratio: float = 0.8
    split_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class EpochStats:
    mean_loss: float
    val_accuracy: float
    seconds: float


@dataclass
class TrainRun:
    """Per-epoch statistics and total wall-clock cost of one training run."""

    epochs: list[EpochStats]
    total_seconds: float
    model: ClassifierModel = field(repr=False)

    @property
    def final_val_accuracy(self) -> float:
        return self.epochs[-1].val_accuracy

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0


def split_dataset(examples: Sequence, split_ratio: float, split_seed: int):
    """Seeded random split; the first ceil(N * ratio) of the permutation train.

    The two parts are disjoint and exhaustive.
    """
    n = len(examples)
    if n < 2:
        raise ValueError(f"need at least 2 examples to split, got {n}")
    if not 0.0 < split_ratio < 1.0:
        raise ConfigError(f"split_ratio must lie in (0, 1), got {split_ratio}")
    order = np.random.default_rng(split_seed).permutation(n)
    # tiny guard keeps exact products like 10 * 0.8 from ceiling up on float fuzz
    n_train = math.ceil(n * split_ratio - 1e-9)
    train = [examples[i] for i in order[:n_train]]
    val = [examples[i] for i in order[n_train:]]
    return train, val


def shuffle_epoch(items: Sequence, shuffle_seed: int, epoch_index: int) -> list:
    """Permutation of ``items`` derived from (shuffle_seed, epoch_index)."""
    order = np.random.default_rng([shuffle_seed, epoch_index]).permutation(len(items))
    return [items[i] for i in order]


class Adam:
    """Adam with bias correction; one timestep increment per step() call.

    Moment buffers live in the parameters' dtype.  An unset grad counts as
    zero.  A zero gradient leaves a parameter unchanged only while its
    first moment is still zero; after a nonzero gradient the decaying
    momentum keeps moving it.

    The update overwrites moments and parameter data in place, one
    parameter at a time with two scratch arrays, in the operation order
    of the plain expressions, so the result is bit for bit theirs.
    """

    def __init__(
        self,
        params: list[T.Tensor],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.timestep = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.timestep += 1
        t = self.timestep
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            # m = beta1 * m + (1 - beta1) * grad
            scratch = np.multiply(grad, 1.0 - self.beta1, out=np.empty_like(grad))
            m *= self.beta1
            m += scratch
            # v = beta2 * v + (1 - beta2) * grad * grad
            np.multiply(grad, 1.0 - self.beta2, out=scratch)
            scratch *= grad
            v *= self.beta2
            v += scratch
            # p = p - learning_rate * (m / bias1) / (sqrt(v / bias2) + epsilon)
            step = np.divide(m, bias1, out=scratch)
            denom = np.divide(v, bias2, out=np.empty_like(v))
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            step *= self.learning_rate
            step /= denom
            p.data -= step

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def accuracy(model: ClassifierModel, examples: list[EncodedExample]) -> float:
    """Fraction of examples whose argmax logit matches the label."""
    if not examples:
        raise ValueError("cannot evaluate accuracy on an empty set")
    predicted = model.predict(examples)
    return float(np.mean(predicted == example_labels(examples)))


def train(
    model: ClassifierModel,
    train_set: list[EncodedExample],
    val_set: list[EncodedExample],
    config: TrainConfig,
    log_stream: TextIO | None = None,
    log_prefix: str = "",
) -> TrainRun:
    """Fine-tune ``model`` in place and record per-epoch statistics.

    Each epoch reshuffles the batch order from (shuffle_seed, epoch index),
    runs forward / cross-entropy / backward / Adam per batch (the last
    partial batch is kept), then measures validation accuracy.  Every batch
    is trimmed to its longest real sequence before the forward pass (see
    ``trim_padding``).  A batch loss that is not finite stops training
    with a ``TrainingError`` before the update is applied.  Wall-clock
    time covers this call only.  When ``log_stream`` is given, one
    structured ``key=value`` line is written per epoch.
    """
    if not train_set or not val_set:
        raise ValueError("train() requires nonempty train and validation sets")
    started = time.perf_counter()
    optimizer = Adam(
        model.parameters(),
        learning_rate=config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        epsilon=config.adam_epsilon,
    )
    ids, segs, mask = stack_examples(train_set)
    labels = example_labels(train_set)
    n = len(train_set)
    stats: list[EpochStats] = []
    for epoch in range(config.epochs):
        epoch_started = time.perf_counter()
        order = np.asarray(shuffle_epoch(list(range(n)), config.shuffle_seed, epoch))
        loss_total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            picked = order[start : start + config.batch_size]
            try:
                logits = model.forward(*trim_padding(ids[picked], segs[picked], mask[picked]))
                loss = T.cross_entropy(logits, labels[picked])
                if not np.isfinite(loss.data):
                    raise TrainingError(f"loss is {loss.item()}, training diverged")
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            except Exception as err:
                raise TrainingError(
                    f"epoch {epoch + 1}, batch {batch_index}: {err}"
                ) from err
            loss_total += loss.item() * len(picked)
        epoch_stats = EpochStats(
            mean_loss=loss_total / n,
            val_accuracy=accuracy(model, val_set),
            seconds=time.perf_counter() - epoch_started,
        )
        stats.append(epoch_stats)
        if log_stream is not None:
            log_stream.write(
                f"{log_prefix}epoch={epoch + 1} mean_loss={epoch_stats.mean_loss:.6f} "
                f"val_accuracy={epoch_stats.val_accuracy:.6f} "
                f"seconds={epoch_stats.seconds:.3f}\n"
            )
    return TrainRun(
        epochs=stats,
        total_seconds=time.perf_counter() - started,
        model=model,
    )


