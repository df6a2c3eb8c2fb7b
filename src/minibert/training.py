"""Seeded, reproducible fine-tuning: dataset splitting, per-epoch batch
shuffling, Adam updates, per-epoch statistics, and wall-clock timing.

Given identical data and the (init_seed, split_seed, shuffle_seed) tuple,
a training run reproduces the final parameters bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, field
from typing import Annotated, Sequence, TextIO

import numpy as np

from . import tensor as T
from .errors import ConfigError, TrainingError, above, at_least, check_types, within
from .model import ClassifierModel, StackedExamples, as_stacked, trim_padding
from .tokenizer import EncodedExample

M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024  # the ceiling of glibc's dynamic threshold
TRIM_THRESHOLD = 1024 * 1024 * 1024


@dataclass
class TrainConfig:
    """Fine-tuning hyperparameters; three epochs is the experiment default."""

    epochs: Annotated[int, at_least(1)] = 3
    batch_size: Annotated[int, at_least(1)] = 16
    learning_rate: Annotated[float, above(0)] = 1e-3
    adam_beta1: Annotated[float, within("[0, 1)")] = 0.9
    adam_beta2: Annotated[float, within("[0, 1)")] = 0.999
    adam_epsilon: Annotated[float, above(0)] = 1e-8
    shuffle_seed: int = 0
    split_ratio: Annotated[float, within("(0, 1)")] = 0.8
    split_seed: int = 0

    def __post_init__(self):
        check_types(type(self), vars(self))


@dataclass
class EpochStats:
    mean_loss: float
    val_accuracy: float
    seconds: float
    validation_seconds: float  # the part of ``seconds`` spent on val_accuracy


@dataclass
class TrainRun:
    """Per-epoch statistics and total wall-clock cost of one training run."""

    epochs: list[EpochStats]
    total_seconds: float
    model: ClassifierModel = field(repr=False)


def split_dataset(examples: Sequence, split_ratio: float, split_seed: int):
    """Seeded random split; the first ceil(N * ratio) of the permutation train.

    The two parts are disjoint, exhaustive and nonempty, or a ConfigError.
    """
    n = len(examples)
    if n < 2:
        raise ConfigError(f"need at least 2 examples to split, got {n}")
    if not 0.0 < split_ratio < 1.0:
        raise ConfigError(f"split_ratio must lie in (0, 1), got {split_ratio}")
    order = np.random.default_rng(split_seed).permutation(n)
    # tiny guard keeps exact products like 10 * 0.8 from ceiling up on float fuzz
    n_train = math.ceil(n * split_ratio - 1e-9)
    if not 0 < n_train < n:
        part = "validation" if n_train else "training"
        raise ConfigError(f"split_ratio {split_ratio} of {n} examples leaves the {part} set empty")
    train = [examples[i] for i in order[:n_train]]
    val = [examples[i] for i in order[n_train:]]
    return train, val


def shuffle_epoch(items: Sequence, shuffle_seed: int, epoch_index: int) -> list:
    """Permutation of ``items`` derived from (shuffle_seed, epoch_index)."""
    order = np.random.default_rng([shuffle_seed, epoch_index]).permutation(len(items))
    return [items[i] for i in order]


class Adam:
    """Adam with bias correction over one flat parameter array, such as
    ``ClassifierModel.flat``, stepped with a gradient in the same layout,
    such as ``ClassifierModel.grad``; one timestep increment per step() call.

    The two moment arrays have ``data``'s shape and dtype.

    The update overwrites moments and ``data`` in place, with two scratch
    arrays, in the operation order of the plain expressions, so the
    result is bit for bit theirs.
    """

    def __init__(
        self,
        data: np.ndarray,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.data = data
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.timestep = 0
        self._m = np.zeros_like(data)
        self._v = np.zeros_like(data)

    def step(self, grad: np.ndarray) -> None:
        self.timestep += 1
        t = self.timestep
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        m, v = self._m, self._v
        # m = beta1 * m + (1 - beta1) * grad
        scratch = np.multiply(grad, 1.0 - self.beta1, out=np.empty_like(grad))
        m *= self.beta1
        m += scratch
        # v = beta2 * v + (1 - beta2) * grad * grad
        np.multiply(grad, 1.0 - self.beta2, out=scratch)
        scratch *= grad
        v *= self.beta2
        v += scratch
        # data = data - learning_rate * (m / bias1) / (sqrt(v / bias2) + epsilon)
        step = np.divide(m, bias1, out=scratch)
        denom = np.divide(v, bias2, out=np.empty_like(v))
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        step *= self.learning_rate
        step /= denom
        self.data -= step


def pin_allocator() -> dict | None:
    """Fix glibc's allocator in the state its dynamic thresholds drift to.

    glibc serves a large block from fresh mmapped pages until one such
    block is freed, then raises its mmap threshold and serves blocks from
    the heap, trimming the heap top when enough of it is free.  Left
    alone, whether a training step's temporaries land on retained heap
    pages or on freshly mapped ones depends on what the process allocated
    before, and so does the step time a run records.  Returns the
    settings, or None where glibc's ``mallopt`` is not available.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows loads no CDLL(None)
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1
            or mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1):
        return None
    return {"M_MMAP_THRESHOLD": MMAP_THRESHOLD, "M_TRIM_THRESHOLD": TRIM_THRESHOLD}


def accuracy(model: ClassifierModel, examples: list[EncodedExample] | StackedExamples) -> float:
    """Fraction of examples whose ``model.predict`` label matches their own."""
    if not len(examples):
        raise ValueError("cannot evaluate accuracy on an empty set")
    inputs = as_stacked(examples)
    return float(np.mean(model.predict(inputs) == inputs.labels))


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
    with a ``TrainingError`` before the update is applied.  Once a batch's
    loss value is read, nothing refers to its autodiff graph any more, so
    at most one step's activations are alive at a forward pass and none
    during validation.  The allocator is pinned first (``pin_allocator``),
    so freeing each graph reuses the same heap pages step after step.
    Wall-clock time covers this call only.  When ``log_stream`` is given,
    one structured ``key=value`` line is written per epoch.
    """
    if not train_set or not val_set:
        raise ValueError("train() requires nonempty train and validation sets")
    pin_allocator()
    started = time.perf_counter()
    optimizer = Adam(
        model.flat,
        learning_rate=config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        epsilon=config.adam_epsilon,
    )
    inputs = as_stacked(train_set)
    ids, segs, mask = inputs.token_ids, inputs.segment_ids, inputs.attention_mask
    val_inputs = as_stacked(val_set)
    n = len(train_set)
    stats: list[EpochStats] = []
    for epoch in range(config.epochs):
        epoch_started = time.perf_counter()
        order = np.asarray(shuffle_epoch(list(range(n)), config.shuffle_seed, epoch))
        loss_total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            picked = order[start : start + config.batch_size]
            try:
                # a diverging run overflows to inf and nan; the loss check reports it
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = T.cross_entropy(
                        model.forward(*trim_padding(ids[picked], segs[picked], mask[picked])),
                        inputs.labels[picked],
                    )
                    if not np.isfinite(loss.data):
                        raise TrainingError(f"loss is {loss.item()}, training diverged")
                    model.zero_grad()
                    loss.backward()
                    optimizer.step(model.grad)
            except Exception as err:
                raise TrainingError(
                    f"epoch {epoch + 1}, batch {batch_index}: {err}"
                ) from err
            loss_total += loss.item() * len(picked)
            del loss  # frees this step's graph before the next forward
        validation_started = time.perf_counter()
        val_accuracy = accuracy(model, val_inputs)
        finished = time.perf_counter()
        epoch_stats = EpochStats(
            mean_loss=loss_total / n,
            val_accuracy=val_accuracy,
            seconds=finished - epoch_started,
            validation_seconds=finished - validation_started,
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


