"""Train N member classifiers and combine their predictions by voting.

Members share initial weights by default; diversity comes from distinct
per-member batch-shuffle seeds.  Members train one after another, so the
summed member time is the ensemble's sequential training cost.  Majority
voting is the default rule; average-probability voting is also
available.  Ties break toward the lowest class index (with odd member
counts and binary labels the majority rule never ties).

An evaluation runs each member's forward pass exactly once, with no
autodiff graph: majority voting needs each member's labels, average
voting each member's probabilities, and the member labels, the
disagreement count and the per-member accuracies all follow from those.
``evaluate`` scores that pass for a model and an ensemble alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Annotated, TextIO

import numpy as np

from .errors import ConfigError, TrainingError, at_least, check_types
from .evaluation import MetricsReport, confusion_matrix, metrics
from .model import ClassifierModel, ModelConfig, StackedExamples, as_stacked, init_model
from .tokenizer import EncodedExample
from .training import TrainConfig, TrainRun, train

MAJORITY = "majority"
AVERAGE_PROBABILITY = "average_probability"
VOTING_RULES = (MAJORITY, AVERAGE_PROBABILITY)


@dataclass
class EnsembleConfig:
    """Shape of the ensemble: member count, member model, seeds, voting rule."""

    member_model_config: ModelConfig
    n_members: Annotated[int, at_least(1)] = 3
    shared_init: bool = True
    member_shuffle_seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    voting: str = MAJORITY

    def __post_init__(self):
        check_types(type(self), vars(self))
        seeds = self.member_shuffle_seeds
        if len(seeds) != self.n_members:
            raise ConfigError(
                f"need exactly {self.n_members} member_shuffle_seeds, got {len(seeds)}"
            )
        if self.voting not in VOTING_RULES:
            raise ConfigError(f"voting must be one of {VOTING_RULES}, got {self.voting!r}")


@dataclass
class EnsemblePrediction:
    """Voted labels plus every member's own labels for the same examples."""

    labels: np.ndarray
    member_labels: np.ndarray = field(repr=False)  # (N, B)
    disagreement_count: int = 0


class EnsembleModel:
    """N trained members plus the configured voting rule."""

    def __init__(self, members: list[ClassifierModel], config: EnsembleConfig):
        if len(members) != config.n_members:
            raise ConfigError(
                f"expected {config.n_members} members, got {len(members)}"
            )
        first = members[0].config
        for m in members[1:]:
            if replace(m.config, init_seed=first.init_seed) != first:
                raise ConfigError("ensemble members must share one model shape")
        self.members = members
        self.config = config

    def predict(self, examples: list[EncodedExample] | StackedExamples) -> EnsemblePrediction:
        return predict_ensemble(self, examples)


def train_ensemble(
    train_set: list[EncodedExample],
    val_set: list[EncodedExample],
    ensemble_config: EnsembleConfig,
    train_config: TrainConfig,
    log_stream: TextIO | None = None,
) -> tuple[EnsembleModel, list[TrainRun]]:
    """Train every member independently on the same split, one after another.

    With ``shared_init`` all members start from identical parameters
    (same init seed); otherwise each member's init seed is offset by its
    index.  Each member shuffles batches with its own seed.  The returned
    runs carry per-member wall-clock times; their sum is the ensemble's
    training cost.
    """
    base = ensemble_config.member_model_config
    runs: list[TrainRun] = []
    for index in range(ensemble_config.n_members):
        cfg = base if ensemble_config.shared_init else replace(
            base, init_seed=base.init_seed + index
        )
        member_train = replace(
            train_config, shuffle_seed=ensemble_config.member_shuffle_seeds[index]
        )
        try:
            runs.append(
                train(
                    init_model(cfg),
                    train_set,
                    val_set,
                    member_train,
                    log_stream=log_stream,
                    log_prefix=f"member={index} ",
                )
            )
        except Exception as err:
            raise TrainingError(f"member {index}: {err}") from err
    ensemble = EnsembleModel([run.model for run in runs], ensemble_config)
    return ensemble, runs


def majority_vote(member_labels) -> np.ndarray:
    """Per example, the class with the most votes; ties break to the
    lowest class index."""
    votes = _validated_votes(member_labels)
    num_classes = int(votes.max()) + 1
    counts = np.zeros((votes.shape[1], num_classes), dtype=np.int64)
    for member_row in votes:
        counts[np.arange(votes.shape[1]), member_row] += 1
    return np.argmax(counts, axis=1)


def average_vote(member_probabilities) -> np.ndarray:
    """Argmax of the mean member probability vector; same tie-break rule."""
    probs = np.asarray(member_probabilities, dtype=np.float64)
    if probs.ndim != 3:
        raise ValueError(
            f"expected probabilities shaped (members, batch, classes), got {probs.shape}"
        )
    sums = probs.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(f"probability rows must sum to 1 within 1e-5 (worst off by {worst:g})")
    return np.argmax(probs.mean(axis=0), axis=-1)


def predict_ensemble(
    ensemble: EnsembleModel, examples: list[EncodedExample] | StackedExamples
) -> EnsemblePrediction:
    """Vote member predictions into final labels and count disagreements.

    Each member runs one forward pass: ``predict`` for majority voting,
    ``predict_proba`` for average voting, whose argmax gives the member's
    labels.  The examples are stacked once and every member reads that copy.
    """
    inputs = as_stacked(examples)
    if ensemble.config.voting == AVERAGE_PROBABILITY:
        member_probs = np.stack([m.predict_proba(inputs) for m in ensemble.members])
        member_labels = np.argmax(member_probs, axis=-1)
        labels = average_vote(member_probs)
    else:
        member_labels = np.stack([m.predict(inputs) for m in ensemble.members])
        labels = majority_vote(member_labels)
    disagreement = int(np.sum(~np.all(member_labels == member_labels[0], axis=0)))
    return EnsemblePrediction(
        labels=labels, member_labels=member_labels, disagreement_count=disagreement
    )


@dataclass
class Evaluation:
    """Scores of one prediction pass over labelled examples.  Only an
    ensemble's evaluation carries member accuracies and a disagreement count."""

    metrics: MetricsReport
    member_accuracies: list[float] | None = None
    disagreement_count: int | None = None


def evaluate(
    predictor: ClassifierModel | EnsembleModel, examples: list[EncodedExample]
) -> Evaluation:
    """Predict ``examples`` once with a model or an ensemble and score the
    labels, and an ensemble's member labels the same way."""
    inputs = as_stacked(examples)
    labels = inputs.labels
    if isinstance(predictor, EnsembleModel):
        prediction = predictor.predict(inputs)
        num_classes = predictor.config.member_model_config.num_classes
        voted, *members = (
            metrics(confusion_matrix(predicted, labels, num_classes))
            for predicted in (prediction.labels, *prediction.member_labels)
        )
        return Evaluation(
            voted,
            member_accuracies=[member.accuracy for member in members],
            disagreement_count=prediction.disagreement_count,
        )
    predicted = predictor.predict(inputs)
    return Evaluation(metrics(confusion_matrix(predicted, labels, predictor.config.num_classes)))


def _validated_votes(member_labels) -> np.ndarray:
    if isinstance(member_labels, np.ndarray):
        votes = member_labels
    else:
        rows = list(member_labels)
        lengths = {len(row) for row in rows}
        if len(lengths) > 1:
            raise ValueError(f"ragged vote matrix: row lengths {sorted(lengths)}")
        votes = np.asarray(rows)
    if votes.ndim != 2:
        raise ValueError(f"expected votes shaped (members, batch), got {votes.shape}")
    if votes.shape[0] < 1:
        raise ValueError("need at least one member's votes")
    if votes.size and votes.min() < 0:
        raise ValueError("class indices must be nonnegative")
    return votes.astype(np.int64)
