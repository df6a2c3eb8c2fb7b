"""Miniature BERT-style text classifiers trained from scratch, shallow-model
ensembles combined by voting, and training-cost benchmarks."""

from .corpus import LabeledCorpus, SyntheticSpec, generate_synthetic, load_csv, save_csv
from .ensemble import (
    EnsembleConfig,
    EnsembleModel,
    average_vote,
    majority_vote,
    predict_ensemble,
    train_ensemble,
)
from .evaluation import (
    ComparisonReport,
    ConfusionMatrix,
    MetricsReport,
    TimingRecord,
    accuracy_per_minute,
    compare_report,
    confusion_matrix,
    metrics,
    relative_overhead,
)
from .model import (
    ClassifierModel,
    ModelConfig,
    init_model,
    parameter_count,
)
from .tensor import Tensor
from .tokenizer import EncodedExample, Vocabulary, build_vocab, encode, segment_text
from .training import Adam, TrainConfig, TrainRun, accuracy, shuffle_epoch, split_dataset, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ClassifierModel",
    "ComparisonReport",
    "ConfusionMatrix",
    "EncodedExample",
    "EnsembleConfig",
    "EnsembleModel",
    "LabeledCorpus",
    "MetricsReport",
    "ModelConfig",
    "SyntheticSpec",
    "Tensor",
    "TimingRecord",
    "TrainConfig",
    "TrainRun",
    "Vocabulary",
    "accuracy",
    "accuracy_per_minute",
    "average_vote",
    "build_vocab",
    "compare_report",
    "confusion_matrix",
    "encode",
    "generate_synthetic",
    "init_model",
    "load_csv",
    "majority_vote",
    "metrics",
    "parameter_count",
    "predict_ensemble",
    "relative_overhead",
    "save_csv",
    "segment_text",
    "shuffle_epoch",
    "split_dataset",
    "train",
    "train_ensemble",
]
