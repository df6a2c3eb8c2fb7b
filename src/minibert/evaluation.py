"""Confusion matrices, classification metrics, timing economics, and
side-by-side comparison reports.

The binary definitions treat class 1 as positive.  Metrics with a zero
denominator are reported as 0.0 together with an explicit ``undefined``
flag instead of NaN, keeping reports machine-readable.  Displayed values
round half-up to the shown decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from .errors import ConfigError

METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


@dataclass
class ConfusionMatrix:
    """Counts of (true class, predicted class) pairs, rows = true class."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)  # an int past int64 makes it dtype object
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion counts must be square, got shape {counts.shape}")
        if counts.min() < 0:
            raise ConfigError("confusion counts must be nonnegative")
        if counts.sum(dtype=object) > np.iinfo(np.int64).max:  # bounds every later sum
            raise ConfigError("confusion counts must total at most 2**63 - 1")
        self.counts = counts.astype(np.int64, copy=False)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def _binary(self) -> np.ndarray:
        if self.num_classes != 2:
            raise ValueError(
                f"binary accessors need a 2x2 matrix, got {self.num_classes} classes"
            )
        return self.counts

    @property
    def tn(self) -> int:
        return int(self._binary()[0, 0])

    @property
    def fp(self) -> int:
        return int(self._binary()[0, 1])

    @property
    def fn(self) -> int:
        return int(self._binary()[1, 0])

    @property
    def tp(self) -> int:
        return int(self._binary()[1, 1])

    @classmethod
    def from_binary(cls, tn: int, fp: int, fn: int, tp: int) -> "ConfusionMatrix":
        return cls([[tn, fp], [fn, tp]])


def confusion_matrix(predicted, actual, num_classes: int) -> ConfusionMatrix:
    """Tally counts[a][p] = number of examples with actual a, predicted p."""
    predicted = np.asarray(predicted, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ValueError(
            f"predicted and actual must be equal-length 1D sequences, "
            f"got {predicted.shape} and {actual.shape}"
        )
    if predicted.size == 0:
        raise ValueError("cannot build a confusion matrix from empty sequences")
    for name, labels in (("predicted", predicted), ("actual", actual)):
        if labels.min() < 0 or labels.max() >= num_classes:
            raise ValueError(
                f"{name} labels must lie in [0, {num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    return ConfusionMatrix(counts)


@dataclass
class MetricsReport:
    """Accuracy, precision, recall and F1 with zero-denominator flags."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix = field(repr=False)
    undefined: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "undefined": list(self.undefined),
            "confusion": self.confusion.counts.tolist(),
        }

    def value(self, metric: str) -> float:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)


def _ratio(numerator: float, denominator: float) -> tuple[float, bool]:
    if denominator == 0:
        return 0.0, True
    return numerator / denominator, False


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive the four headline metrics from a confusion matrix.

    Precision, recall and F1 are the mean over the scored classes: class 1
    alone for a binary matrix, every class otherwise (macro average).
    Binary flags keep ``METRIC_NAMES`` order; larger matrices sort them.
    """
    if cm.total == 0:
        raise ConfigError("cannot compute metrics for an empty confusion matrix")
    counts = cm.counts
    scores: dict[str, list[float]] = {"precision": [], "recall": [], "f1": []}
    undefined: set[str] = set()
    for c in [1] if cm.num_classes == 2 else range(cm.num_classes):
        tp = float(counts[c, c])
        p, pu = _ratio(tp, counts[:, c].sum())
        r, ru = _ratio(tp, counts[c, :].sum())
        f, fu = _ratio(2.0 * p * r, p + r)
        for name, value, flag in (("precision", p, pu), ("recall", r, ru), ("f1", f, fu)):
            scores[name].append(value)
            if flag:
                undefined.add(name)
    order = METRIC_NAMES if cm.num_classes == 2 else sorted(METRIC_NAMES)
    return MetricsReport(
        accuracy=float(np.trace(counts)) / cm.total,
        **{name: float(np.mean(values)) for name, values in scores.items()},
        confusion=cm,
        undefined=tuple(name for name in order if name in undefined),
    )


def accuracy_per_minute(accuracy: float, minutes: float) -> float:
    """Prediction quality bought per minute of training."""
    if minutes <= 0:
        raise ConfigError(f"minutes must be positive, got {minutes}")
    if not math.isfinite(minutes):
        raise ConfigError(f"minutes must be finite, got {minutes}")
    if not math.isfinite(accuracy / minutes):
        raise ConfigError(f"accuracy per minute must be finite, got {accuracy} / {minutes}")
    return accuracy / minutes


def relative_overhead(time_a: float, time_b: float) -> float:
    """Percentage by which ``time_a`` exceeds the baseline ``time_b``."""
    if time_b <= 0:
        raise ValueError(f"baseline time must be positive, got {time_b}")
    return 100.0 * (time_a - time_b) / time_b


def rounded(value: float, decimals: int, sign: str = "") -> str:
    """``value`` rounded to ``decimals`` places, ties away from zero, in
    decimal digits, never a large float's binary expansion; ``sign="+"``
    marks positive values too.  The context keeps every digit of a float."""
    exact = Decimal(repr(value))
    digits = Context(prec=max(exact.adjusted(), 0) + decimals + 2)
    half_up = exact.quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_UP, digits)
    return format(half_up, f"{sign}.{decimals}f")


def round_half_up(value: float, decimals: int) -> float:
    """The float nearest to ``rounded(value, decimals)``."""
    return float(rounded(value, decimals))


@dataclass
class TimingRecord:
    """Training cost of one model alongside the accuracy it bought."""

    model_name: str
    training_minutes: float
    accuracy: float

    def __post_init__(self):
        accuracy_per_minute(self.accuracy, self.training_minutes)

    @property
    def accuracy_per_minute(self) -> float:
        return accuracy_per_minute(self.accuracy, self.training_minutes)

    def as_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "training_minutes": self.training_minutes,
            "accuracy": self.accuracy,
            "accuracy_per_minute": self.accuracy_per_minute,
        }


@dataclass
class PairGap:
    """Relative metric gaps of run ``name_a`` against baseline ``name_b``."""

    name_a: str
    name_b: str
    gaps_percent: dict[str, float | None]
    largest_gap_metric: str | None

    def as_dict(self) -> dict:
        return {
            "a": self.name_a,
            "baseline": self.name_b,
            "gaps_percent": self.gaps_percent,
            "largest_gap_metric": self.largest_gap_metric,
        }


@dataclass
class ComparisonReport:
    """Every run's metrics and timing plus pairwise relative gaps."""

    entries: list[tuple[str, MetricsReport, TimingRecord | None]]
    pairs: list[PairGap]

    def metrics_markdown(self) -> str:
        lines = []
        for name, report, _ in self.entries:
            lines.append(f"### {name}")
            lines.append("")
            lines.append("| Evaluation index | Value |")
            lines.append("| --- | --- |")
            for metric in METRIC_NAMES:
                flag = " (undefined)" if metric in report.undefined else ""
                lines.append(
                    f"| {metric.capitalize()} | "
                    f"{rounded(report.value(metric), 4)}{flag} |"
                )
            lines.append("")
            if report.confusion.num_classes == 2:
                cm = report.confusion
                lines.append(
                    f"Confusion matrix: tn={cm.tn}, fp={cm.fp}, fn={cm.fn}, tp={cm.tp}"
                )
                lines.append("")
        if self.pairs:
            lines.append("### Relative gaps (percent, against baseline)")
            lines.append("")
            lines.append("| Model | Baseline | " + " | ".join(METRIC_NAMES) + " | Largest |")
            lines.append("| --- | --- | " + " | ".join("---" for _ in METRIC_NAMES) + " | --- |")
            for pair in self.pairs:
                cells = []
                for metric in METRIC_NAMES:
                    gap = pair.gaps_percent[metric]
                    cells.append("n/a" if gap is None else f"{rounded(gap, 2, sign='+')}%")
                lines.append(
                    f"| {pair.name_a} | {pair.name_b} | "
                    + " | ".join(cells)
                    + f" | {pair.largest_gap_metric or 'n/a'} |"
                )
            lines.append("")
        return "\n".join(lines)

    def timing_markdown(self) -> str:
        lines = [
            "| Model | Training Time (min) | Accuracy | Accuracy per min |",
            "| --- | --- | --- | --- |",
        ]
        for name, _, timing in self.entries:
            if timing is None:
                continue
            lines.append(
                f"| {name} | {rounded(timing.training_minutes, 2)} | "
                f"{rounded(timing.accuracy, 4)} | "
                f"{rounded(timing.accuracy_per_minute, 4)} |"
            )
        lines.append("")
        return "\n".join(lines)


def metric_gap_percent(value_a: float, value_b: float) -> float | None:
    """Relative gap 100 * (a - b) / b, None when the baseline is zero."""
    if value_b == 0:
        return None
    return 100.0 * (value_a - value_b) / value_b


def compare_report(
    runs: list[tuple[str, MetricsReport, TimingRecord | None]],
) -> ComparisonReport:
    """Assemble metrics, timing, and all ordered pairwise gaps."""
    if not runs:
        raise ValueError("compare_report needs at least one run")
    pairs: list[PairGap] = []
    for name_a, report_a, _ in runs:
        for name_b, report_b, _ in runs:
            if name_a == name_b:
                continue
            gaps = {
                metric: metric_gap_percent(report_a.value(metric), report_b.value(metric))
                for metric in METRIC_NAMES
            }
            defined = {m: g for m, g in gaps.items() if g is not None}
            largest = max(defined, key=lambda m: abs(defined[m])) if defined else None
            pairs.append(PairGap(name_a, name_b, gaps, largest))
    return ComparisonReport(entries=list(runs), pairs=pairs)
