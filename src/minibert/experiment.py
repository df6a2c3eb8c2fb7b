"""End-to-end experiment driver: corpus -> tokenizer -> training variants ->
evaluation -> reports.

A JSON config file is the single source of truth.  Every seed must be
stated explicitly so reruns are reproducible; the metrics side of the
output is byte-identical across reruns of one config (timing varies).
The vocabulary is always built from the training split only.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TextIO

from .checkpoint import save_ensemble, save_model
from .corpus import LabeledCorpus, SyntheticSpec, generate_synthetic, load_csv
from .ensemble import EnsembleConfig, train_ensemble
from .errors import ConfigError, TrainingError
from .evaluation import (
    ComparisonReport,
    MetricsReport,
    TimingRecord,
    compare_report,
    confusion_matrix,
    metrics,
)
from .model import ModelConfig, example_labels, init_model
from .tokenizer import MIN_SEQ_LEN, Vocabulary, build_vocab, encode
from .training import TrainConfig, TrainRun, split_dataset, train


@dataclass
class VariantSpec:
    """One model to train and evaluate: a single stack or an ensemble."""

    name: str
    kind: str  # "single" | "ensemble"
    num_layers: int = 1
    n_members: int = 3
    member_shuffle_seeds: list[int] = field(default_factory=list)
    shared_init: bool = True
    voting: str = "majority"
    gated: bool = False


@dataclass
class ExperimentConfig:
    corpus_path: str | None
    synthetic: SyntheticSpec | None
    max_vocab: int
    min_frequency: int
    max_seq_len: int
    model: ModelConfig
    train: TrainConfig
    variants: list[VariantSpec]
    output_dir: str = "runs"


_TOP_LEVEL_KEYS = ("corpus", "tokenizer", "model", "train", "variants", "output_dir")
_CORPUS_KEYS = ("path", "synthetic")
_TOKENIZER_KEYS = ("max_vocab", "min_frequency", "max_seq_len")
_VARIANT_KEYS = tuple(f.name for f in fields(VariantSpec))
_SYNTHETIC_KEYS = ("num_examples", "seed", "tokens_per_text", "noise_rate")
_EXPLICIT_POOL_KEYS = _SYNTHETIC_KEYS + ("class_token_pools", "shared_pool")
_BALANCED_POOL_KEYS = _SYNTHETIC_KEYS + ("num_classes", "class_pool_size", "shared_pool_size")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _reject_unknown_keys(section, allowed: tuple[str, ...], where: str) -> None:
    """A misspelt key would otherwise fall back to its default silently."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON config; seeds must be explicit."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown_keys(raw, _TOP_LEVEL_KEYS, "config")

    corpus_section = _require(raw, "corpus", "config")
    _reject_unknown_keys(corpus_section, _CORPUS_KEYS, "corpus")
    corpus_path = corpus_section.get("path")
    synthetic = None
    if "synthetic" in corpus_section:
        synthetic = parse_synthetic_spec(corpus_section["synthetic"], "corpus.synthetic")
    if (corpus_path is None) == (synthetic is None):
        raise ConfigError("corpus: exactly one of 'path' or 'synthetic' is required")

    tok = _require(raw, "tokenizer", "config")
    _reject_unknown_keys(tok, _TOKENIZER_KEYS, "tokenizer")
    max_vocab = _require(tok, "max_vocab", "tokenizer")
    min_frequency = tok.get("min_frequency", 1)
    max_seq_len = _require(tok, "max_seq_len", "tokenizer")
    if not isinstance(max_seq_len, int) or max_seq_len < MIN_SEQ_LEN:
        raise ConfigError(
            f"tokenizer: max_seq_len must be an integer >= {MIN_SEQ_LEN} "
            f"([CLS], one token, [SEP]), got {max_seq_len!r}"
        )

    model_section = dict(_require(raw, "model", "config"))
    _require(model_section, "init_seed", "model")
    model_section.setdefault("max_seq_len", max_seq_len)
    model_section.setdefault("vocab_size", max_vocab)  # placeholder, rebuilt after vocab
    try:
        model = ModelConfig(**model_section)
    except TypeError as err:
        raise ConfigError(f"model: {err}") from None

    train_section = dict(_require(raw, "train", "config"))
    _require(train_section, "shuffle_seed", "train")
    _require(train_section, "split_seed", "train")
    try:
        train_config = TrainConfig(**train_section)
    except TypeError as err:
        raise ConfigError(f"train: {err}") from None

    variants_raw = _require(raw, "variants", "config")
    if not variants_raw:
        raise ConfigError("variants: at least one variant is required")
    variants = []
    names = set()
    for i, entry in enumerate(variants_raw):
        where = f"variants[{i}]"
        _reject_unknown_keys(entry, _VARIANT_KEYS, where)
        name = _require(entry, "name", where)
        if name in names:
            raise ConfigError(f"{where}: duplicate variant name {name!r}")
        names.add(name)
        kind = _require(entry, "kind", where)
        if kind not in ("single", "ensemble"):
            raise ConfigError(f"{where}: kind must be 'single' or 'ensemble', got {kind!r}")
        spec = VariantSpec(
            name=name,
            kind=kind,
            num_layers=entry.get("num_layers", 1),
            n_members=entry.get("n_members", 3),
            member_shuffle_seeds=list(entry.get("member_shuffle_seeds", [])),
            shared_init=entry.get("shared_init", True),
            voting=entry.get("voting", "majority"),
            gated=entry.get("gated", False),
        )
        if spec.num_layers < 1:
            raise ConfigError(f"{where}: num_layers must be >= 1")
        if kind == "ensemble" and not spec.member_shuffle_seeds:
            raise ConfigError(f"{where}: ensembles must state member_shuffle_seeds explicitly")
        if kind == "ensemble" and len(spec.member_shuffle_seeds) != spec.n_members:
            raise ConfigError(
                f"{where}: expected {spec.n_members} member_shuffle_seeds, "
                f"got {len(spec.member_shuffle_seeds)}"
            )
        variants.append(spec)

    return ExperimentConfig(
        corpus_path=corpus_path,
        synthetic=synthetic,
        max_vocab=max_vocab,
        min_frequency=min_frequency,
        max_seq_len=max_seq_len,
        model=model,
        train=train_config,
        variants=variants,
        output_dir=raw.get("output_dir", "runs"),
    )


def parse_synthetic_spec(section: dict, where: str) -> SyntheticSpec:
    """Explicit ``class_token_pools`` or generated pools; a key that the
    chosen form does not read is rejected, not ignored."""
    explicit = isinstance(section, dict) and "class_token_pools" in section
    _reject_unknown_keys(section, _EXPLICIT_POOL_KEYS if explicit else _BALANCED_POOL_KEYS, where)
    _require(section, "seed", where)
    num_examples = _require(section, "num_examples", where)
    if explicit:
        return SyntheticSpec(
            num_examples=num_examples,
            class_token_pools=section["class_token_pools"],
            shared_pool=section.get("shared_pool", []),
            tokens_per_text=tuple(section.get("tokens_per_text", (5, 12))),
            noise_rate=section.get("noise_rate", 0.0),
            seed=section["seed"],
        )
    return SyntheticSpec.balanced(
        num_examples=num_examples,
        num_classes=section.get("num_classes", 2),
        class_pool_size=section.get("class_pool_size", 30),
        shared_pool_size=section.get("shared_pool_size", 20),
        tokens_per_text=tuple(section.get("tokens_per_text", (5, 12))),
        noise_rate=section.get("noise_rate", 0.0),
        seed=section["seed"],
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON ({err.msg})")
    return parse_experiment_config(raw)


@dataclass
class VariantResult:
    name: str
    kind: str
    metrics: MetricsReport
    timing: TimingRecord
    runs: list[TrainRun] = field(repr=False)
    wall_clock_seconds: float = 0.0
    checkpoint_dir: Path | None = None
    member_val_accuracies: list[float] = field(default_factory=list)
    disagreement_count: int | None = None


@dataclass
class ExperimentResult:
    run_dir: Path
    variants: list[VariantResult]
    comparison: ComparisonReport
    skipped_gated: list[str]


def _fresh_run_dir(root: Path) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = root / f"run-{stamp}"
    suffix = 1
    while candidate.exists():
        suffix += 1
        candidate = root / f"run-{stamp}-{suffix}"
    candidate.mkdir(parents=True)
    return candidate


def _write_split_csv(records: list[tuple[str, int]], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["text", "label"])
        writer.writerows(records)


def _load_corpus(config: ExperimentConfig) -> LabeledCorpus:
    if config.corpus_path is not None:
        return load_csv(config.corpus_path)
    return generate_synthetic(config.synthetic)


def run_experiment(
    config: ExperimentConfig,
    include_gated: bool = False,
    echo: TextIO | None = None,
) -> ExperimentResult:
    """Run every (non-gated) variant and write all artifacts under one
    fresh timestamped directory."""
    corpus = _load_corpus(config)
    if corpus.num_classes > config.model.num_classes:
        raise ConfigError(
            f"corpus has {corpus.num_classes} classes but model.num_classes is "
            f"{config.model.num_classes}"
        )
    train_records, val_records = split_dataset(
        corpus.records, config.train.split_ratio, config.train.split_seed
    )
    vocab = build_vocab(
        [text for text, _ in train_records],
        max_size=config.max_vocab,
        min_frequency=config.min_frequency,
    )
    model_config = replace(config.model, vocab_size=len(vocab), max_seq_len=config.max_seq_len)

    train_set = [
        encode(text, vocab, config.max_seq_len, label) for text, label in train_records
    ]
    val_set = [encode(text, vocab, config.max_seq_len, label) for text, label in val_records]

    run_dir = _fresh_run_dir(Path(config.output_dir))
    _write_split_csv(train_records, run_dir / "train.csv")
    _write_split_csv(val_records, run_dir / "val.csv")
    vocab.save(run_dir / "vocab.txt")

    results: list[VariantResult] = []
    skipped: list[str] = []
    with (run_dir / "train_log.txt").open("w", encoding="utf-8") as log_file:
        stream = _Tee(log_file, echo)
        for variant in config.variants:
            if variant.gated and not include_gated:
                skipped.append(variant.name)
                continue
            stream.write(f"variant={variant.name} kind={variant.kind} starting\n")
            try:
                results.append(
                    _run_variant(
                        variant,
                        model_config,
                        config.train,
                        train_set,
                        val_set,
                        vocab,
                        run_dir,
                        stream,
                    )
                )
            except Exception as err:
                raise TrainingError(f"variant {variant.name!r}: {err}") from err

    comparison = compare_report([(r.name, r.metrics, r.timing) for r in results])
    _write_reports(run_dir, results, comparison, skipped)
    return ExperimentResult(
        run_dir=run_dir, variants=results, comparison=comparison, skipped_gated=skipped
    )


def _run_variant(
    variant: VariantSpec,
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_set,
    val_set,
    vocab: Vocabulary,
    run_dir: Path,
    stream: TextIO,
) -> VariantResult:
    member_config = replace(model_config, num_layers=variant.num_layers)
    checkpoint_dir = run_dir / "checkpoints" / variant.name
    val_labels = example_labels(val_set)

    if variant.kind == "single":
        model = init_model(member_config)
        run = train(
            model,
            train_set,
            val_set,
            train_config,
            log_stream=stream,
            log_prefix=f"variant={variant.name} ",
        )
        predicted = model.predict(val_set)
        save_model(model, checkpoint_dir, vocab)
        report = metrics(confusion_matrix(predicted, val_labels, member_config.num_classes))
        timing = TimingRecord(
            model_name=variant.name,
            training_minutes=run.total_minutes,
            accuracy=report.accuracy,
        )
        return VariantResult(
            name=variant.name,
            kind="single",
            metrics=report,
            timing=timing,
            runs=[run],
            wall_clock_seconds=run.total_seconds,
            checkpoint_dir=checkpoint_dir,
        )

    ensemble_config = EnsembleConfig(
        member_model_config=member_config,
        n_members=variant.n_members,
        shared_init=variant.shared_init,
        member_shuffle_seeds=list(variant.member_shuffle_seeds),
        voting=variant.voting,
    )
    training_started = time.perf_counter()
    ensemble, runs = train_ensemble(
        train_set,
        val_set,
        ensemble_config,
        train_config,
        log_stream=stream,
    )
    wall_clock = time.perf_counter() - training_started
    prediction = ensemble.predict(val_set)
    save_ensemble(ensemble, checkpoint_dir, vocab)
    report = metrics(confusion_matrix(prediction.labels, val_labels, member_config.num_classes))
    # comparisons rank on summed member time, the ensemble's training cost
    summed_seconds = sum(run.total_seconds for run in runs)
    timing = TimingRecord(
        model_name=variant.name,
        training_minutes=summed_seconds / 60.0,
        accuracy=report.accuracy,
    )
    return VariantResult(
        name=variant.name,
        kind="ensemble",
        metrics=report,
        timing=timing,
        runs=runs,
        wall_clock_seconds=wall_clock,
        checkpoint_dir=checkpoint_dir,
        member_val_accuracies=prediction.member_accuracies(val_labels),
        disagreement_count=prediction.disagreement_count,
    )


def _write_reports(
    run_dir: Path,
    results: list[VariantResult],
    comparison: ComparisonReport,
    skipped: list[str],
) -> None:
    metrics_doc = {
        "variants": {
            r.name: {
                "kind": r.kind,
                **r.metrics.as_dict(),
                **(
                    {
                        "member_val_accuracies": r.member_val_accuracies,
                        "disagreement_count": r.disagreement_count,
                    }
                    if r.kind == "ensemble"
                    else {}
                ),
            }
            for r in results
        },
        "pairs": [p.as_dict() for p in comparison.pairs],
        "skipped_gated": skipped,
    }
    (run_dir / "metrics.json").write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    timing_doc = {
        r.name: {
            **r.timing.as_dict(),
            "wall_clock_seconds": r.wall_clock_seconds,
            "per_epoch_seconds": [
                [e.seconds for e in run.epochs] for run in r.runs
            ],
            "per_run_seconds": [run.total_seconds for run in r.runs],
        }
        for r in results
    }
    (run_dir / "timing.json").write_text(
        json.dumps(timing_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    report = [
        "# Experiment report",
        "",
        "## Prediction quality",
        "",
        comparison.metrics_markdown(),
        "## Training time",
        "",
        comparison.timing_markdown(),
    ]
    (run_dir / "report.md").write_text("\n".join(report), encoding="utf-8")


class _Tee:
    """Write-through to a file plus an optional echo stream."""

    def __init__(self, primary: TextIO, echo: TextIO | None = None):
        self.primary = primary
        self.echo = echo

    def write(self, text: str) -> None:
        self.primary.write(text)
        if self.echo is not None:
            self.echo.write(text)
            self.echo.flush()
