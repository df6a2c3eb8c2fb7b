"""End-to-end experiment driver: corpus -> tokenizer -> training variants ->
evaluation -> reports.

A JSON config file is the single source of truth.  Every seed must be
stated explicitly so reruns are reproducible; the metrics side of the
output is byte-identical across reruns of one config (timing varies).
The vocabulary is always built from the training split only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Annotated, TextIO

from .checkpoint import save_ensemble, save_model
from .corpus import (
    LabeledCorpus,
    SyntheticSpec,
    first_label_outside,
    generate_synthetic,
    load_csv,
    save_csv,
)
from .ensemble import EnsembleConfig, Evaluation, evaluate, train_ensemble
from .errors import (
    ConfigError, CorpusError, TrainingError, at_least, check_types, json_text, read_json,
    read_section,
)
from .evaluation import ComparisonReport, TimingRecord, compare_report
from .model import ModelConfig, as_stacked, init_model
from .tokenizer import MIN_SEQ_LEN, NUM_SPECIAL_TOKENS, Vocabulary, build_vocab, encode
from .training import TrainConfig, TrainRun, split_dataset, train


@dataclass
class TokenizerConfig:
    """The ``tokenizer`` section."""

    # room for the special tokens; for [CLS], one token and [SEP]
    max_vocab: Annotated[int, at_least(NUM_SPECIAL_TOKENS)]
    max_seq_len: Annotated[int, at_least(MIN_SEQ_LEN)]
    min_frequency: Annotated[int, at_least(1)] = 1

    def __post_init__(self):
        check_types(type(self), vars(self))


@dataclass
class VariantSpec:
    """One model to train and evaluate: a single ``num_layers`` stack, or
    an ensemble of such stacks when ``ensemble`` is set.  The ensemble's
    member model config is a placeholder until the vocabulary is built."""

    name: str
    num_layers: Annotated[int, at_least(1)] = 1
    ensemble: EnsembleConfig | None = None
    gated: bool = False

    def __post_init__(self):
        check_types(type(self), vars(self))

    @property
    def kind(self) -> str:
        return "single" if self.ensemble is None else "ensemble"


@dataclass
class ExperimentConfig:
    corpus_path: str | None
    synthetic: SyntheticSpec | None
    tokenizer: TokenizerConfig
    model: ModelConfig
    train: TrainConfig
    variants: list[VariantSpec]
    output_dir: str = "runs"


@dataclass
class _Sections:
    """The top level of a config file, each section still raw JSON."""

    corpus: dict
    tokenizer: dict
    model: dict
    train: dict
    variants: list
    output_dir: str = "runs"

    def __post_init__(self):
        check_types(type(self), vars(self))
        if not self.variants:
            raise ConfigError("variants: at least one variant is required")


@dataclass
class _CorpusSection:
    path: str | None = None
    synthetic: dict | None = None

    def __post_init__(self):
        check_types(type(self), vars(self))
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of 'path' or 'synthetic' is required")


def parse_experiment_config(raw) -> ExperimentConfig:
    """Validate a parsed JSON config; seeds must be explicit."""
    sections = read_section(_Sections, raw, "config")
    corpus = read_section(_CorpusSection, sections.corpus, "corpus")
    synthetic = None
    if corpus.synthetic is not None:
        synthetic = parse_synthetic_spec(corpus.synthetic, "corpus.synthetic")
    tokenizer = read_section(TokenizerConfig, sections.tokenizer, "tokenizer")
    # placeholders: vocab_size until the vocabulary is built, num_layers until a variant sets it
    derived = {"vocab_size": tokenizer.max_vocab, "max_seq_len": tokenizer.max_seq_len}
    model = read_section(ModelConfig, sections.model, "model", num_layers=1, **derived)
    train = read_section(TrainConfig, sections.train, "train")
    variants = []
    for i, entry in enumerate(sections.variants):
        spec = parse_variant(entry, f"variants[{i}]", model)
        if spec.name in {v.name for v in variants}:
            raise ConfigError(f"variants[{i}]: duplicate variant name {spec.name!r}")
        variants.append(spec)
    return ExperimentConfig(
        corpus.path, synthetic, tokenizer, model, train, variants, sections.output_dir
    )


def parse_variant(entry, where: str, model: ModelConfig) -> VariantSpec:
    """One ``variants`` entry: its ``kind``, the VariantSpec keys and, for
    an ensemble, the EnsembleConfig keys, which a single variant rejects."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {entry!r}")
    name = entry.get("name")
    # the name becomes a directory under checkpoints/; 255 bytes is NAME_MAX
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or any(char in name for char in "/\\\0")
        # a lone surrogate, as JSON's "\ud800" escape gives, has no UTF-8 form
        or any("\ud800" <= char <= "\udfff" for char in name)
        or len(name.encode("utf-8")) > 255
    ):
        raise ConfigError(
            f"{where}: name must be a nonempty string of at most 255 UTF-8 bytes "
            f"without '/', '\\' or NUL and not '.' or '..', got {name!r}"
        )
    where = f"{where} {name!r}"
    kind = entry.get("kind")
    if kind not in ("single", "ensemble"):
        raise ConfigError(f"{where}: kind must be 'single' or 'ensemble', got {kind!r}")
    own_keys = {spec.name for spec in fields(VariantSpec)}
    own = {key: value for key, value in entry.items() if key in own_keys}
    rest = {key: value for key, value in entry.items() if key not in own_keys | {"kind"}}
    if kind == "single" and rest:
        raise ConfigError(
            f"{where}: unknown key(s) {rest} for kind 'single'; "
            "the ensemble keys apply only to kind 'ensemble'"
        )
    spec = read_section(VariantSpec, own, where, ensemble=None)
    if kind == "ensemble":
        member = replace(model, num_layers=spec.num_layers)
        spec.ensemble = read_section(EnsembleConfig, rest, where, member_model_config=member)
    return spec


def parse_synthetic_spec(section, where: str) -> SyntheticSpec:
    """Explicit ``class_token_pools`` or generated pools; a key that the
    chosen form does not read is rejected, not ignored."""
    explicit = isinstance(section, dict) and "class_token_pools" in section
    return read_section(SyntheticSpec if explicit else SyntheticSpec.balanced, section, where)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return parse_experiment_config(read_json(path))


@dataclass
class VariantResult:
    name: str
    kind: str
    evaluation: Evaluation
    timing: TimingRecord
    runs: list[TrainRun] = field(repr=False)


@dataclass
class ExperimentResult:
    run_dir: Path
    variants: list[VariantResult]
    skipped_gated: list[str]


def _fresh_run_dir(root: Path) -> Path:
    """A new ``run-<stamp>[-n].partial`` directory whose name is free both
    with and without the ``.partial`` suffix."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = root / f"run-{stamp}.partial"
    suffix = 1
    while candidate.exists() or candidate.with_suffix("").exists():
        suffix += 1
        candidate = root / f"run-{stamp}-{suffix}.partial"
    candidate.mkdir(parents=True)
    return candidate


def _load_corpus(config: ExperimentConfig) -> LabeledCorpus:
    """The training corpus; a CSV one must hold every class below its largest label."""
    if config.corpus_path is None:
        return generate_synthetic(config.synthetic)
    corpus = load_csv(config.corpus_path)
    missing = set(range(corpus.num_classes)) - {label for _, label in corpus.records}
    if missing:
        raise CorpusError(f"{config.corpus_path}: classes never observed: {sorted(missing)}")
    return corpus


def run_experiment(
    config: ExperimentConfig,
    include_gated: bool = False,
    echo: TextIO | None = None,
) -> ExperimentResult:
    """Run every (non-gated) variant and write all artifacts under one
    fresh timestamped directory.  It carries a ``.partial`` suffix until
    every report is written, so a failed run never looks finished."""
    corpus = _load_corpus(config)
    classes = config.model.num_classes
    if corpus.num_classes > classes:
        if config.corpus_path is None:
            raise ConfigError(
                f"corpus has {corpus.num_classes} classes but model.num_classes is {classes}"
            )
        row, label = first_label_outside(corpus, classes)
        raise ConfigError(
            f"{config.corpus_path}: row {row} label {label} is outside the model's "
            f"{classes} classes (model.num_classes)"
        )
    train_records, val_records = split_dataset(
        corpus.records, config.train.split_ratio, config.train.split_seed
    )
    vocab = build_vocab(
        [text for text, _ in train_records],
        max_size=config.tokenizer.max_vocab,
        min_frequency=config.tokenizer.min_frequency,
    )
    model_config = replace(config.model, vocab_size=len(vocab))

    seq_len = config.tokenizer.max_seq_len
    # stacked once here, outside every timed train call
    train_set = as_stacked([encode(text, vocab, seq_len, label) for text, label in train_records])
    val_set = as_stacked([encode(text, vocab, seq_len, label) for text, label in val_records])

    run_dir = _fresh_run_dir(Path(config.output_dir))
    save_csv(LabeledCorpus(train_records, corpus.num_classes), run_dir / "train.csv")
    save_csv(LabeledCorpus(val_records, corpus.num_classes), run_dir / "val.csv")
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

    comparison = compare_report([(r.name, r.evaluation.metrics, r.timing) for r in results])
    _write_reports(run_dir, results, comparison, skipped)
    run_dir = run_dir.rename(run_dir.with_suffix(""))
    return ExperimentResult(run_dir=run_dir, variants=results, skipped_gated=skipped)


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
    if variant.ensemble is None:
        predictor = init_model(member_config)
        prefix = f"variant={variant.name} "
        runs = [train(predictor, train_set, val_set, train_config, stream, prefix)]
        save_model(predictor, checkpoint_dir, vocab)
    else:
        predictor, runs = train_ensemble(
            train_set,
            val_set,
            replace(variant.ensemble, member_model_config=member_config),
            train_config,
            log_stream=stream,
        )
        save_ensemble(predictor, checkpoint_dir, vocab)
    evaluation = evaluate(predictor, val_set)
    # comparisons rank on summed member time, the ensemble's training cost
    timing = TimingRecord(
        model_name=variant.name,
        training_minutes=sum(run.total_seconds for run in runs) / 60.0,
        accuracy=evaluation.metrics.accuracy,
    )
    return VariantResult(
        name=variant.name, kind=variant.kind, evaluation=evaluation, timing=timing, runs=runs
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
                **r.evaluation.metrics.as_dict(),
                **r.evaluation.member_fields("member_val_accuracies"),
            }
            for r in results
        },
        "pairs": [p.as_dict() for p in comparison.pairs],
        "skipped_gated": skipped,
    }
    (run_dir / "metrics.json").write_text(json_text(metrics_doc), encoding="utf-8")

    timing_doc = {
        r.name: {
            **r.timing.as_dict(),
            "per_epoch_seconds": [
                [e.seconds for e in run.epochs] for run in r.runs
            ],
            "per_epoch_validation_seconds": [
                [e.validation_seconds for e in run.epochs] for run in r.runs
            ],
            "per_run_seconds": [run.total_seconds for run in r.runs],
        }
        for r in results
    }
    (run_dir / "timing.json").write_text(json_text(timing_doc), encoding="utf-8")

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
