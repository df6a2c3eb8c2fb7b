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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TextIO

from .checkpoint import save_checkpoint
from .corpus import LabeledCorpus, SyntheticSpec, generate_synthetic, load_csv
from .ensemble import EnsembleConfig, Evaluation, evaluate, train_ensemble
from .errors import ConfigError, TrainingError
from .evaluation import ComparisonReport, TimingRecord, compare_report
from .model import ModelConfig, init_model
from .tokenizer import MIN_SEQ_LEN, Vocabulary, build_vocab, encode
from .training import TrainConfig, TrainRun, split_dataset, train


@dataclass
class VariantSpec:
    """One model to train and evaluate: a single ``num_layers`` stack, or
    an ensemble of such stacks when ``ensemble`` is set.  The ensemble's
    member model config is a placeholder until the vocabulary is built."""

    name: str
    num_layers: int = 1
    ensemble: EnsembleConfig | None = None
    gated: bool = False

    @property
    def kind(self) -> str:
        return "single" if self.ensemble is None else "ensemble"


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
_VARIANT_KEYS = ("name", "kind", "num_layers", "gated")
_ENSEMBLE_KEYS = ("n_members", "member_shuffle_seeds", "shared_init", "voting")
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
    except (TypeError, ConfigError) as err:
        raise ConfigError(f"model: {err}") from None

    train_section = dict(_require(raw, "train", "config"))
    _require(train_section, "shuffle_seed", "train")
    _require(train_section, "split_seed", "train")
    try:
        train_config = TrainConfig(**train_section)
    except (TypeError, ConfigError) as err:
        raise ConfigError(f"train: {err}") from None

    variants_raw = _require(raw, "variants", "config")
    if not variants_raw:
        raise ConfigError("variants: at least one variant is required")
    variants = []
    for i, entry in enumerate(variants_raw):
        spec = parse_variant(entry, f"variants[{i}]", model)
        if spec.name in {v.name for v in variants}:
            raise ConfigError(f"variants[{i}]: duplicate variant name {spec.name!r}")
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


def parse_variant(entry: dict, where: str, model: ModelConfig) -> VariantSpec:
    """One ``variants`` entry; ensemble keys are accepted only by ensembles."""
    _reject_unknown_keys(entry, _VARIANT_KEYS + _ENSEMBLE_KEYS, where)
    name = _require(entry, "name", where)
    # the name becomes a directory under checkpoints/
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(
            f"{where}: name must be a nonempty string without '/' or '\\' "
            f"and not '.' or '..', got {name!r}"
        )
    where = f"{where} {name!r}"
    kind = _require(entry, "kind", where)
    if kind not in ("single", "ensemble"):
        raise ConfigError(f"{where}: kind must be 'single' or 'ensemble', got {kind!r}")
    num_layers = entry.get("num_layers", 1)
    if type(num_layers) is not int or num_layers < 1:
        raise ConfigError(f"{where}: num_layers must be an integer >= 1, got {num_layers!r}")
    gated = entry.get("gated", False)
    if not isinstance(gated, bool):
        raise ConfigError(f"{where}: gated must be true or false, got {gated!r}")
    ensemble_keys = {key: entry[key] for key in _ENSEMBLE_KEYS if key in entry}
    if kind == "single":
        if ensemble_keys:
            raise ConfigError(f"{where}: {sorted(ensemble_keys)} apply only to kind 'ensemble'")
        return VariantSpec(name=name, num_layers=num_layers, gated=gated)
    if "member_shuffle_seeds" not in ensemble_keys:
        raise ConfigError(f"{where}: ensembles must state member_shuffle_seeds explicitly")
    try:
        ensemble = EnsembleConfig(
            member_model_config=replace(model, num_layers=num_layers), **ensemble_keys
        )
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None
    return VariantSpec(name=name, num_layers=num_layers, ensemble=ensemble, gated=gated)


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
    evaluation: Evaluation
    timing: TimingRecord
    runs: list[TrainRun] = field(repr=False)


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

    comparison = compare_report([(r.name, r.evaluation.metrics, r.timing) for r in results])
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
    if variant.ensemble is None:
        predictor = init_model(member_config)
        prefix = f"variant={variant.name} "
        runs = [train(predictor, train_set, val_set, train_config, stream, prefix)]
    else:
        predictor, runs = train_ensemble(
            train_set,
            val_set,
            replace(variant.ensemble, member_model_config=member_config),
            train_config,
            log_stream=stream,
        )
    save_checkpoint(predictor, run_dir / "checkpoints" / variant.name, vocab)
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
        "variants": {r.name: _metrics_entry(r) for r in results},
        "pairs": [p.as_dict() for p in comparison.pairs],
        "skipped_gated": skipped,
    }
    (run_dir / "metrics.json").write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    timing_doc = {
        r.name: {
            **r.timing.as_dict(),
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


def _metrics_entry(result: VariantResult) -> dict:
    """A variant's ``metrics.json`` entry; only an ensemble's evaluation
    adds the member fields."""
    evaluation = result.evaluation
    entry = {"kind": result.kind, **evaluation.metrics.as_dict()}
    if evaluation.member_accuracies is not None:
        entry["member_val_accuracies"] = evaluation.member_accuracies
        entry["disagreement_count"] = evaluation.disagreement_count
    return entry


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
