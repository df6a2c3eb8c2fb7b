"""Command-line interface.

Commands:
  run <config.json>            train all configured variants and report
  eval <checkpoint> <corpus>   evaluate a saved model or ensemble on a CSV
  metrics <tn> <fp> <fn> <tp>  metrics calculator for raw confusion counts
  gen-synthetic <spec> <out>   write a synthetic corpus as CSV

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .corpus import load_csv, save_csv, generate_synthetic
from .ensemble import evaluate
from .errors import CheckpointError, ConfigError, CorpusError, read_json
from .evaluation import METRIC_NAMES, ConfusionMatrix, accuracy_per_minute, metrics, rounded
from .experiment import load_experiment_config, parse_synthetic_spec, run_experiment
from .tokenizer import encode
from .training import pin_allocator

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main`` to report; subcommand parsers share it."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minibert",
        description="Train, ensemble, and benchmark miniature text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config end to end")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("config", help="path to the experiment JSON config")
    run.add_argument("--output-dir", help="override the config's output directory")
    run.add_argument(
        "--gated",
        action="store_true",
        help="also train variants marked gated (e.g. deep stacks)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV corpus")
    ev.set_defaults(handler=_cmd_eval)
    ev.add_argument("checkpoint", help="checkpoint directory (model or ensemble)")
    ev.add_argument("corpus", help="CSV corpus with a text,label header")
    ev.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    me = sub.add_parser("metrics", help="metrics from raw binary confusion counts")
    me.set_defaults(handler=_cmd_metrics)
    me.add_argument("tn", type=int)
    me.add_argument("fp", type=int)
    me.add_argument("fn", type=int)
    me.add_argument("tp", type=int)
    me.add_argument("--minutes", type=float, help="also print accuracy per minute")

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic corpus CSV")
    gen.set_defaults(handler=_cmd_gen_synthetic)
    gen.add_argument("spec", help="JSON file describing the synthetic corpus")
    gen.add_argument("out", help="output CSV path")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that prints ``error:`` and picks
    the exit code."""
    pin_allocator()
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except (ConfigError, CorpusError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_run(args) -> None:
    config = load_experiment_config(args.config)
    if args.output_dir:
        config.output_dir = args.output_dir
    result = run_experiment(
        config,
        include_gated=args.gated,
        echo=None if args.quiet else sys.stdout,
    )
    for skipped in result.skipped_gated:
        print(f"skipped gated variant {skipped!r} (enable with --gated)")
    print(f"run artifacts written to {result.run_dir}")
    for variant in result.variants:
        accuracy = rounded(variant.evaluation.metrics.accuracy, 4)
        minutes = rounded(variant.timing.training_minutes, 2)
        print(f"  {variant.name}: accuracy={accuracy} minutes={minutes}")


def _cmd_eval(args) -> None:
    checkpoint = Path(args.checkpoint)
    corpus = load_csv(args.corpus)
    predictor, vocab, config = load_checkpoint(checkpoint)
    if corpus.num_classes > config.num_classes:
        raise CheckpointError(
            f"corpus has {corpus.num_classes} classes but the checkpoint "
            f"was trained for {config.num_classes}"
        )
    examples = [
        encode(text, vocab, config.max_seq_len, label) for text, label in corpus.records
    ]
    evaluation = evaluate(predictor, examples)
    report = evaluation.metrics

    payload: dict = {
        "checkpoint": str(checkpoint),
        "corpus": str(args.corpus),
        "metrics": report.as_dict(),
    }
    if evaluation.member_accuracies is not None:
        payload["member_accuracies"] = evaluation.member_accuracies
        payload["disagreement_count"] = evaluation.disagreement_count

    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return

    print(f"checkpoint: {checkpoint}")
    print(f"corpus:     {args.corpus} ({len(corpus)} examples)")
    _print_metrics(report, indent="  ")
    print(f"  confusion {report.confusion.counts.tolist()}")
    if "member_accuracies" in payload:
        joined = ", ".join(rounded(a, 4) for a in payload["member_accuracies"])
        print(f"  member accuracies: {joined}")
        print(f"  disagreements:     {payload['disagreement_count']}")


def _cmd_metrics(args) -> None:
    """Everything is computed, so every argument checked, before any output."""
    report = metrics(ConfusionMatrix.from_binary(args.tn, args.fp, args.fn, args.tp))
    if args.minutes is not None and args.minutes <= 0:
        raise ConfigError("--minutes must be positive")
    if args.minutes is not None and not math.isfinite(args.minutes):
        raise ConfigError(f"--minutes must be finite, got {args.minutes}")
    apm = None if args.minutes is None else accuracy_per_minute(report.accuracy, args.minutes)
    _print_metrics(report)
    if apm is not None:
        print(f"accuracy_per_minute {rounded(apm, 4)}")


def _print_metrics(report, indent: str = "") -> None:
    for name in METRIC_NAMES:
        flag = " (undefined)" if name in report.undefined else ""
        print(f"{indent}{name:<9} {rounded(report.value(name), 4)}{flag}")


def _cmd_gen_synthetic(args) -> None:
    spec = parse_synthetic_spec(read_json(args.spec), args.spec)
    corpus = generate_synthetic(spec)
    save_csv(corpus, args.out)
    print(f"wrote {len(corpus)} examples across {corpus.num_classes} classes to {args.out}")


if __name__ == "__main__":
    sys.exit(main())
