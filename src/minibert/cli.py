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
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .corpus import load_csv, save_csv, generate_synthetic
from .ensemble import evaluate
from .errors import CheckpointError, ConfigError, CorpusError, read_json
from .evaluation import METRIC_NAMES, ConfusionMatrix, accuracy_per_minute, metrics, round_half_up
from .experiment import load_experiment_config, parse_synthetic_spec, run_experiment
from .tokenizer import encode

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minibert",
        description="Train, ensemble, and benchmark miniature text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config end to end")
    run.add_argument("config", help="path to the experiment JSON config")
    run.add_argument("--output-dir", help="override the config's output directory")
    run.add_argument(
        "--gated",
        action="store_true",
        help="also train variants marked gated (e.g. deep stacks)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV corpus")
    ev.add_argument("checkpoint", help="checkpoint directory (model or ensemble)")
    ev.add_argument("corpus", help="CSV corpus with a text,label header")
    ev.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    me = sub.add_parser("metrics", help="metrics from raw binary confusion counts")
    me.add_argument("tn", type=int)
    me.add_argument("fp", type=int)
    me.add_argument("fn", type=int)
    me.add_argument("tp", type=int)
    me.add_argument("--minutes", type=float, help="also print accuracy per minute")

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic corpus CSV")
    gen.add_argument("spec", help="JSON file describing the synthetic corpus")
    gen.add_argument("out", help="output CSV path")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "gen-synthetic":
            return _cmd_gen_synthetic(args)
    except (ConfigError, CorpusError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    raise AssertionError("unreachable")


def _cmd_run(args) -> int:
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
        print(
            f"  {variant.name}: accuracy={variant.evaluation.metrics.accuracy:.4f} "
            f"minutes={variant.timing.training_minutes:.2f}"
        )
    return EXIT_OK


def _cmd_eval(args) -> int:
    checkpoint = Path(args.checkpoint)
    corpus = load_csv(args.corpus)
    predictor, vocab, config = load_checkpoint(checkpoint)
    if corpus.num_classes > config.num_classes:
        print(
            f"error: corpus has {corpus.num_classes} classes but the checkpoint "
            f"was trained for {config.num_classes}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
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
        return EXIT_OK

    print(f"checkpoint: {checkpoint}")
    print(f"corpus:     {args.corpus} ({len(corpus)} examples)")
    _print_metrics(report, indent="  ")
    print(f"  confusion {report.confusion.counts.tolist()}")
    if "member_accuracies" in payload:
        joined = ", ".join(f"{a:.4f}" for a in payload["member_accuracies"])
        print(f"  member accuracies: {joined}")
        print(f"  disagreements:     {payload['disagreement_count']}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    counts = (args.tn, args.fp, args.fn, args.tp)
    if any(c < 0 for c in counts):
        print("error: confusion counts must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if all(c == 0 for c in counts):
        print("error: confusion counts must not all be zero", file=sys.stderr)
        return EXIT_USAGE
    report = metrics(ConfusionMatrix.from_binary(*counts))
    _print_metrics(report)
    if args.minutes is not None:
        if args.minutes <= 0:
            print("error: --minutes must be positive", file=sys.stderr)
            return EXIT_USAGE
        apm = accuracy_per_minute(report.accuracy, args.minutes)
        print(f"accuracy_per_minute {round_half_up(apm, 4):.4f}")
    return EXIT_OK


def _print_metrics(report, indent: str = "") -> None:
    for name in METRIC_NAMES:
        flag = " (undefined)" if name in report.undefined else ""
        print(f"{indent}{name:<9} {round_half_up(report.value(name), 4):.4f}{flag}")


def _cmd_gen_synthetic(args) -> int:
    spec = parse_synthetic_spec(read_json(args.spec), args.spec)
    corpus = generate_synthetic(spec)
    save_csv(corpus, args.out)
    print(f"wrote {len(corpus)} examples across {corpus.num_classes} classes to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
