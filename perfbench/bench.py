"""Rounds, timing, output checks and the result line (see run.py)."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import minibert.cli
import reference
import tracing
import workloads as wl
from reference import CheckFailure

MIN_ROUNDS = 2


@dataclass
class Op:
    """One ``minibert`` invocation: wall seconds and what it left behind."""

    argv: list[str]
    seconds: float = 0.0
    faults: int = 0
    ok: bool = False
    error: str = ""
    stdout: str = ""


@dataclass
class Round:
    seconds: float = 0.0
    traced: bool = False
    runs: dict[str, Op] = field(default_factory=dict)  # variant -> run op
    evals: dict[str, Op] = field(default_factory=dict)  # variant -> eval op
    run_dirs: dict[str, Path] = field(default_factory=dict)
    layer_metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return list(self.runs.values()) + list(self.evals.values())


def invoke(argv: list[str]) -> Op:
    """Call the CLI entry point with captured output.  Any exception is the
    operation's failure, recorded with its traceback."""
    op = Op(argv)
    out, err = io.StringIO(), io.StringIO()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = minibert.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    op.seconds = time.perf_counter() - start
    op.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    op.ok = code == 0
    op.stdout = out.getvalue()
    if not op.ok:
        op.error = f"{' '.join(argv[:1])} exited {code}: {err.getvalue().strip()[-2000:]}"
    return op


def single_run_dir(output_dir: Path) -> Path:
    found = sorted(output_dir.glob("run-*"))
    if len(found) != 1:
        raise CheckFailure(f"{output_dir}: expected one run directory, found {[p.name for p in found]}")
    return found[0]


def run_round(workload: wl.Workload, inputs: wl.Inputs, directory: Path, traced: bool) -> Round:
    rnd = Round(traced=traced)
    start = time.perf_counter()
    for variant in wl.VARIANTS:
        out = directory / variant
        op = invoke(["run", str(inputs.configs[variant]), "--output-dir", str(out), "--quiet"])
        rnd.runs[variant] = op
        if op.ok:
            rnd.run_dirs[variant] = single_run_dir(out)
    for variant in wl.VARIANTS:
        run_dir = rnd.run_dirs.get(variant)
        if run_dir is None:
            rnd.evals[variant] = Op(["eval"], error=f"no checkpoint: run of {variant} failed")
            continue
        checkpoint = run_dir / "checkpoints" / variant
        rnd.evals[variant] = invoke(["eval", str(checkpoint), str(inputs.held_out_csv), "--json"])
    rnd.seconds = time.perf_counter() - start
    return rnd


def set_up(workload: wl.Workload, seed: int, directory: Path) -> tuple[float, wl.Inputs]:
    """Write the workload's inputs and finish the program's lazy set-up
    with a tiny run and eval.  Returns the wall time and the inputs."""
    start = time.perf_counter()
    inputs = wl.prepare(workload, seed, directory / "inputs")
    warmup = directory / "warmup"
    warmup.mkdir()
    op = invoke(["run", str(wl.warmup_config(warmup)), "--output-dir", str(warmup), "--quiet"])
    if op.ok:
        run_dir = single_run_dir(warmup)
        op = invoke(["eval", str(run_dir / "checkpoints" / wl.DEEP), str(run_dir / "val.csv"), "--json"])
    if not op.ok:
        raise RuntimeError(f"warm-up failed: {op.error}")
    return time.perf_counter() - start, inputs


def input_bytes(inputs: wl.Inputs) -> dict[str, bytes]:
    paths = [*inputs.configs.values(), inputs.held_out_csv] + ([inputs.corpus_csv] if inputs.corpus_csv else [])
    # configs name their corpus by absolute path, which differs per set-up
    return {p.name: p.read_bytes().replace(str(p.parent).encode(), b"<inputs>") for p in paths}


# -- output checks ---------------------------------------------------------------


def parse_losses(log: str) -> dict[str, list[float]]:
    """Per-epoch mean losses from a run's train_log.txt, per training run."""
    losses: dict[str, list[float]] = {}
    for line in log.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if "epoch" in fields:
            who = fields.get("member", fields.get("variant"))
            losses.setdefault(who, []).append(float(fields["mean_loss"]))
    return losses


def check_training(workload: wl.Workload, variant: str, run_dir: Path) -> None:
    losses = parse_losses((run_dir / "train_log.txt").read_text(encoding="utf-8"))
    expected_runs = 3 if variant == wl.ENSEMBLE else 1
    if len(losses) != expected_runs:
        raise CheckFailure(f"{run_dir}: expected {expected_runs} training logs, found {sorted(losses)}")
    for who, series in losses.items():
        if len(series) != workload.epochs:
            raise CheckFailure(f"{run_dir}: {who} logged {len(series)} epochs, expected {workload.epochs}")
        if not series[-1] < series[0]:
            raise CheckFailure(f"{run_dir}: {who} last-epoch loss {series[-1]} not below first {series[0]}")
        if not series[-1] < math.log(wl.NUM_CLASSES):
            raise CheckFailure(f"{run_dir}: {who} last-epoch loss {series[-1]} not below ln(classes)")


def check_split(workload: wl.Workload, inputs: wl.Inputs, run_dir: Path) -> list[tuple[str, int]]:
    """The run's split files follow the documented rule; returns val rows."""
    train_rows = wl.read_csv(run_dir / "train.csv")
    val_rows = wl.read_csv(run_dir / "val.csv")
    if len(val_rows) != workload.val_size or len(train_rows) + len(val_rows) != workload.corpus_texts:
        raise CheckFailure(
            f"{run_dir}: split {len(train_rows)}/{len(val_rows)}, expected "
            f"{workload.corpus_texts - workload.val_size}/{workload.val_size}"
        )
    if inputs.corpus_csv is not None:
        records = wl.read_csv(inputs.corpus_csv)
        order = np.random.default_rng(wl.SPLIT_SEED).permutation(len(records))
        n_train = len(records) - workload.val_size
        if [records[i] for i in order[:n_train]] != train_rows or [records[i] for i in order[n_train:]] != val_rows:
            raise CheckFailure(f"{run_dir}: split rows differ from the seeded permutation of the corpus")
    else:
        for text, label in train_rows + val_rows:
            words = text.split()
            if not 5 <= len(words) <= 12 or any(
                not (w.startswith(f"class{label}tok") or w.startswith("shared")) for w in words
            ):
                raise CheckFailure(f"{run_dir}: text {text!r} does not fit the class-{label} synthetic spec")
    return val_rows


def check_accuracy(value: float, where: str) -> None:
    floor = 1.0 / wl.NUM_CLASSES + wl.CHANCE_MARGIN
    if value < floor:
        raise CheckFailure(f"{where}: accuracy {value} below chance + margin ({floor})")


def check_first_run(workload: wl.Workload, inputs: wl.Inputs, rnd: Round, variant: str, held_out) -> int:
    """Full checks of one run and its eval; returns near ties allowed for."""
    run_dir = rnd.run_dirs[variant]
    doc = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    report = doc["variants"][variant]
    where = f"{workload.name} run {variant}"
    counts = reference.check_report(report, workload.val_size, wl.NUM_CLASSES, where)
    check_accuracy(report["accuracy"], where)
    check_training(workload, variant, run_dir)
    val_rows = check_split(workload, inputs, run_dir)
    checkpoint = run_dir / "checkpoints" / variant
    texts = [t for t, _ in val_rows]
    labels = np.array([label for _, label in val_rows])
    ref = reference.predict(checkpoint, texts)
    ties = reference.check_against_reference(
        counts, report.get("member_val_accuracies"), report.get("disagreement_count"), ref, labels, where
    )

    op = rnd.evals[variant]
    if not op.ok:
        return ties
    payload = json.loads(op.stdout)
    where = f"{workload.name} eval {variant}"
    counts = reference.check_report(payload["metrics"], len(held_out), wl.NUM_CLASSES, where)
    check_accuracy(payload["metrics"]["accuracy"], where)
    ref = reference.predict(checkpoint, [t for t, _ in held_out])
    labels = np.array([label for _, label in held_out])
    return ties + reference.check_against_reference(
        counts, payload.get("member_accuracies"), payload.get("disagreement_count"), ref, labels, where
    )


def eval_result(op: Op) -> str:
    payload = json.loads(op.stdout)
    return json.dumps({k: v for k, v in payload.items() if k not in ("checkpoint", "corpus")}, sort_keys=True)


def check_outputs(workload: wl.Workload, inputs: wl.Inputs, rounds: list[Round]) -> tuple[list[str], int]:
    """Every check over every successful operation; returns (failures, near ties)."""
    failures: list[str] = []
    ties = 0
    held_out = wl.read_csv(inputs.held_out_csv)
    for variant in wl.VARIANTS:
        done = [r for r in rounds if variant in r.run_dirs]
        if not done:
            continue
        try:
            ties += check_first_run(workload, inputs, done[0], variant, held_out)
            first_metrics = (done[0].run_dirs[variant] / "metrics.json").read_bytes()
            evals = [r.evals[variant] for r in done if r.evals[variant].ok]
            for rnd in done[1:]:
                if (rnd.run_dirs[variant] / "metrics.json").read_bytes() != first_metrics:
                    raise CheckFailure(f"{workload.name} run {variant}: metrics.json differs between rounds")
            if len({eval_result(op) for op in evals}) > 1:
                raise CheckFailure(f"{workload.name} eval {variant}: results differ between rounds")
        except (CheckFailure, KeyError, ValueError, OSError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    return failures, ties


# -- tracing ---------------------------------------------------------------------


def expected_spans(workload: wl.Workload) -> tuple[dict[str, int], set[str]]:
    """Span call counts each traced round must show, and spans that must fire."""
    exact = {"cli.main": 4, "experiment.run": 2, "training.train": 4, "ensemble.train": 1,
             "tokenizer.build_vocab": 2}
    fired = set(tracing.span_names())
    if workload.csv_corpus:
        fired.discard("corpus.generate")
    if workload.voting != "average_probability":
        fired.discard("model.predict_proba")
    return exact, fired


def traced_round(workload: wl.Workload, inputs: wl.Inputs, directory: Path) -> Round:
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        rnd = run_round(workload, inputs, directory, traced=True)
    finally:
        patch.restore()
    if all(op.ok for op in rnd.ops):
        tracer.check_calls(*expected_spans(workload))
    rnd.layer_metrics = tracer.metrics()
    return rnd


# -- environment and result --------------------------------------------------------


def environment(settings: dict) -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "settings": settings,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def end_to_end(setups, rounds, rss_mb, eval_size) -> dict[str, tuple[float, str]]:
    first = {v: next((r for r in rounds if v in r.run_dirs), None) for v in wl.VARIANTS}

    def val_accuracy(variant):
        rnd = first[variant]
        doc = json.loads((rnd.run_dirs[variant] / "metrics.json").read_text(encoding="utf-8"))
        return doc["variants"][variant]["accuracy"]

    def median_seconds(kind, variant):
        return statistics.median(getattr(r, kind)[variant].seconds for r in rounds if getattr(r, kind)[variant].ok)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "ensemble_run_s": (median_seconds("runs", wl.ENSEMBLE), "s"),
        "deep_run_s": (median_seconds("runs", wl.DEEP), "s"),
        "ensemble_val_accuracy": (val_accuracy(wl.ENSEMBLE), "ratio"),
        "deep_val_accuracy": (val_accuracy(wl.DEEP), "ratio"),
        "ensemble_eval_examples_per_s": (eval_size / median_seconds("evals", wl.ENSEMBLE), "examples/s"),
        "deep_eval_examples_per_s": (eval_size / median_seconds("evals", wl.DEEP), "examples/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    names = traced[0].layer_metrics
    out = {
        name: (statistics.median(r.layer_metrics[name][0] for r in traced), unit)
        for name, (_, unit) in names.items()
    }
    overhead = statistics.median(r.seconds for r in traced) - statistics.median(r.seconds for r in plain)
    out["trace.overhead_s"] = (overhead, "s")
    # Page faults of the untraced rounds: the pinned allocator hides most of
    # the cost of allocation churn from the timings, not from these counts.
    for kind in ("runs", "evals"):
        faults = statistics.median(sum(op.faults for op in getattr(r, kind).values()) for r in plain)
        out[f"process.{kind[:-1]}_minor_faults"] = (faults, "count")
    return out


def run(workload_name: str, seed: int, seconds: int, trace: bool, output_root: Path, settings: dict) -> int:
    workload = wl.WORKLOADS[workload_name]
    work = output_root / f"{workload_name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # Set-ups are spread over the run (one before the first round, one
        # after each round) so their median samples more than one moment of
        # the machine's drifting speed.
        setups: list[float] = []
        elapsed, inputs = set_up(workload, seed, work / "setup0")
        setups.append(elapsed)
        first_bytes = input_bytes(inputs)

        rounds: list[Round] = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            directory = work / f"round{len(rounds)}"
            if trace and len(rounds) % 2 == 1:
                rounds.append(traced_round(workload, inputs, directory))
            else:
                rounds.append(run_round(workload, inputs, directory, traced=False))
            elapsed, again = set_up(workload, seed, work / f"setup{len(rounds)}")
            setups.append(elapsed)
            if input_bytes(again) != first_bytes:
                raise RuntimeError("the same seed wrote different inputs in two set-ups")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ops = [op for r in rounds for op in r.ops]
        failed = [op for op in ops if not op.ok]
        for op in failed[:3]:
            print(f"failed operation: {op.error}", file=sys.stderr)
        failures, ties = check_outputs(workload, inputs, rounds)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        metrics = per_layer(rounds) if trace else end_to_end(setups, rounds, rss_mb, workload.held_out_rows)
    except (RuntimeError, AssertionError, OSError, ValueError, KeyError) as exc:
        traceback.print_exc()
        print(f"error: benchmark could not complete: {exc}", file=sys.stderr)
        return 2

    # ``correct`` speaks of the operations that completed; an operation that
    # raised or exited non-zero is counted in ``failed`` instead.
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(settings)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "near_ties": ties, "environment": env, "result": result,
        "setup_seconds": setups,
        "round_seconds": [r.seconds for r in rounds],
        "op_seconds": [{f"{kind} {variant}": op.seconds for kind, ops in (("run", r.runs), ("eval", r.evals))
                        for variant, op in ops.items()} for r in rounds],
        "op_minor_faults": [{f"{kind} {variant}": op.faults for kind, ops in (("run", r.runs), ("eval", r.evals))
                             for variant, op in ops.items()} for r in rounds],
    }
    (output_root / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    if result["correct"] and not failed:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"outputs kept for inspection under {work}", file=sys.stderr)
    print(json.dumps({"environment": env, "rounds": len(rounds), "near_ties": ties}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
