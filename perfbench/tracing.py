"""Spans around the program's layers, installed from outside the package.

Each wrapped function records a span (name, start, end, parent) on a
stack; a span's self time is its duration minus the time its child spans
cover.  Spans are aggregated as they close: per name the self time, the
total time of the outermost calls, the call count and the time spent
under each parent name.  Counters ride on the same wrappers.

The package binds many names with ``from .x import y`` (``experiment``
binds ``train``, ``encode``, ``save_model``; ``cli`` binds ``load_model``,
``load_csv``, ``accuracy`` ...).  ``install`` therefore replaces every
module attribute of the package that is the original function object,
and ``Tracer.check_calls`` makes a missed binding fail loudly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

TENSOR_OPS = (
    "matmul", "add", "mul", "take", "gelu", "softmax", "layer_norm",
    "tanh", "cross_entropy", "reshape", "transpose",
)

# (module, function, span name); functions are patched wherever bound.
FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("experiment", "run_experiment", "experiment.run"),
    ("corpus", "generate_synthetic", "corpus.generate"),
    ("corpus", "load_csv", "corpus.load_csv"),
    ("tokenizer", "build_vocab", "tokenizer.build_vocab"),
    ("tokenizer", "encode", "tokenizer.encode"),
    ("model", "init_model", "model.init"),
    ("training", "train", "training.train"),
    ("training", "accuracy", "training.accuracy"),
    ("training", "split_dataset", "training.split"),
    ("ensemble", "train_ensemble", "ensemble.train"),
    ("ensemble", "predict_ensemble", "ensemble.predict"),
    ("ensemble", "majority_vote", "ensemble.vote"),
    ("ensemble", "average_vote", "ensemble.vote"),
    ("evaluation", "confusion_matrix", "evaluation.confusion"),
    ("evaluation", "metrics", "evaluation.metrics"),
    ("evaluation", "compare_report", "evaluation.compare"),
    ("checkpoint", "save_model", "checkpoint.save"),
    ("checkpoint", "save_ensemble", "checkpoint.save"),
    ("checkpoint", "load_model", "checkpoint.load"),
    ("checkpoint", "load_ensemble", "checkpoint.load"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("model", "ClassifierModel", "forward", "model.forward"),
    ("model", "ClassifierModel", "predict", "model.predict"),
    ("model", "ClassifierModel", "predict_proba", "model.predict_proba"),
    ("training", "Adam", "step", "training.adam"),
    ("tensor", "Tensor", "backward", "tensor.backward"),
)

# Layers whose self time is reported as ``<layer>.self_s``; evaluation,
# experiment and cli report theirs under the names the layer list uses.
SELF_TIME_LAYERS = ("corpus", "tokenizer", "tensor", "model", "training", "ensemble", "checkpoint")

_CHECKPOINT_FILES = ("manifest.json", "params.bin", "vocab.txt")


def span_names() -> list[str]:
    names = [span for _, _, span in FUNCTION_SPANS] + [span for *_, span in METHOD_SPANS]
    names += [f"tensor.{op}.{way}" for op in TENSOR_OPS for way in ("fwd", "bwd")]
    return sorted(set(names))


class Tracer:
    """Span stack plus aggregates for one traced round."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child seconds]
        self._active: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.under: defaultdict[tuple[str, str | None], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ensemble_members: weakref.WeakSet = weakref.WeakSet()

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])
        self._active[name] += 1

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._active[name] -= 1
        self.self_s[name] += duration - child
        if not self._active[name]:
            self.total_s[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.under[(name, parent[0] if parent else None)] += duration
        self.calls[name] += 1

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".", 1)[0] == layer)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this round as name -> (value, unit)."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {
            "corpus.generate_s": (self.total_s["corpus.generate"], "s"),
            "corpus.load_csv_s": (self.total_s["corpus.load_csv"], "s"),
            "tokenizer.build_vocab_s": (self.total_s["tokenizer.build_vocab"], "s"),
            "tokenizer.encode_s": (self.total_s["tokenizer.encode"], "s"),
            "tokenizer.encode_calls": (self.calls["tokenizer.encode"], "count"),
            "tokenizer.content_tokens": (c["content_tokens"], "count"),
        }
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_s"] = (self.total_s[f"tensor.{op}.fwd"], "s")
            out[f"tensor.{op}.bwd_s"] = (self.total_s[f"tensor.{op}.bwd"], "s")
        positions = c["forward_positions"]
        member_examples = c["ensemble_member_examples"]
        out.update(
            {
                "tensor.backward.graph_s": (self.self_s["tensor.backward"], "s"),
                "tensor.grad_nodes_at_inference": (c["grad_nodes_at_inference"], "count"),
                "model.forward_s": (self.total_s["model.forward"], "s"),
                "model.forward_calls": (self.calls["model.forward"], "count"),
                "model.forward_rows": (c["forward_rows"], "count"),
                "model.real_token_fraction": (c["real_tokens"] / positions if positions else 0.0, "ratio"),
                "training.train_s": (self.total_s["training.train"], "s"),
                "training.forward_s": (self.under[("model.forward", "training.train")], "s"),
                "training.backward_s": (self.under[("tensor.backward", "training.train")], "s"),
                "training.adam_s": (self.total_s["training.adam"], "s"),
                "training.validation_s": (self.under[("training.accuracy", "training.train")], "s"),
                "training.batches": (self.calls["training.adam"], "count"),
                "ensemble.train_s": (self.total_s["ensemble.train"], "s"),
                "ensemble.predict_s": (self.total_s["ensemble.predict"], "s"),
                "ensemble.vote_s": (self.total_s["ensemble.vote"], "s"),
                "ensemble.member_forwards_per_eval": (
                    c["ensemble_member_rows"] / member_examples if member_examples else 0.0,
                    "ratio",
                ),
                "evaluation.metrics_s": (self.layer_self_s("evaluation"), "s"),
                "checkpoint.save_s": (self.total_s["checkpoint.save"], "s"),
                "checkpoint.load_s": (self.total_s["checkpoint.load"], "s"),
                "checkpoint.bytes": (c["checkpoint_bytes"], "bytes"),
                "experiment.run_s": (self.total_s["experiment.run"], "s"),
                "experiment.self_s": (self.layer_self_s("experiment"), "s"),
                "cli.main_s": (self.total_s["cli.main"], "s"),
                "cli.self_s": (self.layer_self_s("cli"), "s"),
            }
        )
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")
        return out

    def check_calls(self, exact: dict[str, int], fired: set[str]) -> None:
        """Spans in ``exact`` fired exactly as often as the round's operations
        imply and every span in ``fired`` fired at all, so a binding the
        patcher missed fails here instead of reading as zero."""
        wrong = {name: (self.calls[name], n) for name, n in exact.items() if self.calls[name] != n}
        silent = sorted(name for name in fired if not self.calls[name])
        if wrong or silent:
            raise AssertionError(f"span call counts (seen, expected): {wrong}; spans that never fired: {silent}")


def _checkpoint_bytes(directory) -> int:
    directory = Path(directory)
    return sum((directory / name).stat().st_size for name in _CHECKPOINT_FILES if (directory / name).exists())


class Patch:
    """Installed wrappers; ``restore`` puts every original back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper) -> int:
        """Point every package module attribute bound to ``original`` at
        ``wrapper``; returns how many bindings changed."""
        changed = 0
        for name, module in list(sys.modules.items()):
            if name != "minibert" and not name.startswith("minibert."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, wrapper)
                    changed += 1
        return changed

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Patch:
    """Wrap the package's layer entry points so they record into ``tracer``."""
    patch = Patch()
    modules = {name: importlib.import_module(f"minibert.{name}") for name in
               ("cli", "experiment", "corpus", "tokenizer", "model", "training",
                "ensemble", "evaluation", "checkpoint", "tensor")}

    def spanned(name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def count_encoded(example, *args, **kwargs):
        tracer.counts["content_tokens"] += sum(example.attention_mask) - 2

    def register_members(result, *args, **kwargs):
        ensemble = result[0]
        tracer.ensemble_members.update(ensemble.members)

    def count_member_examples(self_or_ensemble, examples):
        tracer.counts["ensemble_member_examples"] += len(examples) * len(self_or_ensemble.members)

    def count_saved(result, model, directory, vocab):
        tracer.counts["checkpoint_bytes"] += _checkpoint_bytes(directory)

    def count_loaded(result, directory):
        tracer.counts["checkpoint_bytes"] += _checkpoint_bytes(directory)

    hooks = {
        ("tokenizer", "encode"): (None, count_encoded),
        ("ensemble", "train_ensemble"): (None, register_members),
        ("checkpoint", "load_ensemble"): (None, register_members),
        ("ensemble", "predict_ensemble"): (count_member_examples, None),
        ("checkpoint", "save_model"): (None, count_saved),
        ("checkpoint", "load_model"): (None, count_loaded),
    }
    for module_name, fn_name, span in FUNCTION_SPANS:
        original = getattr(modules[module_name], fn_name)
        before, after = hooks.get((module_name, fn_name), (None, None))
        if not patch.rebind(original, spanned(span, original, before, after)):
            raise AssertionError(f"minibert.{module_name}.{fn_name} is bound nowhere")

    def count_forward(model, token_ids, segment_ids, attention_mask):
        rows = len(token_ids)
        attention_mask = np.asarray(attention_mask)
        tracer.counts["forward_rows"] += rows
        tracer.counts["forward_positions"] += attention_mask.size
        tracer.counts["real_tokens"] += int(attention_mask.sum())
        if model in tracer.ensemble_members and not tracer.inside("training.train"):
            tracer.counts["ensemble_member_rows"] += rows

    method_hooks = {"forward": count_forward}
    for module_name, cls_name, method, span in METHOD_SPANS:
        cls = getattr(modules[module_name], cls_name)
        original = getattr(cls, method)
        patch.replace(cls, method, spanned(span, original, method_hooks.get(method)))

    for op in TENSOR_OPS:
        original = getattr(modules["tensor"], op)
        if not patch.rebind(original, _traced_op(tracer, op, original)):
            raise AssertionError(f"minibert.tensor.{op} is bound nowhere")
    return patch


def _traced_op(tracer: Tracer, op: str, fn):
    fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

    def timed_vjp(vjp):
        def wrapper(grad):
            tracer.enter(bwd)
            try:
                return vjp(grad)
            finally:
                tracer.exit()

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if out._vjp is not None:
            out._vjp = timed_vjp(out._vjp)
            if tracer.inside("model.predict") or tracer.inside("model.predict_proba"):
                tracer.counts["grad_nodes_at_inference"] += 1
        return out

    return wrapper
