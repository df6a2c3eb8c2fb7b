"""Checks of the program's outputs against computations made apart from it.

The reference reads checkpoint files directly (``manifest.json``,
little-endian float32 ``params.bin``, ``vocab.txt``, ``ensemble.json``),
tokenizes with its own code, runs the classifier forward in float64
without padding (PAD keys get zero attention weight, so trimming them is
exact in real arithmetic) and votes with its own majority and average
rules.  It imports nothing from the program.

The program computes in float32, so an example whose reference decision
margin is below ``LOGIT_TIE`` (a member's top-two logit gap) or
``PROB_TIE`` (the top-two gap of mean member probabilities) may
legitimately land on the other side; such examples are near ties, and
the comparisons allow one differing decision per near tie.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOGIT_TIE = 1e-4
PROB_TIE = 1e-5

_CJK = re.compile(
    "([\u4e00-\u9fff\u3400-\u4dbf\U00020000-\U0002a6df\U0002a700-\U0002b73f"
    "\U0002b740-\U0002b81f\U0002b820-\U0002ceaf\uf900-\ufaff\U0002f800-\U0002fa1f])"
)


class CheckFailure(AssertionError):
    """The program's output disagrees with the benchmark's own computation."""


def tokens(text: str) -> list[str]:
    """CJK ideographs one per token; other whitespace-separated runs lowercased."""
    out = []
    for chunk in text.split():
        out.extend(piece if _CJK.fullmatch(piece) else piece.lower() for piece in _CJK.split(chunk) if piece)
    return out


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]  # float64
    vocab: list[str]


def read_checkpoint(directory: Path) -> Checkpoint:
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    flat = np.fromfile(directory / "params.bin", dtype="<f4").astype(np.float64)
    params, offset = {}, 0
    for entry in manifest["params"]:
        count = math.prod(entry["shape"])
        params[entry["name"]] = flat[offset : offset + count].reshape(entry["shape"])
        offset += count
    if offset != flat.size:
        raise CheckFailure(f"{directory}: params.bin holds {flat.size} values, manifest lists {offset}")
    vocab = (directory / manifest["vocab_file"]).read_text(encoding="utf-8").splitlines()
    return Checkpoint(manifest["config"], params, vocab)


def encode(texts: list[str], vocab: list[str], max_seq_len: int) -> list[np.ndarray]:
    """[CLS] + content ids (unknown -> [UNK], tail truncated) + [SEP], unpadded."""
    index = {tok: i for i, tok in enumerate(vocab)}
    cls, sep, unk = index["[CLS]"], index["[SEP]"], index["[UNK]"]
    return [
        np.array([cls] + [index.get(t, unk) for t in tokens(text)][: max_seq_len - 2] + [sep])
        for text in texts
    ]


def _layer_norm(x, gain, bias):
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def logits(model: Checkpoint, sequences: list[np.ndarray]) -> np.ndarray:
    """Class logits (N, C): summed embeddings, post-LN encoder layers with
    GELU feed-forward, tanh head over [CLS].  Sequences of one length run
    as one batch."""
    cfg, p = model.config, model.params
    heads, hidden = cfg["num_heads"], cfg["hidden_dim"]
    head_dim = hidden // heads
    out = np.empty((len(sequences), cfg["num_classes"]))
    lengths = np.array([len(s) for s in sequences])
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        ids = np.stack([sequences[i] for i in rows])
        x = p["embed.word"][ids] + p["embed.segment"][0] + p["embed.position"][:length]
        batch = len(rows)
        for layer in range(cfg["num_layers"]):
            w = {k[len(f"layer{layer}.") :]: v for k, v in p.items() if k.startswith(f"layer{layer}.")}

            def split(t):
                return t.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)

            q, k, v = (split(x @ w[n + "_w"] + w[n + "_b"]) for n in ("q", "k", "v"))
            scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(head_dim)
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, length, hidden)
            h = _layer_norm(x + context @ w["out_w"] + w["out_b"], w["ln1_g"], w["ln1_b"])
            ff = _gelu(h @ w["ff1_w"] + w["ff1_b"]) @ w["ff2_w"] + w["ff2_b"]
            x = _layer_norm(h + ff, w["ln2_g"], w["ln2_b"])
        pooled = np.tanh(x[:, 0] @ p["head.hidden_w"] + p["head.hidden_b"])
        out[rows] = pooled @ p["head.out_w"] + p["head.out_b"]
    return out


def _top_two_gap(values: np.ndarray) -> np.ndarray:
    ordered = np.sort(values, axis=-1)
    return ordered[..., -1] - ordered[..., -2]


def majority_vote(member_labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Most votes per example; ties go to the lowest class index."""
    counts = np.stack([(member_labels == c).sum(axis=0) for c in range(num_classes)], axis=1)
    return counts.argmax(axis=1)


def average_vote(member_probs: np.ndarray) -> np.ndarray:
    return member_probs.mean(axis=0).argmax(axis=1)


def disagreements(member_labels: np.ndarray) -> int:
    return int(np.sum(np.any(member_labels != member_labels[0], axis=0)))


@dataclass
class Prediction:
    """The reference's decisions over one corpus, with near-tie flags."""

    labels: np.ndarray
    near_tie: np.ndarray  # final decision may flip under float32
    member_labels: np.ndarray | None = None  # (M, N) for ensembles
    member_near_tie: np.ndarray | None = None  # (M, N)

    @property
    def disagreement_count(self) -> int:
        return disagreements(self.member_labels)


def predict(checkpoint_dir: Path, texts: list[str]) -> Prediction:
    """Reference prediction of a model or ensemble checkpoint directory."""
    manifest_path = checkpoint_dir / "ensemble.json"
    if not manifest_path.exists():
        model = read_checkpoint(checkpoint_dir)
        scores = logits(model, encode(texts, model.vocab, model.config["max_seq_len"]))
        return Prediction(scores.argmax(axis=1), _top_two_gap(scores) < LOGIT_TIE)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    member_scores = []
    for member_dir in manifest["members"]:
        model = read_checkpoint(checkpoint_dir / member_dir)
        member_scores.append(logits(model, encode(texts, model.vocab, model.config["max_seq_len"])))
    scores = np.stack(member_scores)
    member_labels = scores.argmax(axis=2)
    member_near = _top_two_gap(scores) < LOGIT_TIE
    if manifest["voting"] == "average_probability":
        probs = np.exp(scores - scores.max(axis=2, keepdims=True))
        probs /= probs.sum(axis=2, keepdims=True)
        labels = average_vote(probs)
        near = _top_two_gap(probs.mean(axis=0)) < PROB_TIE
    else:
        labels = majority_vote(member_labels, scores.shape[2])
        near = member_near.any(axis=0)
    return Prediction(labels, near, member_labels, member_near)


def confusion(predicted: np.ndarray, actual: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for a, p in zip(actual, predicted):
        counts[a, p] += 1
    return counts


def check_report(report: dict, expected_total: int, num_classes: int, where: str) -> np.ndarray:
    """A metrics block is a square count matrix over ``expected_total``
    examples whose accuracy is its trace over its total."""
    counts = np.asarray(report["confusion"])
    if counts.shape != (num_classes, num_classes) or counts.dtype.kind not in "iu" or counts.min() < 0:
        raise CheckFailure(f"{where}: confusion {report['confusion']} is not a {num_classes}x{num_classes} count matrix")
    if counts.sum() != expected_total:
        raise CheckFailure(f"{where}: confusion counts sum to {counts.sum()}, expected {expected_total}")
    if abs(report["accuracy"] - np.trace(counts) / counts.sum()) > 1e-12:
        raise CheckFailure(
            f"{where}: accuracy {report['accuracy']} != trace/total {np.trace(counts)}/{counts.sum()}"
        )
    return counts


def check_against_reference(
    counts: np.ndarray,
    member_accuracies: list[float] | None,
    disagreement_count: int | None,
    reference: Prediction,
    labels: np.ndarray,
    where: str,
) -> int:
    """The reported confusion, member accuracies and disagreement count
    follow from the reference decisions, apart from near ties.  Returns
    the number of near-tie examples allowed for."""
    ties = int(reference.near_tie.sum())
    expected = confusion(reference.labels, labels, counts.shape[0])
    off = int(np.abs(counts - expected).sum())
    if off > 2 * ties:
        raise CheckFailure(f"{where}: confusion {counts.tolist()} != reference {expected.tolist()} ({ties} near ties)")
    if reference.member_labels is None:
        return ties
    if member_accuracies is None or len(member_accuracies) != len(reference.member_labels):
        raise CheckFailure(f"{where}: expected {len(reference.member_labels)} member accuracies, got {member_accuracies}")
    any_tie = reference.member_near_tie.any(axis=0)
    for i, (reported, member, near) in enumerate(
        zip(member_accuracies, reference.member_labels, reference.member_near_tie)
    ):
        correct = int(np.sum(member == labels))
        if abs(reported * len(labels) - correct) > int(near.sum()) + 1e-6:
            raise CheckFailure(
                f"{where}: member {i} accuracy {reported} != reference {correct}/{len(labels)}"
            )
    if abs(disagreement_count - reference.disagreement_count) > int(any_tie.sum()):
        raise CheckFailure(
            f"{where}: disagreement count {disagreement_count} != reference {reference.disagreement_count}"
        )
    return int((reference.near_tie | any_tie).sum())
