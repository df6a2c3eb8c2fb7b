"""The classifier: summed embeddings, a stack of bidirectional transformer
encoder layers, and a [CLS]-pooled MLP head.

Residual blocks use post-layer-norm ordering.  There is no dropout; given
fixed seeds every forward pass is bit-deterministic.

Inference (under ``tensor.no_grad()``) computes only what the logits
depend on: the last layer runs for the [CLS] query row alone and projects
no key or value at any position.  It folds the key weights into that
query, scores every position against the folded query, and applies the
value weights once to the attention-weighted sum of the layer's inputs.
``predict`` / ``predict_proba`` run examples shortest first in trimmed
chunks, each sized by one element budget for its widest activation, so
that wide texts and deep models take fewer rows per chunk, and the [CLS]
rows' products run as one batched matrix product per chunk.  Logits move
at float rounding level only, so a label can differ from the full layer's
only at a near-tie.  Training keeps every layer at every position, so
trained weights stay bit for bit, and so does the cost of the ensemble's
and the deep model's training steps: for a 1-layer member the last layer
is nearly the whole encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import tensor as T
from .errors import ConfigError, at_least, check_types
from .tokenizer import EncodedExample

ATTENTION_MASK_BIAS = -1e9
# elements of the widest activation one no-grad forward in predict /
# predict_proba holds: rows x trimmed width x ``_position_width`` (1 MiB of
# float32)
PREDICT_ELEMENTS = 1024 * 256


@dataclass
class ModelConfig:
    """Hyperparameters defining one classifier's shape and initialization."""

    vocab_size: Annotated[int, at_least(1)]
    hidden_dim: Annotated[int, at_least(1)] = 64
    num_layers: Annotated[int, at_least(1)] = 1
    num_heads: Annotated[int, at_least(1)] = 2
    ff_dim: Annotated[int, at_least(1)] = 256
    max_seq_len: Annotated[int, at_least(1)] = 64
    num_classes: Annotated[int, at_least(2)] = 2
    init_seed: int = 0
    init_scale: Annotated[float, at_least(0)] = 0.02

    def __post_init__(self):
        check_types(type(self), vars(self))
        if self.hidden_dim % self.num_heads:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map for every trainable parameter."""
    h, f = config.hidden_dim, config.ff_dim
    shapes: dict[str, tuple[int, ...]] = {
        "embed.word": (config.vocab_size, h),
        "embed.segment": (2, h),
        "embed.position": (config.max_seq_len, h),
    }
    for i in range(config.num_layers):
        p = f"layer{i}."
        shapes.update(
            {
                p + "q_w": (h, h), p + "q_b": (h,),
                p + "k_w": (h, h), p + "k_b": (h,),
                p + "v_w": (h, h), p + "v_b": (h,),
                p + "out_w": (h, h), p + "out_b": (h,),
                p + "ln1_g": (h,), p + "ln1_b": (h,),
                p + "ff1_w": (h, f), p + "ff1_b": (f,),
                p + "ff2_w": (f, h), p + "ff2_b": (h,),
                p + "ln2_g": (h,), p + "ln2_b": (h,),
            }
        )
    shapes.update(
        {
            "head.hidden_w": (h, h),
            "head.hidden_b": (h,),
            "head.out_w": (h, config.num_classes),
            "head.out_b": (config.num_classes,),
        }
    )
    return shapes


def parameter_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in parameter_shapes(config).values())


def init_model(config: ModelConfig, dtype=np.float32) -> "ClassifierModel":
    """Seeded initialization: weights ~ normal(0, init_scale), biases zero,
    layer-norm gains one.  The same config and seed reproduce the model
    bit for bit."""
    rng = np.random.default_rng(config.init_seed)
    model = ClassifierModel(config, np.zeros(parameter_count(config), dtype=dtype))
    for name, p in model.params.items():
        if name.endswith("_g"):
            p.data[...] = 1.0
        elif not name.endswith("_b"):
            p.data[...] = rng.normal(0.0, config.init_scale, size=p.shape)
    return model


class ClassifierModel:
    """One trained or trainable classifier: embeddings, encoder stack, head.

    Each ``params[name].data`` is a view into one 1-D array, ``flat``, in
    ``parameter_shapes`` order, and each ``params[name].grad`` the same
    slice of ``grad``, a zeroed array of ``flat``'s dtype and length.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        count = parameter_count(config)
        # any other dtype would make each Tensor a float32 copy, not a view
        if flat.shape != (count,) or flat.dtype not in (np.float32, np.float64):
            raise ConfigError(f"flat is {flat.dtype} {flat.shape}, expected float ({count},)")
        self.config = config
        self.flat = flat
        self.grad = np.zeros_like(flat)
        self.params: dict[str, T.Tensor] = {}
        end = 0
        for name, shape in parameter_shapes(config).items():
            start, end = end, end + math.prod(shape)
            param = T.Tensor(flat[start:end].reshape(shape), requires_grad=True)
            param.grad = self.grad[start:end].reshape(shape)
            self.params[name] = param

    def named_parameters(self) -> list[tuple[str, T.Tensor]]:
        return list(self.params.items())

    def zero_grad(self) -> None:
        self.grad.fill(0)

    # -- forward pieces --------------------------------------------------

    def embed(self, token_ids: np.ndarray, segment_ids: np.ndarray) -> T.Tensor:
        """Sum of word, segment, and position embeddings, shape (B, S, H)."""
        token_ids = np.asarray(token_ids)
        segment_ids = np.asarray(segment_ids)
        if token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size:
            raise ValueError(
                f"token id out of range [0, {self.config.vocab_size}): "
                f"{int(token_ids.min())}..{int(token_ids.max())}"
            )
        if segment_ids.min() < 0 or segment_ids.max() > 1:
            raise ValueError("segment ids must be 0 or 1")
        seq_len = token_ids.shape[-1]
        if seq_len > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}"
            )
        words = self.params["embed.word"][token_ids]
        segments = self.params["embed.segment"][segment_ids]
        positions = self.params["embed.position"][0:seq_len]
        return words + segments + positions

    def encoder_layer(
        self,
        x: T.Tensor,
        attention_mask: np.ndarray,
        layer_index: int,
        query_rows: int | None = None,
    ) -> T.Tensor:
        """One post-layer-norm residual block over (B, S, H) activations.

        Attention scores are scaled by 1/sqrt(head_dim); PAD key positions
        receive a -1e9 additive bias inside the softmax, so in float32 they
        carry exactly zero weight.  That is what lets ``trim_padding`` cut a
        batch to its longest real sequence before it reaches the encoder
        without changing any result.

        With ``query_rows=1`` the block returns the [CLS] position alone,
        shape (B, 1, H), and forms no key or value at any position.  Per
        head h, with query q_h and key and value weights k_w,h and v_w,h
        (the head's columns), the score of position j is
        x_j . (k_w,h q_h) + q_h . k_b,h, and the second term, the same for
        every j, cancels in the softmax; the context is
        (sum_j p_j x_j) v_w,h + v_b,h, as the weights p sum to one.  So
        the block projects only the [CLS] query, and the attention, the
        output projection, both layer norms and the feed-forward run on
        that one row, with logits equal to the full layer's up to float
        rounding.
        """
        cfg = self.config
        p = self.params
        pre = f"layer{layer_index}."
        if query_rows not in (None, 1):
            raise ValueError(f"query_rows must be None or 1, got {query_rows}")
        batch, seq, hidden = x.shape
        nh, hd = cfg.num_heads, cfg.head_dim
        mask = np.asarray(attention_mask, dtype=x.dtype).reshape(batch, 1, seq)
        mask_bias = (1.0 - mask) * ATTENTION_MASK_BIAS
        scale = 1.0 / math.sqrt(hd)

        if query_rows is None:
            queries = x

            def split_heads(t: T.Tensor) -> T.Tensor:
                return t.reshape(batch, seq, nh, hd).transpose(0, 2, 1, 3)

            q = split_heads(T.matmul(x, p[pre + "q_w"], p[pre + "q_b"]))
            k = split_heads(T.matmul(x, p[pre + "k_w"], p[pre + "k_b"]))
            v = split_heads(T.matmul(x, p[pre + "v_w"], p[pre + "v_b"]))
            scores = (q @ k.swapaxes(-1, -2)) * scale
            weights = T.softmax(scores, axis=-1, bias=mask_bias.reshape(batch, 1, 1, seq))
            context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, seq, hidden)
        else:
            queries = x[:, :1, :]
            # each operand leads with its batch axis, heads or rows, so every
            # product below is one batched matrix product
            q = T.matmul(queries, p[pre + "q_w"], p[pre + "q_b"])
            q = q.reshape(batch, nh, hd).transpose(1, 0, 2)
            # (heads, hd, H) and (heads, H, hd): each head's key and value columns
            k_w = p[pre + "k_w"].reshape(hidden, nh, hd).transpose(1, 2, 0)
            v_w = p[pre + "v_w"].reshape(hidden, nh, hd).transpose(1, 0, 2)
            folded = (q @ k_w).transpose(1, 0, 2)  # (B, heads, H)
            scores = (folded @ x.transpose(0, 2, 1)) * scale
            weights = T.softmax(scores, axis=-1, bias=mask_bias)
            pooled = (weights @ x).transpose(1, 0, 2)  # (heads, B, H)
            context = (pooled @ v_w).transpose(1, 0, 2).reshape(batch, 1, hidden)
            context = context + p[pre + "v_b"]
        attended = T.matmul(context, p[pre + "out_w"], p[pre + "out_b"])
        h = T.layer_norm(queries, p[pre + "ln1_g"], p[pre + "ln1_b"], residual=attended)

        ff = T.gelu(T.matmul(h, p[pre + "ff1_w"], p[pre + "ff1_b"]))
        ff = T.matmul(ff, p[pre + "ff2_w"], p[pre + "ff2_b"])
        return T.layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"], residual=ff)

    def encode(
        self,
        token_ids: np.ndarray,
        segment_ids: np.ndarray,
        attention_mask: np.ndarray,
        last_query_rows: int | None = None,
    ) -> T.Tensor:
        """Run the encoder stack; returns hidden states (B, S, H), or the
        [CLS] row alone, (B, 1, H), when ``last_query_rows`` is 1."""
        x = self.embed(token_ids, segment_ids)
        last = self.config.num_layers - 1
        for i in range(self.config.num_layers):
            x = self.encoder_layer(x, attention_mask, i, last_query_rows if i == last else None)
        return x

    def forward(
        self, token_ids: np.ndarray, segment_ids: np.ndarray, attention_mask: np.ndarray
    ) -> T.Tensor:
        """Class logits (B, C) from the [CLS] hidden state through the head.

        Under ``tensor.no_grad()`` the last layer computes the [CLS] row
        alone, the only row the head reads; its logits differ from the
        full layer's at float rounding level only.  With autodiff on, as
        in training, every layer runs at every position.
        """
        hidden = self.encode(
            token_ids, segment_ids, attention_mask, None if T.grad_enabled() else 1
        )
        cls = hidden[:, 0, :]
        pooled = T.tanh(T.matmul(cls, self.params["head.hidden_w"], self.params["head.hidden_b"]))
        return T.matmul(pooled, self.params["head.out_w"], self.params["head.out_b"])

    # -- batched inference ------------------------------------------------

    def logits(self, examples: list[EncodedExample]) -> T.Tensor:
        """Class logits for a list of examples, trimmed to its longest one."""
        return self.forward(*trim_padding(*stack_examples(examples)))

    def predict(self, examples: list[EncodedExample] | StackedExamples) -> np.ndarray:
        """Predicted class indices: the argmax of each ``predict_proba`` row,
        the first index on a tie.  Logits closer than the softmax resolves
        (about 4e-8 in float32) tie there.  Builds no graph."""
        out = np.empty(len(examples), dtype=np.int64)
        return self._fill(
            out, examples, lambda logits: np.argmax(T.softmax(logits, axis=-1).data, axis=1)
        )

    def predict_proba(self, examples: list[EncodedExample] | StackedExamples) -> np.ndarray:
        """Per-class probabilities, softmax of the logits, shape (N, C);
        builds no graph."""
        out = np.empty((len(examples), self.config.num_classes), dtype=np.float64)
        return self._fill(out, examples, lambda logits: T.softmax(logits, axis=-1).data)

    def _position_width(self, width):
        """Elements per padded position of the widest activation a no-grad
        forward holds at trimmed ``width`` (an int or an array of them).

        A full-width layer holds the feed-forward's ``ff_dim``, the
        ``hidden_dim`` projections and ``num_heads`` attention scores per
        key.  A lone [CLS]-only layer projects nothing at every position,
        so a 1-layer model's widest per-position array is its embedding
        sum, ``hidden_dim`` wide.
        """
        cfg = self.config
        if cfg.num_layers == 1:
            return cfg.hidden_dim
        return np.maximum(max(cfg.ff_dim, cfg.hidden_dim), cfg.num_heads * width)

    def _fill(self, out: np.ndarray, examples, head) -> np.ndarray:
        """Write ``head(logits)`` row by row into ``out``, in input order.

        Examples run shortest first, so each trimmed chunk holds texts of
        similar length and little padding.  Each chunk grows greedily while
        rows x width x ``_position_width(width)`` stays within
        ``PREDICT_ELEMENTS``, where width is the one ``trim_padding`` cuts
        the chunk to; a row over that budget runs alone.  A row with no
        attended position counts at full width, as ``trim_padding`` leaves
        it.
        """
        if not len(examples):
            return out
        inputs = as_stacked(examples)
        ids, segs, mask = inputs.token_ids, inputs.segment_ids, inputs.attention_mask
        order = np.argsort(mask.sum(axis=1), kind="stable")
        # each row's width after trimming: one past its last attended column
        widths = (mask.shape[1] - np.argmax(mask[:, ::-1] != 0, axis=1))[order]
        start = 0
        with T.no_grad():
            while start < len(order):
                # every chunk is at least as wide as its first row, which
                # bounds how many rows can fit
                first = widths[start]
                most = max(1, PREDICT_ELEMENTS // int(first * self._position_width(first)))
                # elements of the chunk's first k rows, nondecreasing in k
                grown = np.maximum.accumulate(widths[start : start + most])
                cost = np.arange(1, len(grown) + 1) * grown * self._position_width(grown)
                end = start + max(1, int(np.count_nonzero(cost <= PREDICT_ELEMENTS)))
                rows = order[start:end]
                out[rows] = head(self.forward(*trim_padding(ids[rows], segs[rows], mask[rows])))
                start = end
        return out


def stack_examples(
    examples: list[EncodedExample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack encoded examples into (token_ids, segment_ids, attention_mask);
    the mask is 1 on each example's first ``length`` positions, and every
    segment id is 0."""
    if not examples:
        raise ValueError("cannot stack an empty batch")
    ids = np.asarray([e.token_ids for e in examples], dtype=np.int64)
    lengths = np.fromiter((e.length for e in examples), dtype=np.int64, count=len(examples))
    mask = (np.arange(ids.shape[1]) < lengths[:, None]).astype(np.int64)
    return ids, np.zeros_like(ids), mask


@dataclass(frozen=True)
class StackedExamples:
    """Labelled examples stacked into arrays once, so that several
    predictions over the same examples (ensemble members, epochs of
    validation) share one copy."""

    token_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def as_stacked(examples: list[EncodedExample] | StackedExamples) -> StackedExamples:
    """``examples`` stacked once; already stacked examples are returned as given."""
    if isinstance(examples, StackedExamples):
        return examples
    return StackedExamples(*stack_examples(examples), example_labels(examples))


def trim_padding(
    token_ids: np.ndarray, segment_ids: np.ndarray, attention_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the trailing columns that are padding in every row of a batch.

    The batch is cut just past the last column any row attends to, so
    interior zeros of the mask stay.  The cut is exact: PAD keys get zero
    attention weight and PAD rows never reach [CLS], so logits, losses and
    gradients are those of the full-width batch (up to float rounding, as
    BLAS blocks differently on smaller matrices).  A mask with no nonzero
    entry is returned at full width.
    """
    used = np.asarray(attention_mask).any(axis=0)
    width = len(used) - int(np.argmax(used[::-1]))
    return token_ids[:, :width], segment_ids[:, :width], attention_mask[:, :width]


def example_labels(examples: list[EncodedExample]) -> np.ndarray:
    return np.asarray([e.label for e in examples], dtype=np.int64)
