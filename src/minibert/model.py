"""The classifier: summed embeddings, a stack of bidirectional transformer
encoder layers, and a [CLS]-pooled MLP head, plus the masked-language-model
corruption procedure used for optional pretraining.

Residual blocks use post-layer-norm ordering.  There is no dropout; given
fixed seeds every forward pass is bit-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tokenizer import (
    MASK_ID,
    NUM_SPECIAL_TOKENS,
    PAD_ID,
    EncodedExample,
    Vocabulary,
)

ATTENTION_MASK_BIAS = -1e9


@dataclass
class ModelConfig:
    """Hyperparameters defining one classifier's shape and initialization."""

    vocab_size: int
    hidden_dim: int = 64
    num_layers: int = 1
    num_heads: int = 2
    ff_dim: int = 256
    max_seq_len: int = 64
    num_classes: int = 2
    init_seed: int = 0
    init_scale: float = 0.02

    def __post_init__(self):
        counts = {
            "vocab_size": self.vocab_size,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "ff_dim": self.ff_dim,
            "max_seq_len": self.max_seq_len,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.hidden_dim % self.num_heads:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.init_scale < 0:
            raise ConfigError(f"init_scale must be >= 0, got {self.init_scale}")

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
    params: dict[str, T.Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("_g"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith("_b"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, config.init_scale, size=shape).astype(dtype)
        params[name] = T.Tensor(data, requires_grad=True)
    return ClassifierModel(config, params)


class ClassifierModel:
    """One trained or trainable classifier: embeddings, encoder stack, head."""

    def __init__(self, config: ModelConfig, params: dict[str, T.Tensor]):
        expected = parameter_shapes(config)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ConfigError(f"parameter names mismatch: missing {missing}, extra {extra}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ConfigError(
                    f"parameter {name} has shape {params[name].shape}, expected {shape}"
                )
        self.config = config
        self.params = params

    def named_parameters(self) -> list[tuple[str, T.Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[T.Tensor]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

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
        return_attention: bool = False,
    ):
        """One post-layer-norm residual block over (B, S, H) activations.

        Attention scores are scaled by 1/sqrt(head_dim); PAD key positions
        receive a -1e9 additive bias before softmax, so in float32 they
        carry exactly zero weight.  That is what lets ``trim_padding`` cut a
        batch to its longest real sequence before it reaches the encoder
        without changing any result.
        """
        cfg = self.config
        p = self.params
        pre = f"layer{layer_index}."
        batch, seq, hidden = x.shape
        nh, hd = cfg.num_heads, cfg.head_dim

        def split_heads(t: T.Tensor) -> T.Tensor:
            return t.reshape(batch, seq, nh, hd).transpose(0, 2, 1, 3)

        q = split_heads(x @ p[pre + "q_w"] + p[pre + "q_b"])
        k = split_heads(x @ p[pre + "k_w"] + p[pre + "k_b"])
        v = split_heads(x @ p[pre + "v_w"] + p[pre + "v_b"])

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(hd))
        mask = np.asarray(attention_mask, dtype=x.dtype).reshape(batch, 1, 1, seq)
        scores = scores + T.Tensor((1.0 - mask) * ATTENTION_MASK_BIAS)
        weights = T.softmax(scores, axis=-1)

        context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, seq, hidden)
        attended = context @ p[pre + "out_w"] + p[pre + "out_b"]
        h = T.layer_norm(x + attended, p[pre + "ln1_g"], p[pre + "ln1_b"])

        ff = T.gelu(h @ p[pre + "ff1_w"] + p[pre + "ff1_b"]) @ p[pre + "ff2_w"] + p[pre + "ff2_b"]
        out = T.layer_norm(h + ff, p[pre + "ln2_g"], p[pre + "ln2_b"])
        if return_attention:
            return out, weights.data
        return out

    def encode(
        self, token_ids: np.ndarray, segment_ids: np.ndarray, attention_mask: np.ndarray
    ) -> T.Tensor:
        """Run the full encoder stack; returns hidden states (B, S, H)."""
        x = self.embed(token_ids, segment_ids)
        for i in range(self.config.num_layers):
            x = self.encoder_layer(x, attention_mask, i)
        return x

    def forward(
        self, token_ids: np.ndarray, segment_ids: np.ndarray, attention_mask: np.ndarray
    ) -> T.Tensor:
        """Class logits (B, C) from the [CLS] hidden state through the head."""
        hidden = self.encode(token_ids, segment_ids, attention_mask)
        cls = hidden[:, 0, :]
        pooled = T.tanh(cls @ self.params["head.hidden_w"] + self.params["head.hidden_b"])
        return pooled @ self.params["head.out_w"] + self.params["head.out_b"]

    # -- batched inference ------------------------------------------------

    def logits(self, examples: list[EncodedExample]) -> T.Tensor:
        """Class logits for a list of examples, trimmed to its longest one."""
        return self.forward(*trim_padding(*stack_examples(examples)))

    def predict(self, examples: list[EncodedExample], batch_size: int = 64) -> np.ndarray:
        """Predicted class indices, argmax of the logits."""
        out = np.empty(len(examples), dtype=np.int64)
        for start in range(0, len(examples), batch_size):
            chunk = examples[start : start + batch_size]
            out[start : start + len(chunk)] = np.argmax(self.logits(chunk).data, axis=1)
        return out

    def predict_proba(self, examples: list[EncodedExample], batch_size: int = 64) -> np.ndarray:
        """Per-class probabilities, softmax of the logits, shape (N, C)."""
        out = np.empty((len(examples), self.config.num_classes), dtype=np.float64)
        for start in range(0, len(examples), batch_size):
            chunk = examples[start : start + batch_size]
            out[start : start + len(chunk)] = T.softmax(self.logits(chunk), axis=-1).data
        return out


def stack_examples(
    examples: list[EncodedExample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack encoded examples into (token_ids, segment_ids, attention_mask)."""
    if not examples:
        raise ValueError("cannot stack an empty batch")
    ids = np.asarray([e.token_ids for e in examples], dtype=np.int64)
    segs = np.asarray([e.segment_ids for e in examples], dtype=np.int64)
    mask = np.asarray([e.attention_mask for e in examples], dtype=np.int64)
    return ids, segs, mask


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


# -- masked-language-model corruption -------------------------------------


@dataclass
class MaskingPolicy:
    """Token-corruption rates: select 15% of eligible positions, then
    replace with [MASK] 80% of the time, a random content id 10%, and
    keep the original 10%."""

    select_rate: float = 0.15
    mask_rate: float = 0.80
    random_rate: float = 0.10
    keep_rate: float = 0.10

    def __post_init__(self):
        # the closed interval admits the degenerate all-or-nothing policies
        if not 0.0 <= self.select_rate <= 1.0:
            raise ConfigError(f"select_rate must lie in [0, 1], got {self.select_rate}")
        total = self.mask_rate + self.random_rate + self.keep_rate
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"mask/random/keep rates must sum to 1, got {total}")
        if min(self.mask_rate, self.random_rate, self.keep_rate) < 0:
            raise ConfigError("masking rates must be nonnegative")


@dataclass
class MaskedBatch:
    """Corrupted input ids plus the positions and original ids to predict."""

    input_ids: np.ndarray
    target_positions: np.ndarray = field(repr=False)  # (T, 2) of (row, col)
    target_ids: np.ndarray = field(repr=False)

    @property
    def num_targets(self) -> int:
        return len(self.target_ids)


def apply_mlm_mask(
    examples: list[EncodedExample],
    vocab: Vocabulary,
    policy: MaskingPolicy,
    rng_seed: int,
) -> MaskedBatch:
    """Corrupt a batch for masked-token prediction, deterministically per seed.

    Eligible positions are content tokens only: special ids (0-4, which
    includes [CLS], [SEP] and [PAD]) are never selected.  Each eligible
    position is selected independently with probability ``select_rate``.
    """
    if len(vocab) <= NUM_SPECIAL_TOKENS:
        raise ConfigError(
            "vocabulary has no content tokens to draw random replacements from"
        )
    ids, _, _ = stack_examples(examples)
    rng = np.random.default_rng(rng_seed)
    eligible = ids >= NUM_SPECIAL_TOKENS
    selected = eligible & (rng.random(ids.shape) < policy.select_rate)
    action = rng.random(ids.shape)
    random_ids = rng.integers(NUM_SPECIAL_TOKENS, len(vocab), size=ids.shape)

    corrupted = ids.copy()
    to_mask = selected & (action < policy.mask_rate)
    to_random = selected & (action >= policy.mask_rate) & (
        action < policy.mask_rate + policy.random_rate
    )
    corrupted[to_mask] = MASK_ID
    corrupted[to_random] = random_ids[to_random]

    positions = np.argwhere(selected)
    targets = ids[selected]
    return MaskedBatch(input_ids=corrupted, target_positions=positions, target_ids=targets)


def mlm_pretrain_loss(batch: MaskedBatch, model: ClassifierModel) -> T.Tensor:
    """Cross-entropy over the vocabulary at masked positions only.

    The decoder is the transpose of the word-embedding table.  An empty
    target set yields a constant zero loss with no gradient.
    """
    if batch.num_targets == 0:
        return T.Tensor(np.zeros((), dtype=np.float32))
    segment_ids = np.zeros_like(batch.input_ids)
    attention_mask = (batch.input_ids != PAD_ID).astype(np.int64)
    # targets sit on content tokens, which are never PAD, so they survive the trim
    hidden = model.encode(*trim_padding(batch.input_ids, segment_ids, attention_mask))
    rows = batch.target_positions[:, 0]
    cols = batch.target_positions[:, 1]
    picked = hidden[rows, cols]
    vocab_logits = picked @ model.params["embed.word"].transpose()
    return T.cross_entropy(vocab_logits, batch.target_ids)
