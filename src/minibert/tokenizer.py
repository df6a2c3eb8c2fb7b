"""Text segmentation, vocabulary construction, and fixed-length encoding.

Segmentation is character-level for CJK ideographs and whitespace/word
level for everything else (lowercased).  Vocabularies hold five special
tokens at fixed ids 0-4, then content tokens by descending frequency.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
# unused by the classifier, but vocab.txt files and checkpoints fix ids 0-4
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)

PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIAL_TOKENS = len(SPECIAL_TOKENS)
# [CLS] + at least one content token + [SEP]
MIN_SEQ_LEN = 3

# Unified ideograph blocks, matching the usual BERT treatment of Chinese text.
_CJK_RANGES = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
    (0x20000, 0x2A6DF),
    (0x2A700, 0x2B73F),
    (0x2B740, 0x2B81F),
    (0x2B820, 0x2CEAF),
    (0xF900, 0xFAFF),
    (0x2F800, 0x2FA1F),
)

_CJK_CLASS = "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in _CJK_RANGES)
# One CJK codepoint, or a maximal run of characters that are neither
# whitespace (``\s`` is exactly ``str.isspace``) nor CJK.
_SEGMENT_RE = re.compile(f"[{_CJK_CLASS}]|[^\\s{_CJK_CLASS}]+")


def segment_text(text: str) -> list[str]:
    """Split text into tokens.

    Every CJK codepoint becomes its own token; maximal runs of other
    non-whitespace characters become single lowercased tokens; whitespace
    only delimits.  Empty input yields an empty list.  CJK ideographs have
    no case, so lowercasing every token leaves them as they are.
    """
    return [token.lower() for token in _SEGMENT_RE.findall(text)]


class Vocabulary:
    """Bidirectional token/id map with the five special tokens at ids 0-4."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:NUM_SPECIAL_TOKENS]) != SPECIAL_TOKENS:
            raise ValueError(f"vocabulary must start with {SPECIAL_TOKENS}")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {tok: i for i, tok in enumerate(tokens)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def save(self, path: str | Path) -> None:
        """One token per line, UTF-8; line number is the id."""
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")


def build_vocab(corpus: list[str], max_size: int, min_frequency: int = 1) -> Vocabulary:
    """Build a vocabulary from raw texts.

    Content tokens are ordered by descending frequency with lexicographic
    tie-break, filtered by ``min_frequency``, and truncated so the total
    size (specials included) never exceeds ``max_size``.
    """
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if max_size < NUM_SPECIAL_TOKENS:
        raise ValueError(
            f"max_size must be at least {NUM_SPECIAL_TOKENS} to hold the special tokens"
        )
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(segment_text(text))
    ranked = sorted(
        (tok for tok, c in counts.items() if c >= min_frequency),
        key=lambda tok: (-counts[tok], tok),
    )
    capacity = max_size - NUM_SPECIAL_TOKENS
    return Vocabulary(list(SPECIAL_TOKENS) + ranked[:capacity])


@dataclass
class EncodedExample:
    """A tokenized, padded, single-segment sequence with its class label.

    Position 0 is [CLS]; exactly one [SEP] terminates the content; every
    later position is [PAD].  ``length`` counts the non-PAD positions, on
    which ``attention_mask`` is 1; ``segment_ids`` is all 0.  Both lists are
    built on demand; ``model.stack_examples`` builds their arrays from
    ``length`` without them.
    """

    token_ids: list[int]
    length: int
    label: int = 0

    @property
    def segment_ids(self) -> list[int]:
        return [0] * len(self.token_ids)

    @property
    def attention_mask(self) -> list[int]:
        return [1] * self.length + [0] * (len(self.token_ids) - self.length)


def encode(text: str, vocab: Vocabulary, max_seq_len: int, label: int = 0) -> EncodedExample:
    """Encode text as [CLS] + tokens + [SEP] + padding, truncating the tail;
    a token outside ``vocab`` becomes [UNK]."""
    if max_seq_len < MIN_SEQ_LEN:
        raise ValueError(f"max_seq_len must be at least {MIN_SEQ_LEN}, got {max_seq_len}")
    lookup = vocab.token_to_id.get
    content = [lookup(tok, UNK_ID) for tok in segment_text(text)[: max_seq_len - 2]]
    length = len(content) + 2
    ids = [CLS_ID, *content, SEP_ID] + [PAD_ID] * (max_seq_len - length)
    return EncodedExample(token_ids=ids, label=label, length=length)
